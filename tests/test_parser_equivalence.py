"""The element parser against the reference parser of ``tests/_helpers.py``.

Over Q(x), Q[t], a rescaled Q[t], F_5 and F_9, every string must parse
to the same element as with the reference, or fail with the same error
message and position.  In characteristic 0 the parser evaluates in Z[x]
and converts to the ring at '/', at a power of anything but the
variable, and at the end; F_q[x] stays on the ring's own operations,
whose caps read the reduced element.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _helpers import reference_parse
from katzcyclic import (
    FiniteFieldPolyRing,
    GaussPolynomialRing,
    KatzCyclicError,
    ParseError,
    RationalFunctionField,
    ScaledDerivationRing,
)
from katzcyclic.parser import (
    MAX_DEGREE,
    MAX_EXPONENT,
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    parse_element,
)
from test_cli_fuzz import expressions as fuzz_expressions
from test_cli_fuzz import hostile as fuzz_hostile
from test_cli_fuzz import soup as fuzz_soup


QT = GaussPolynomialRing(3, 1, "t")
RINGS = {
    "qx": RationalFunctionField("x"),
    "qt": QT,
    "qt-scaled": ScaledDerivationRing(QT, QT.from_int(3)),
    "f5": FiniteFieldPolyRing(5, 1, "x"),
    "f9": FiniteFieldPolyRing(3, 2, "x"),
}
SETTINGS = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def outcome(parse, text, ring):
    """The element ``parse`` builds, or the type, message and position of
    the error it raises."""
    try:
        return parse(text, ring)
    except KatzCyclicError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "position", None)


def assert_same(text, ring):
    expected = outcome(reference_parse, text, ring)
    assert outcome(parse_element, text, ring) == expected, text


def expressions(variable):
    """Well-formed and nearly well-formed expressions: literals, the
    variable, g, an unknown name, the four operations, signs, parentheses
    and powers up to and past the caps."""
    leaves = st.one_of(
        st.sampled_from([variable, variable, "g", "y", "0", "1", "2", "3", "5", "10"]),
        st.integers(0, 10 ** 30).map(str),
    )
    exponents = st.sampled_from([0, 1, 2, 3, 5, 17, 64, 129, 256, 257])
    return st.recursive(
        leaves,
        lambda e: st.one_of(
            st.builds("{} {} {}".format, e, st.sampled_from("+-*/"), e),
            st.builds("({}){}({})".format, e, st.sampled_from("+-*/"), e),
            st.builds("({})".format, e),
            st.builds("-{}".format, e),
            st.builds("+({})".format, e),
            st.builds("{}^{}".format, e, exponents),
            st.builds("({})^{}".format, e, exponents),
        ),
        max_leaves=6,
    )


@pytest.mark.parametrize("name", sorted(RINGS))
@SETTINGS
@given(data=st.data())
def test_random_expressions_parse_as_the_reference(name, data):
    ring = RINGS[name]
    assert_same(data.draw(expressions(ring.variable)), ring)


ODD_TEXT = st.text(alphabet=list("xtg0129 +-*/^()\t\n.\u0663\u00b2\u00e9\u00a0\x00"), max_size=20)


@pytest.mark.parametrize("name", sorted(RINGS))
@SETTINGS
@given(data=st.data())
def test_malformed_text_fails_as_the_reference(name, data):
    """Token soup and odd characters (an Arabic-Indic digit, a
    superscript, a non-breaking space), and the CLI fuzz test's own
    expressions, soup and hostile strings."""
    ring = RINGS[name]
    text = data.draw(st.one_of(ODD_TEXT, fuzz_expressions, fuzz_soup, fuzz_hostile))
    assert_same(text, ring)


CAPPED = [
    f"x^{MAX_EXPONENT + 1}",
    f"(x^2)^{MAX_DEGREE // 2 + 1}",
    f"(x + 1)^{MAX_EXPONENT}",
    f"({'v' * 17})^{MAX_EXPONENT}",
    "(10^19)^216",
    "(10^19)^215",
    "(10^19*x)^215",
    "((2^256)^256)^256",
    "(" + "*".join(["10^256"] * 17) + ")^2",
    "(" + "*".join(["10^256"] * 17) + ")^1",
    f"(1/x^2)^{MAX_DEGREE // 2}",
    f"((x + 1)/x^2)^{MAX_DEGREE // 2 + 1}",
    "(x/x)^256 + x^256",
    "(x^0)^256",
    "(5*x^2 + 1)^200",
    "(5*x^2 + 1)^256 * x",
    "(0*x^3 + x)^256",
    "(x - x + 1)^257",
    "(" * MAX_NESTING + "x" + ")" * MAX_NESTING,
    "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
    "-" * MAX_NESTING + "x",
    "+" * (MAX_NESTING + 1) + "x",
    "9" * MAX_LITERAL_DIGITS,
    "1 + " + "9" * (MAX_LITERAL_DIGITS + 1),
    "x" + "9" * 5000,
    "1/(x - x)",
    "1/0 + é",
    "é + 1/0",
    "x^-1",
    "x^",
    "x^y",
    "x^2^3",
    "()",
    "(x",
    "x)",
    "",
    "   ",
    "2 x",
    "g",
    "1/x",
    "x/3 - 1/2",
    "٣*x",
    "x²",
]


@pytest.mark.parametrize("name", sorted(RINGS))
def test_caps_and_errors_match_the_reference(name):
    ring = RINGS[name]
    for text in CAPPED:
        assert_same(text.replace("x", ring.variable), ring)


def test_fq_caps_read_the_reduced_base():
    """Over F_5, 5*x^2 + 1 is the constant 1, so its 200th power passes
    the degree cap; its degree in Z[x] would refuse it."""
    f5 = FiniteFieldPolyRing(5)
    assert parse_element("(5*x^2 + 1)^200", f5) == f5.one
    assert parse_element("(5*x^2 + x)^256", f5) == f5.pow(f5.t, 256)
    with pytest.raises(ParseError, match="power of degree 400 exceeds"):
        parse_element("(5*x^2 + 1)^200", RationalFunctionField())
