"""The element parser against the reference parser of ``tests/_helpers.py``.

Over Q(x), Q[t], a rescaled Q[t], F_5 and F_9, every string must parse
to the same element as with the reference, or fail with the same error
message and position.  The grammar runs on the ring's own operations in
every ring, so its caps read the ring's element (over F_5, the reduced
one).

In every ring a sum of integer monomials is read in one pass by
``_monomial_sum`` before the grammar; over Q(x), Q[t], a rescaled Q(x),
F_5 and F_9, with a variable of one character and of twenty, that
reading must give the grammar's element, and every text it does not
take (past a cap, or of another shape) must be left to the grammar.  A
long run of blanks must cost the reader, and the grammar's tokenizer at
the end of a text, time linear in its length.
"""

import time

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
    MAX_POWER_SIZE,
    _Parser,
    _monomial_sum,
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
    the degree cap; its degree in Z[x] would refuse it.  The reader's
    tuple (3, 0, 5) for 5*x^2 + 3 reduces as it enters the ring."""
    f5 = FiniteFieldPolyRing(5)
    assert parse_element("5*x^2 + 3", f5) == f5.from_int(3)
    assert parse_element("(5*x^2 + 1)^200", f5) == f5.one
    assert parse_element("(5*x^2 + x)^256", f5) == f5.pow(f5.t, 256)
    with pytest.raises(ParseError, match="power of degree 400 exceeds"):
        parse_element("(5*x^2 + 1)^200", RationalFunctionField())


# -- the one-pass reader of monomial sums against the grammar ----------

LONG = "v_" * 10  # 20 characters, so v^k is past MAX_POWER_SIZE from k = 216
assert MAX_EXPONENT * len(LONG) > MAX_POWER_SIZE
READER_RINGS = {
    f"{kind}-{len(v)}": ring
    for v in ("x", LONG)
    for kind, ring in (
        ("qx", RationalFunctionField(v)),
        ("qt", GaussPolynomialRing(3, 1, v)),
        ("qx-scaled", ScaledDerivationRing(RationalFunctionField(v), RationalFunctionField(v).t)),
        ("f5", FiniteFieldPolyRing(5, 1, v)),
        ("f9", FiniteFieldPolyRing(3, 2, v)),
    )
}


def grammar(text, ring):
    return _Parser(text, ring).parse()


def assert_grammar(text, ring):
    assert outcome(parse_element, text, ring) == outcome(grammar, text, ring), text


SPACE = st.sampled_from(["", "", " ", "\t", " \t "])
SIGN = st.sampled_from(["", "", "-", "+"])
# Literals of a few digits, some of them Arabic-Indic, or of exactly
# MAX_LITERAL_DIGITS digits, or of one more
LITERALS = st.builds(
    lambda digits, n: (digits * n)[:n] if n else digits,
    st.text("0123456789\u0663", min_size=1, max_size=6),
    st.sampled_from([0, 0, 0, 0, MAX_LITERAL_DIGITS, MAX_LITERAL_DIGITS + 1]),
)
EXPONENTS = st.one_of(
    st.integers(0, 300).map(str),
    st.sampled_from(["2", "215", "216", "256", "257", "\u0663", "007"]),
)


@st.composite
def monomial_sums(draw, variable):
    """A sum of signed monomials in ``variable``, spaced by blanks and
    tabs, with up to two signs before each term and perhaps wrapped as
    INT*( ... ): the grammar accepts most of them and refuses some at a
    cap or for a second sign on the first term."""
    sp = lambda: draw(SPACE)

    def monomial():
        shape = draw(st.integers(0, 4))
        if shape == 0:
            return draw(LITERALS)
        if shape == 1:
            return variable
        power = f"{variable}{sp()}^{sp()}{draw(EXPONENTS)}" if shape % 2 else variable
        return f"{draw(LITERALS)}{sp()}*{sp()}{power}"

    text = f"{draw(SIGN)}{sp()}{draw(SIGN)}{sp()}{monomial()}"
    for _ in range(draw(st.integers(0, 4))):
        text += f"{sp()}{draw(st.sampled_from('+-'))}{sp()}{draw(SIGN)}{sp()}{monomial()}"
    if draw(st.booleans()):
        text = f"{sp()}{draw(LITERALS)}{sp()}*{sp()}({text}){sp()}"
    return text


@pytest.mark.parametrize("name", sorted(READER_RINGS))
@SETTINGS
@given(data=st.data())
def test_monomial_sums_parse_as_the_grammar(name, data):
    ring = READER_RINGS[name]
    assert_grammar(data.draw(monomial_sums(ring.variable)), ring)


SOUP = st.text(alphabet=list("0123456789+-*/^()xt_ "), max_size=30)


@pytest.mark.parametrize("name", ["qx-1", "qt-1", "qx-scaled-1", "f5-1", "f9-1"])
@SETTINGS
@given(text=SOUP)
def test_a_tuple_from_the_reader_is_the_grammars_element(name, text):
    ring = READER_RINGS[name]
    coeffs = _monomial_sum(text, ring.variable)
    if coeffs is not None:
        assert ring.from_integer_poly(coeffs) == grammar(text, ring), text
    assert_grammar(text, ring)


READ = {
    "25*(-1 + 2*x + -2*x^2)": (-25, 50, -50),
    "1 + -2*x^2 - -3*x": (1, 3, -2),
    "-x + + x^0 - 0*x^256": (1, -1),
    " 7 \t* ( x ^ \u0663 - x^3 ) ": (),
    "-0": (),
    "5*x^2 + 3": (3, 0, 5),
    "9" * MAX_LITERAL_DIGITS: (int("9" * MAX_LITERAL_DIGITS),),
}
NOT_READ = [
    "0*x^300",
    "x^257",
    "2x",
    "2*x*x",
    "x/2*x",
    "2*x^2^3",
    "25*(x))",
    "9" * (MAX_LITERAL_DIGITS + 1),
    "x^" + "0" * MAX_LITERAL_DIGITS + "2",
    "- -x",
    "x + - -1",
    "x 1",
    "x1",
    "2^2",
    "-2*(x)",
    "2*(x)^2",
    "",
    " ",
]


@pytest.mark.parametrize("name", ["qx-1", "qt-1", "qx-scaled-1", "f5-1", "f9-1"])
def test_the_reader_takes_monomial_sums_and_leaves_the_rest(name):
    ring = READER_RINGS[name]
    for text, coeffs in READ.items():
        assert _monomial_sum(text, "x") == coeffs, text
        assert_grammar(text, ring)
    for text in NOT_READ:
        assert _monomial_sum(text, "x") is None, text
        assert_grammar(text, ring)


@pytest.mark.parametrize("name", ["qx-20", "qt-20", "f5-20"])
def test_the_reader_leaves_a_power_past_the_size_cap(name):
    """With a 20-character variable, v^215 is the largest power whose
    printed size passes MAX_POWER_SIZE; v^216 is refused by the grammar,
    even with a zero coefficient."""
    ring = READER_RINGS[name]
    assert _monomial_sum(f"{LONG}^215", LONG) == (0,) * 215 + (1,)
    for text in (f"{LONG}^216", f"1 + 0*{LONG}^216"):
        assert _monomial_sum(text, LONG) is None
        with pytest.raises(ParseError, match="power of size 4320 exceeds"):
            parse_element(text, ring)


BLANKS = " " * 1000
BLANK_RUNS = {
    "before-the-end": "x" + BLANKS,
    "before-slash": "x" + BLANKS + "/2",
    "before-paren": "x" + BLANKS + ")",
    "around-signs": "1" + BLANKS + "+" + BLANKS + "-" + BLANKS + "/",
    "after-star": "2" + BLANKS + "*" + BLANKS + "y",
    "in-the-wrapper": "25*(" + BLANKS + "x" + BLANKS + ")" + BLANKS,
    "every-gap": BLANKS + "-" + BLANKS + "x" + BLANKS + "^" + BLANKS + "2" + BLANKS,
}


@pytest.mark.parametrize("name", sorted(BLANK_RUNS))
def test_a_run_of_blanks_costs_the_reader_linear_time(name):
    """Each run of blanks has one reader in the pattern, so a match that
    fails gives it back once instead of trying every split of it among
    the blanks around a sign: 1,000 blanks would otherwise take seconds."""
    text = BLANK_RUNS[name]
    start = time.perf_counter()
    _monomial_sum(text, "x")
    assert time.perf_counter() - start < 0.5, name
    assert_grammar(text, READER_RINGS["qx-1"])


TRAILING = " " * 20000
TRAILING_BLANKS = {
    "qx-quotient": ("1/x" + TRAILING, RINGS["qx"]),
    "qx-error-at-the-end": ("1/" + TRAILING, RINGS["qx"]),
    "f9-generator": ("g*x" + TRAILING, RINGS["f9"]),
}


@pytest.mark.parametrize("name", sorted(TRAILING_BLANKS))
def test_trailing_blanks_cost_the_tokenizer_linear_time(name):
    """Texts that the reader leaves to the grammar, ending in 20,000
    blanks, parse in well under 0.5 s, and an error at the end reports
    the end of the whole text: the tokenizer skips the trailing blanks,
    from each of which its pattern would scan the rest of the run, a
    cost of seconds here."""
    text, ring = TRAILING_BLANKS[name]
    start = time.perf_counter()
    got = outcome(parse_element, text, ring)
    assert time.perf_counter() - start < 0.5, name
    assert got == outcome(reference_parse, text, ring), name
