import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katzcyclic import (
    FiniteFieldPolyRing,
    GaussPolynomialRing,
    ParseError,
    PreconditionError,
    RationalFunctionField,
    ScaledDerivationRing,
    module_from_json,
)
from katzcyclic.parser import (
    MAX_DEGREE,
    MAX_EXPONENT,
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    MAX_POWER_SIZE,
)


@pytest.fixture
def qx():
    return RationalFunctionField()


def test_polynomial_literal(qx):
    assert qx.eq(qx.parse("x^2 - 1"), qx.sub(qx.mul(qx.t, qx.t), qx.one))


def test_rational_literal(qx):
    a = qx.parse("(x+1)/(x-1)")
    prod = qx.mul(a, qx.parse("x-1"))
    assert qx.eq(prod, qx.parse("x+1"))


def test_precedence_and_unary_minus(qx):
    assert qx.eq(qx.parse("-x^2 + 2*x"), qx.parse("2*x - x^2"))
    assert qx.eq(qx.parse("1 + 2*3"), qx.from_int(7))
    assert qx.eq(qx.parse("(1+2)*3"), qx.from_int(9))
    assert qx.eq(qx.parse("2/4"), qx.from_fraction(__import__("fractions").Fraction(1, 2)))


def test_gauss_norm_of_parsed_element():
    ring = GaussPolynomialRing(3)
    a = ring.parse("3*t + t^2")
    assert str(ring.norm(a)) == "3^0"


def test_char_p_literal_reduction():
    ring = FiniteFieldPolyRing(2)
    assert ring.is_zero(ring.parse("2"))
    assert ring.eq(ring.parse("3*x"), ring.parse("x"))


def test_syntax_error_reports_position(qx):
    with pytest.raises(ParseError) as exc:
        qx.parse("x + @")
    assert exc.value.position == 4


def test_unbalanced_paren(qx):
    with pytest.raises(ParseError):
        qx.parse("(x + 1")


def test_unknown_symbol(qx):
    with pytest.raises(ParseError):
        qx.parse("y + 1")


def test_trailing_garbage(qx):
    with pytest.raises(ParseError):
        qx.parse("x 1")


def test_negative_exponent_rejected(qx):
    with pytest.raises(ParseError):
        qx.parse("x^-2")


@pytest.mark.parametrize(
    "ring",
    [RationalFunctionField(), GaussPolynomialRing(3), FiniteFieldPolyRing(5)],
    ids=["qx", "gauss3", "f5"],
)
def test_exponent_cap(ring):
    x = ring.variable
    top = ring.parse(f"{x}^{MAX_EXPONENT}")
    assert ring.eq(ring.derive(top), ring.parse(f"{MAX_EXPONENT}*{x}^{MAX_EXPONENT - 1}"))
    with pytest.raises(ParseError, match="exceeds the maximum"):
        ring.parse(f"1 + ({x} - 1)^{MAX_EXPONENT + 1}")


@pytest.mark.parametrize(
    "ring",
    [RationalFunctionField(), GaussPolynomialRing(3), FiniteFieldPolyRing(5)],
    ids=["qx", "gauss", "fq"],
)
def test_power_degree_cap(ring):
    x = ring.variable
    half = MAX_DEGREE // 2
    assert ring.eq(ring.parse(f"({x}^2)^{half}"), ring.parse(f"{x}^{MAX_DEGREE}"))
    assert ring.eq(ring.parse(f"2^{MAX_EXPONENT}"), ring.pow(ring.from_int(2), MAX_EXPONENT))
    for text in (f"({x}^2)^{half + 1}", f"({x}^{MAX_EXPONENT})^{MAX_EXPONENT}"):
        with pytest.raises(ParseError, match="exceeds the maximum"):
            ring.parse(text)


@pytest.mark.parametrize(
    "ring",
    [RationalFunctionField(), GaussPolynomialRing(3), FiniteFieldPolyRing(2 ** 64 - 59)],
    ids=["qx", "gauss", "fq"],
)
def test_power_size_cap(ring):
    # 10^19 prints as 20 characters (also in F_p, p > 10^19), so the
    # exponent MAX_POWER_SIZE // 20 is exactly at the cap.
    top = MAX_POWER_SIZE // 20
    assert 20 * top == MAX_POWER_SIZE
    assert ring.eq(ring.parse(f"(10^19)^{top}"), ring.from_int(10 ** (19 * top)))
    assert ring.eq(ring.parse("2^256"), ring.from_int(2 ** 256))
    x = ring.variable
    # the base's string also counts its variable part
    for text in (f"(10^19)^{top + 1}", "((2^256)^256)^256", f"(10^19*{x})^{top}"):
        with pytest.raises(ParseError, match="exceeds the maximum"):
            ring.parse(text)


def test_power_size_cap_on_a_base_past_the_digit_limit():
    qx = RationalFunctionField()
    huge = "*".join(["10^256"] * 17)  # 4353 digits: past what str() writes
    assert qx.degree(qx.parse(f"({huge})^1")) == 0
    with pytest.raises(ParseError, match="exceeds the maximum size"):
        qx.parse(f"({huge})^2")


@pytest.mark.parametrize(
    "ring",
    [
        RationalFunctionField(),
        GaussPolynomialRing(3, 1),
        FiniteFieldPolyRing(5),
        FiniteFieldPolyRing(7, 2),
        ScaledDerivationRing(RationalFunctionField(), RationalFunctionField().from_int(3)),
    ],
    ids=["qx", "gauss", "f5", "f49", "scaled"],
)
def test_variable_prints_as_its_name(ring):
    """The size cap counts a power of the variable by the name's length."""
    assert ring.to_str(ring.var_element) == ring.variable


def test_power_size_cap_on_a_long_variable():
    accepted, refused = "v" * 16, "w" * 17
    assert 16 * MAX_EXPONENT <= MAX_POWER_SIZE < 17 * MAX_EXPONENT
    ring = RationalFunctionField(accepted)
    assert ring.degree(ring.parse(f"{accepted}^{MAX_EXPONENT}")) == MAX_EXPONENT
    ring = RationalFunctionField(refused)
    with pytest.raises(ParseError, match="exceeds the maximum"):
        ring.parse(f"{refused}^{MAX_EXPONENT}")


def test_power_degree_cap_counts_denominators():
    qx = RationalFunctionField()
    assert qx.degree(qx.parse(f"(1/x^2)^{MAX_DEGREE // 2}")) == MAX_DEGREE
    with pytest.raises(ParseError, match="exceeds the maximum"):
        qx.parse(f"((x + 1)/x^2)^{MAX_DEGREE // 2 + 1}")


RING_KINDS = pytest.mark.parametrize(
    "ring",
    [RationalFunctionField(), GaussPolynomialRing(3), FiniteFieldPolyRing(5)],
    ids=["qx", "gauss", "fq"],
)


@RING_KINDS
def test_nesting_cap(ring):
    x = ring.variable
    half = MAX_NESTING // 2
    at_cap = [
        "(" * MAX_NESTING + x + ")" * MAX_NESTING,
        "-" * MAX_NESTING + x,
        "+" * MAX_NESTING + x,
        "-(" * half + x + ")" * half,  # signs and parentheses count together
    ]
    for text in at_cap:
        assert ring.eq(ring.parse(text), ring.parse(text.count("-") % 2 * "-" + x))
    for text in ["(" + at_cap[0] + ")", "-" + at_cap[1], "-" + at_cap[3], "(" * 5000 + x]:
        with pytest.raises(ParseError, match=f"exceeds the maximum depth {MAX_NESTING}"):
            ring.parse(text)
    # depth is the nesting of one path, not the count of parentheses
    flat = "+".join(["(" * MAX_NESTING + x + ")" * MAX_NESTING] * 3)
    assert ring.eq(ring.parse(flat), ring.parse(f"3*{x}"))


@RING_KINDS
def test_literal_digit_cap(ring):
    top = "9" * MAX_LITERAL_DIGITS
    assert ring.eq(ring.parse(top), ring.from_int(int(top)))
    for text in ("9" * (MAX_LITERAL_DIGITS + 1), "1 + 0" + top):
        with pytest.raises(ParseError, match=f"exceeds the maximum {MAX_LITERAL_DIGITS} digits"):
            ring.parse(text)


def test_division_in_polynomial_ring_rejected():
    ring = GaussPolynomialRing(3)
    with pytest.raises(ParseError):
        ring.parse("1/t")
    # division by a unit is fine
    assert ring.eq(ring.parse("t/2"), ring.parse("(1/2)*t"))


def test_division_by_zero_rejected(qx):
    with pytest.raises(ParseError):
        qx.parse("1/0")


@pytest.mark.parametrize("p, e", [(2, 2), (3, 4), (7, 2)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fpe_print_parse_roundtrip(p, e, data):
    # F_{p^e}[x] prints its coefficients in the generator g; g parses back
    ring = FiniteFieldPolyRing(p, e)
    coeff = st.tuples(*[st.integers(0, p - 1)] * e)
    a = tuple(data.draw(st.lists(coeff, max_size=5)))
    while a and not any(a[-1]):
        a = a[:-1]
    assert ring.parse(ring.to_str(a)) == a


def test_generator_symbol():
    f4 = FiniteFieldPolyRing(2, 2)
    assert f4.parse("g*x") == ((f4.field.zero, (0, 1)))
    assert f4.parse("g^2 + g + 1") == f4.zero  # g^2 = g + 1 in F_4
    assert f4.parse("x/g") == f4.mul(f4.t, f4.inv(f4.generator))
    assert ScaledDerivationRing(f4, f4.generator).parse("g*x") == f4.parse("g*x")
    for ring in (FiniteFieldPolyRing(5), RationalFunctionField(), GaussPolynomialRing(2)):
        with pytest.raises(ParseError, match="unknown symbol 'g'"):
            ring.parse("g*x")


def test_generator_name_refused_as_variable():
    with pytest.raises(PreconditionError, match="cannot be g"):
        FiniteFieldPolyRing(3, 2, variable="g")
    with pytest.raises(PreconditionError, match="cannot be g"):
        module_from_json({"ring": {"kind": "finite_field_poly", "p": 2, "q_exp": 2,
                                   "variable": "g"}, "n": 1, "G1": [["0"]]})
    assert FiniteFieldPolyRing(3, 1, variable="g").parse("g^2") == ((0,), (0,), (1,))
