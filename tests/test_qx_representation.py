"""The canonical form (p/q) * N/D of Q(x) elements (``rings.RatFunc``).

N and D are coprime primitive integer polynomials with positive leading
coefficients, and the scale is the reduced int pair p/q: q > 0 and
gcd(p, q) = 1.  Zero is (p, q, N, D) = (0, 1, (), (1,)).  Equality is
structural, so every route to one value must end in the same quadruple.
"""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from katzcyclic import NotInvertibleError, polys
from katzcyclic.fields import QQ, ZZ
from katzcyclic.rings import GaussPolynomialRing, RationalFunctionField, RatFunc, _canonical

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
QX = RationalFunctionField()
QT = GaussPolynomialRing(3)
SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# Coefficients with content and signs: large numerators, small denominators.
coeffs = st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 12))
polynomials = st.lists(coeffs, min_size=0, max_size=4)


@st.composite
def elements(draw, nonzero=False):
    num = draw(polynomials if not nonzero else polynomials.filter(any))
    den = draw(polynomials.filter(any))
    return RatFunc(num, den)


def assert_canonical(a: RatFunc):
    assert type(a.p) is int and type(a.q) is int
    assert a.q > 0 and math.gcd(a.p, a.q) == 1
    assert (not a.p) == ((a.p, a.q, a.N, a.D) == (0, 1, (), (1,)))
    if not a.p:
        return
    for f in (a.N, a.D):
        assert f and all(type(x) is int for x in f)
        assert math.gcd(*f) == 1 and f[-1] > 0
    n, d = (sympy.Poly(list(reversed(f)), X, domain=sympy.ZZ) for f in (a.N, a.D))
    assert n.gcd(d).degree() == 0


@SETTINGS
@given(elements())
def test_print_parse_roundtrip(a):
    assert_canonical(a)
    assert QX.parse(QX.to_str(a)) == a


@SETTINGS
@given(elements(), elements(nonzero=True))
def test_one_value_reached_two_ways_is_equal(a, b):
    for value in (QX.mul(QX.mul(a, b), QX.inv(b)), QX.sub(QX.add(a, b), b),
                  QX.div(QX.mul(b, a), b)):
        assert_canonical(value)
        assert value == a
        assert hash(value) == hash(a)


@SETTINGS
@given(elements(), elements())
def test_results_stay_normalised(a, b):
    for value in (QX.add(a, b), QX.sub(a, b), QX.mul(a, b), QX.neg(a), QX.derive(a),
                  QX.pow(a, 3)):
        assert_canonical(value)
    if a.p:
        assert_canonical(QX.inv(a))


@SETTINGS
@given(elements())
def test_zero_has_one_form(a):
    zeros = [
        QX.sub(a, a),
        QX.mul(a, QX.zero),
        QX.add(a, QX.neg(a)),
        QX.from_int(0),
        QX.derive(QX.from_fraction(Fraction(7, 3))),
        QX.pow(QX.zero, 3),
        RatFunc((), (Fraction(-3), Fraction(2))),
        RatFunc((Fraction(0), Fraction(0)), (Fraction(5),)),
    ]
    for z in zeros:
        assert (z.p, z.q, z.N, z.D) == (0, 1, (), (1,))
        assert_canonical(z)
        assert z == QX.zero and QX.is_zero(z)
    assert QX.pow(QX.zero, 0) == QX.one


def test_scale_and_sign_are_taken_out():
    a = QX.parse("(-6*x - 4)/(9*x^2 - 3)")  # -2(3x + 2) / (3(3x^2 - 1))
    assert (a.p, a.q, a.N, a.D) == (-2, 3, (2, 3), (-1, 0, 3))
    assert a.num == (Fraction(-4, 9), Fraction(-2, 3))
    assert a.den == (Fraction(-1, 3), Fraction(0), Fraction(1))
    assert QX.to_str(a) == "(-2/3*x - 4/9)/(x^2 - 1/3)"
    assert RatFunc(a.num, a.den) == a


# -- polynomial elements (D = (1,)) run on the Q[t] arithmetic ------------

@st.composite
def polynomial_elements(draw):
    return RatFunc(draw(polynomials), (Fraction(1),))


def as_sympy(a: RatFunc):
    def expr(f):
        return sum(c * X ** i for i, c in enumerate(f))

    return sympy.Rational(a.p, a.q) * expr(a.N) / expr(a.D)


def assert_equals_sympy(value, expected):
    assert_canonical(value)
    assert sympy.cancel(as_sympy(value) - expected) == 0


@SETTINGS
@given(polynomial_elements(), polynomial_elements())
def test_polynomial_operands_match_qt_without_gcd(a, b):
    with mock.patch.object(polys, "gcd", side_effect=AssertionError("gcd taken")):
        pairs = ((QX.add(a, b), QT.add(a, b)), (QX.mul(a, b), QT.mul(a, b)),
                 (QX.derive(a), QT.derive(a)))
    for value, expected in pairs:
        assert value == expected
        assert len(value.D) == 1
    assert_equals_sympy(QX.add(a, b), as_sympy(a) + as_sympy(b))
    assert_equals_sympy(QX.mul(a, b), as_sympy(a) * as_sympy(b))
    assert_equals_sympy(QX.derive(a), sympy.diff(as_sympy(a), X))


@SETTINGS
@given(st.one_of(polynomial_elements(), elements()),
       st.one_of(polynomial_elements(), elements()))
def test_mixed_operands_match_sympy(a, b):
    sa, sb = as_sympy(a), as_sympy(b)
    assert_equals_sympy(QX.add(a, b), sa + sb)
    assert_equals_sympy(QX.sub(a, b), sa - sb)
    assert_equals_sympy(QX.mul(a, b), sa * sb)
    assert_equals_sympy(QX.derive(a), sympy.diff(sa, X))


@st.composite
def repeated_factor_elements(draw):
    """c N/D whose D has a repeated factor: the numerator over f^e g, f of
    degree >= 1 and e = 2 or 3 (N and D are what is left after the
    reduction)."""
    f = draw(st.lists(coeffs, min_size=2, max_size=3).filter(lambda c: c[-1]))
    g = draw(polynomials.filter(any))
    den = g
    for _ in range(draw(st.integers(2, 3))):
        den = polys.mul(QQ, den, f)
    return RatFunc(draw(polynomials), den)


@SETTINGS
@given(repeated_factor_elements())
def test_derive_takes_one_gcd_at_the_degree_of_d(a):
    """d(c N/D) = c (N' D1 - N E)/(D1 D) with (h, D1, E) = gcd(D, D'),
    against c (N' D - N D')/D^2 reduced by a gcd at twice the degree,
    and against sympy's diff."""
    with mock.patch.object(polys, "gcd", wraps=polys.gcd) as gcd:
        value = QX.derive(a)
    degrees = [max(len(f), len(g)) - 1 for (_, f, g), _ in gcd.call_args_list]
    assert degrees == ([len(a.D) - 1] if len(a.D) > 1 else [])
    num = polys.sub(ZZ, polys.mul(ZZ, polys.derive(ZZ, a.N), a.D),
                    polys.mul(ZZ, a.N, polys.derive(ZZ, a.D)))
    assert value == _canonical(a.p, a.q, num, polys.mul(ZZ, a.D, a.D))
    assert_equals_sympy(value, sympy.diff(as_sympy(a), X))


def test_polynomial_path_with_zero():
    p = QX.parse("3/2*x^2 - 6")
    r = QX.parse("(x + 1)/(2*x - 3)")
    for a in (p, r):
        assert QX.add(a, QX.zero) is a and QX.add(QX.zero, a) is a
        assert QX.mul(a, QX.zero) == QX.zero == QX.mul(QX.zero, a)
    assert QX.add(QX.zero, QX.zero) == QX.zero
    assert QX.derive(QX.zero) == QX.zero
    assert QX.sub(p, p) == QX.zero
    assert QX.mul(p, r) == QX.parse("(3/2*x^2 - 6)*(x + 1)/(2*x - 3)")
    assert QX.add(p, r) == QX.parse("3/2*x^2 - 6 + (x + 1)/(2*x - 3)")
    assert QX.mul(QX.parse("2*x - 3"), r) == QX.parse("x + 1")


# -- one inv serves both kinds, guarded by each kind's is_invertible ------

@pytest.mark.parametrize(
    "ring, non_units",
    [(QX, ["0"]), (QT, ["t", "t^2 + 1", "0"])],
    ids=["qx", "gauss"],
)
def test_inv_refuses_non_units(ring, non_units):
    for text in non_units:
        with pytest.raises(NotInvertibleError):
            ring.inv(ring.parse(text))


@pytest.mark.parametrize(
    "ring, units",
    [(QX, ["-6/5", "3*x^2 - 6", "(x + 1)/(2*x - 3)"]), (QT, ["-6/5", "7"])],
    ids=["qx", "gauss"],
)
def test_unit_times_inverse_is_one(ring, units):
    for text in units:
        a = ring.parse(text)
        inv = ring.inv(a)
        assert_canonical(inv)
        assert ring.mul(a, inv) == ring.one == ring.mul(inv, a)


def fraction_printer(ring, a: RatFunc) -> str:
    """The canonical string printed from the Fraction coefficients of
    ``a.num`` and ``a.den``."""
    num = polys.to_str(QQ, a.num, ring.variable)
    if len(a.D) == 1:
        return num
    return f"({num})/({polys.to_str(QQ, a.den, ring.variable)})"


int_polys = st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=4).map(
    lambda c: polys.normalize(ZZ, c)
)
monic_polys = st.lists(st.integers(-9, 9), max_size=3).map(lambda c: tuple(c) + (1,))
scales = st.builds(Fraction, st.integers(-50, 50).filter(bool), st.integers(1, 12))


@SETTINGS
@given(elements(), int_polys, monic_polys, scales)
def test_to_str_matches_the_fraction_printer(a, n, d, c):
    """Integer coefficients (q D[-1] = 1) print from ints, the others from
    Fractions; both give the string the Fractions alone give, with
    scales p/q and denominators D other than (1,), monic or not."""
    integral = QX.div(QX.from_integer_poly(n), QX.from_integer_poly(d))
    polynomial = QX.from_integer_poly(n)
    for value in (a, QX.mul(a, QX.from_fraction(c)), integral,
                  QX.mul(integral, QX.from_fraction(c)), polynomial,
                  QX.mul(polynomial, QX.from_fraction(c))):
        assert QX.to_str(value) == fraction_printer(QX, value)
    for value in (polynomial, QX.mul(polynomial, QX.from_fraction(c))):
        assert QT.to_str(value) == fraction_printer(QT, value)


def test_integer_coefficients_print_without_fractions():
    def refuse(self):
        raise AssertionError("a Fraction coefficient was built")

    a = QX.parse("(18*x^2 - 18*x + 9)/(x + 1)")
    b = QT.parse("18*t^2 - 18*t + 9")
    with mock.patch.object(RatFunc, "num", property(refuse)), \
            mock.patch.object(RatFunc, "den", property(refuse)):
        assert QX.to_str(a) == "(18*x^2 - 18*x + 9)/(x + 1)"
        assert QT.to_str(b) == "18*t^2 - 18*t + 9"
        assert QX.to_str(QX.zero) == "0"
