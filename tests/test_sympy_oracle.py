"""Differential tests of Z[x] gcd, Q(x) arithmetic, the iterates G_s and
primality against sympy.

sympy is an oracle here only; the package never imports it.  Inputs are
built on the sympy side (``sympy.cancel``) and handed to the package as
raw coefficient tuples, so the expected values share no code with
``polys.gcd`` or ``RationalFunctionField``.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from katzcyclic import DifferentialModule, iterated_matrices, linalg, polys
from katzcyclic.fields import QQ, ZZ, is_prime
from katzcyclic.rings import RationalFunctionField, RatFunc

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
QX = RationalFunctionField()
SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

small_fractions = st.builds(
    Fraction, st.integers(-40, 40), st.integers(1, 9)
)
# Coefficient lists, lowest degree first, possibly zero or constant.
coeff_lists = st.lists(small_fractions, min_size=0, max_size=5)


def polys_of_degree(low):
    """Polynomials over Q of degree low..4, with a nonzero top coefficient."""
    top = st.builds(Fraction, st.integers(1, 40) | st.integers(-40, -1), st.integers(1, 9))
    lower = st.lists(small_fractions, min_size=low, max_size=4)
    return st.builds(lambda c, t: tuple(c) + (t,), lower, top)


def to_poly(coeffs):
    return polys.normalize(QQ, coeffs)


def to_sympy(f):
    return sympy.Poly(list(reversed(f)) or [0], X, domain=sympy.QQ)


def to_sympy_z(f):
    return sympy.Poly(list(reversed(f)) or [0], X, domain=sympy.ZZ)


def primitive_from_sympy(p):
    """The primitive part of a sympy Poly over ZZ, with positive lead."""
    part = p.primitive()[1]
    if part.LC() < 0:
        part = -part
    return polys.normalize(ZZ, [int(c) for c in reversed(part.all_coeffs())])


def from_sympy(p):
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]
    return polys.normalize(QQ, coeffs)


def expr_of(a: RatFunc):
    return to_sympy(a.num).as_expr() / to_sympy(a.den).as_expr()


def canonical(expr):
    """The reduced form of ``expr`` with a monic denominator, by sympy."""
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    num, den = sympy.Poly(num, X, domain=sympy.QQ), sympy.Poly(den, X, domain=sympy.QQ)
    lead = den.LC()
    return RatFunc(from_sympy(num.quo_ground(lead)), from_sympy(den.quo_ground(lead)))


@st.composite
def ratfuncs(draw, nonzero=False):
    num = to_poly(draw(coeff_lists))
    den = to_poly(draw(coeff_lists))
    assume(den and (num or not nonzero))
    if not num:
        return QX.zero
    return canonical(to_sympy(num).as_expr() / to_sympy(den).as_expr())


def assert_canonical(a: RatFunc):
    assert a.den and a.den[-1] == 1
    assert all(type(c) is Fraction for c in a.num + a.den)
    if not a.num:
        assert a.den == (Fraction(1),)
    else:
        assert to_sympy(a.num).gcd(to_sympy(a.den)).degree() == 0


@SETTINGS
@given(coeff_lists, coeff_lists, coeff_lists, st.integers(1, 10 ** 30))
def test_gcd_of_multiples_matches_sympy(f, g, h, content):
    f, g, h = to_poly(f), to_poly(g), to_poly(h)
    fh = polys.clear_denominators(polys.scale(QQ, Fraction(content), polys.mul(QQ, f, h)))[1]
    gh = polys.clear_denominators(polys.mul(QQ, g, h))[1]
    expected = to_sympy_z(fh).gcd(to_sympy_z(gh))
    h, cf, cg = polys.gcd(ZZ, fh, gh)
    assert h == primitive_from_sympy(expected)
    assert polys.mul(ZZ, h, cf) == fh and polys.mul(ZZ, h, cg) == gh


@pytest.mark.parametrize(
    "f, g",
    [
        ((), ()),
        ((Fraction(3),), (Fraction(1), Fraction(2))),
        ((Fraction(0), Fraction(5, 7)), (Fraction(-2),)),
        ((Fraction(-4), Fraction(0), Fraction(6)),) * 2,
        ((), (Fraction(2), Fraction(4, 3))),
        ((Fraction(10 ** 40), Fraction(10 ** 40)), (Fraction(-1), Fraction(0), Fraction(1))),
        # 2(2x+1)(7x^3-3x^2-5) and (5x^2-3x+4)(7x^3-3x^2-5): at the first
        # packing width, k = 8, the candidate x^4 - 67x^3 - 81x^2 - x + 121
        # divides neither input, so the gcd is found only after doubling k
        ((-10, -20, -6, 2, 28), (-20, 15, -37, 37, -36, 35)),
    ],
    ids=["zeros", "constant", "constant-second", "equal", "zero-first", "large-content",
         "retry"],
)
def test_gcd_edge_cases_match_sympy(f, g):
    f, g = polys.clear_denominators(f)[1], polys.clear_denominators(g)[1]
    got, cf, cg = polys.gcd(ZZ, f, g)
    expected = () if not (f or g) else primitive_from_sympy(to_sympy_z(f).gcd(to_sympy_z(g)))
    assert got == expected
    assert polys.mul(ZZ, got, cf) == f and polys.mul(ZZ, got, cg) == g


@SETTINGS
@given(ratfuncs(), ratfuncs())
def test_add_and_mul_match_sympy_cancel(a, b):
    for got, expr in ((QX.add(a, b), expr_of(a) + expr_of(b)),
                      (QX.mul(a, b), expr_of(a) * expr_of(b)),
                      (QX.add(a, a), 2 * expr_of(a))):
        assert_canonical(got)
        assert got == canonical(expr)


@SETTINGS
@given(st.sampled_from(["coprime", "shared", "cancelling"]), polys_of_degree(1),
       polys_of_degree(0), polys_of_degree(0), polys_of_degree(0), polys_of_degree(0))
def test_distinct_denominator_add_matches_sympy_cancel(kind, g, e1, e2, n1, n2):
    # a = n1/(g e1), and b is n2/e2 with e1, e2 coprime and g = 1
    # ("coprime"), n2/(g e2) with g nonconstant ("shared"), or n2/(e1 e2) - a
    # ("cancelling"), whose sum with a cancels the factor g of both
    # denominators
    if kind == "coprime":
        g = (Fraction(1),)
        assume(to_sympy(e1).gcd(to_sympy(e2)).degree() == 0)
    g_, e1_, e2_, n1_, n2_ = (to_sympy(f).as_expr() for f in (g, e1, e2, n1, n2))
    a = canonical(n1_ / (g_ * e1_))
    b = canonical(n2_ / (e1_ * e2_) - expr_of(a) if kind == "cancelling" else n2_ / (g_ * e2_))
    assume(a.D != b.D)
    got = QX.add(a, b)
    assert_canonical(got)
    assert got == canonical(expr_of(a) + expr_of(b))


@SETTINGS
@given(coeff_lists, coeff_lists, coeff_lists, coeff_lists)
def test_shared_denominator_add_matches_sympy_cancel(g, e, f, n1):
    # a = n1/(g e) and b = (f g - n1)/(g e), so the sum f/e cancels g.
    g, e, f, n1 = to_poly(g), to_poly(e), to_poly(f), to_poly(n1)
    assume(g and e and n1)
    den = to_sympy(polys.mul(QQ, g, e)).monic()
    n2 = to_sympy(polys.mul(QQ, f, g)) - to_sympy(n1)
    assume(den.degree() > 0 and not n2.is_zero)
    assume(den.gcd(to_sympy(n1)).degree() == 0 and den.gcd(n2).degree() == 0)
    a = RatFunc(n1, from_sympy(den))
    b = RatFunc(from_sympy(n2), from_sympy(den))
    got = QX.add(a, b)
    assert_canonical(got)
    assert got == canonical(expr_of(a) + expr_of(b))
    assert QX.add(a, QX.neg(a)) == QX.zero


@SETTINGS
@given(ratfuncs(nonzero=True))
def test_inv_and_derive_match_sympy_cancel(a):
    inv = QX.inv(a)
    assert_canonical(inv)
    assert inv == canonical(1 / expr_of(a))
    d = QX.derive(a)
    assert_canonical(d)
    assert d == canonical(sympy.diff(expr_of(a), X))


# sympy's field Q(x), whose elements are kept cancelled.  Pole factors:
# x + 1 and (x + 1)^2 share a pole, the others are coprime to it.
FX, FX_X = sympy.polys.fields.field("x", sympy.QQ)
POLES = [FX_X + 1, (FX_X + 1) ** 2, FX_X - 2, 2 * FX_X + 3, FX_X ** 2 + 1]


def from_frac(f):
    """The package's element for an element of sympy's field Q(x)."""
    num, den = (sympy.Poly(g.as_expr(), X, domain=sympy.QQ) for g in (f.numer, f.denom))
    lead = den.LC()
    return RatFunc(from_sympy(num.quo_ground(lead)), from_sympy(den.quo_ground(lead)))


@st.composite
def connection_entries(draw, polynomial):
    """Zero, a polynomial of degree <= 2 with a fractional scale, or (unless
    ``polynomial``) such a polynomial over one or two pole factors."""
    kind = draw(st.sampled_from(["zero", "poly"] + ([] if polynomial else ["pole"] * 2)))
    if kind == "zero":
        return FX(0)
    scale = FX(sympy.Rational(draw(st.integers(-5, 5).filter(bool)), draw(st.integers(1, 4))))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
    num = scale * sum((c * FX_X ** i for i, c in enumerate(coeffs)), FX(0))
    if kind == "poly":
        return num
    for pole in draw(st.lists(st.sampled_from(POLES), min_size=1, max_size=2)):
        num /= pole
    return num


@st.composite
def connections(draw):
    n = draw(st.integers(2, 3))
    polynomial = draw(st.booleans())
    return [[draw(connection_entries(polynomial)) for _ in range(n)] for _ in range(n)]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(connections())
def test_iterated_matrices_match_sympy(g1):
    """G_{s+1} = d(G_s) + G_s G_1 run in sympy's Q(x), for s up to 2n - 2,
    against both routes of ``iterated_matrices`` (integer iterates for a
    polynomial G_1, the nabla loop otherwise), compared as canonical
    strings."""
    n = len(g1)
    s_max = 2 * n - 2
    rows = linalg.freeze([[from_frac(f) for f in row] for row in g1])
    got = iterated_matrices(DifferentialModule(ring=QX, n=n, g1=rows), s_max)
    g = [[FX(int(i == j)) for j in range(n)] for i in range(n)]
    for s in range(s_max + 1):
        assert [[QX.to_str(a) for a in row] for row in got[s]] == [
            [QX.to_str(from_frac(f)) for f in row] for row in g
        ], s
        g = [[g[i][j].diff(FX_X) + sum((g[i][l] * g1[l][j] for l in range(n)), FX(0))
              for j in range(n)] for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(0, 10 ** 6), st.integers(0, 2 ** 64)))
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)
