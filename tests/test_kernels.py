"""The shortcuts of the Q(x) and Q[t] arithmetic and of ``polys.mul``,
each against the general path it stands for, written out here, and
against sympy (``cancel``, or products of sympy polynomials):

* ``mul`` by a rational constant, on either side, which only rescales
  the other factor, its scales cross-cancelled;
* ``add`` of two elements over the same denominator D, which sums
  ma N_a + mb N_b in one pass, with D = (1,) and D != (1,), including
  sums that cancel to zero and sums whose top coefficients cancel;
* ``polys.mul`` with a factor of length 1, which only scales the other,
  over ZZ, F_p, F_{p^e} and Q(x) coefficients.

sympy is an oracle here only; the package never imports it.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from katzcyclic import polys, rings
from katzcyclic.fields import ZZ, FiniteField
from katzcyclic.rings import GaussPolynomialRing, RationalFunctionField, RatFunc

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
G = sympy.Symbol("g")
QX = RationalFunctionField()
QT = GaussPolynomialRing(3, 1)
SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# scales built from small primes, so that cross-cancelling has work to do
smooth = st.lists(st.sampled_from([2, 3, 5, 7]), max_size=3).map(math.prod)
signs = st.sampled_from([1, -1])
scales = st.builds(lambda s, p, q: Fraction(s * p, q), signs, smooth, smooth)
int_polys = st.lists(st.integers(-20, 20), min_size=1, max_size=4).map(
    lambda c: polys.normalize(ZZ, c)
).filter(bool)


def schoolbook(K, f, g):
    """f g by the double loop over K's ``add`` and ``mul``, with no shortcut."""
    if not f or not g:
        return ()
    out = [K.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = K.add(out[i + j], K.mul(a, b))
    return polys.normalize(K, out)


def expr_of(a: RatFunc):
    num = sum(n * X**i for i, n in enumerate(a.N))
    den = sum(d * X**i for i, d in enumerate(a.D))
    return sympy.Rational(a.p, a.q) * num / den


def canonical(expr) -> RatFunc:
    """The element of Q(x) equal to ``expr``, reduced by sympy."""
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    num = sympy.Poly(num, X, domain=sympy.QQ).all_coeffs()[::-1]
    den = sympy.Poly(den, X, domain=sympy.QQ).all_coeffs()[::-1]
    to_q = lambda c: Fraction(int(c.p), int(c.q))  # noqa: E731
    return RatFunc([to_q(c) for c in num], [to_q(c) for c in den])


def element(scale: Fraction, N, D) -> RatFunc:
    """(scale) N/D in canonical form, reduced by sympy."""
    return canonical(expr_of(rings._ratfunc(scale.numerator, scale.denominator, N, D)))


def general_mul(a: RatFunc, b: RatFunc) -> RatFunc:
    """a b as one canonical form of the uncancelled product."""
    return rings._canonical(
        a.p * b.p, a.q * b.q, schoolbook(ZZ, a.N, b.N), schoolbook(ZZ, a.D, b.D)
    )


def general_add(a: RatFunc, b: RatFunc) -> RatFunc:
    """a + b as one canonical form over q_a q_b D_a D_b."""
    left = [a.p * b.q * c for c in schoolbook(ZZ, a.N, b.D)]
    right = [b.p * a.q * c for c in schoolbook(ZZ, b.N, a.D)]
    width = max(len(left), len(right))
    num = [(left[i] if i < len(left) else 0) + (right[i] if i < len(right) else 0)
           for i in range(width)]
    return rings._canonical(1, a.q * b.q, polys.normalize(ZZ, num), schoolbook(ZZ, a.D, b.D))


denominators = {"qt": st.just((1,)), "qx": int_polys.filter(lambda f: len(f) > 1)}
RINGS = {"qt": QT, "qx": QX}


@pytest.mark.parametrize("name", sorted(RINGS))
@given(data=st.data(), c=scales, s=scales, N=int_polys)
@SETTINGS
def test_mul_by_a_rational_constant(name, data, c, s, N):
    """c a and a c for a rational constant c: the other factor's N and D
    are kept, and the scales come out cross-cancelled, so that a scale
    left as (c_p s_p)/(c_q s_q) shows against the canonical form."""
    check_constant_product(RINGS[name], c, element(s, N, data.draw(denominators[name])))


@pytest.mark.parametrize("name", sorted(RINGS))
@pytest.mark.parametrize(
    "c, s", [(Fraction(2, 3), Fraction(3, 2)), (Fraction(-3, 10), Fraction(5, 6))]
)
def test_constant_scales_cross_cancel(name, c, s):
    """2/3 times 3/2 x/D is x/D, and -3/10 times 5/6 x/D is -1/4 x/D."""
    D = (1,) if name == "qt" else (1, 1)
    check_constant_product(RINGS[name], c, element(s, (0, 1), D))


def check_constant_product(ring, c, a):
    const = ring.from_fraction(c)
    expected = canonical(expr_of(const) * expr_of(a))
    for got in (ring.mul(const, a), ring.mul(a, const)):
        assert got.N == a.N and got.D == a.D
        assert got == general_mul(const, a) == expected


@st.composite
def same_denominator_pairs(draw, name):
    """(a, b) over one D: b is independent of a, or -a (the sum is zero),
    or -a plus a term of lower degree over D (the top coefficients cancel)."""
    D = draw(denominators[name])
    a = element(draw(scales), draw(int_polys), D)
    mode = draw(st.sampled_from(["free", "negated", "top cancels"]))
    if mode == "free":
        b = element(draw(scales), draw(int_polys), D)
    else:
        b = rings._ratfunc(-a.p, a.q, a.N, a.D)
        if mode == "top cancels" and len(a.N) > 1:
            tail = draw(int_polys.filter(lambda f: len(f) < len(a.N)))
            b = canonical(expr_of(b) + expr_of(element(draw(scales), tail, D)))
    assume(a.D == b.D)
    return a, b


@pytest.mark.parametrize("name", sorted(RINGS))
@given(data=st.data())
@SETTINGS
def test_add_over_a_shared_denominator(name, data):
    ring = RINGS[name]
    a, b = data.draw(same_denominator_pairs(name))
    got = ring.add(a, b)
    assert got == general_add(a, b)
    assert got == canonical(expr_of(a) + expr_of(b))
    assert ring.add(b, a) == got


def test_add_over_a_shared_denominator_weighs_each_numerator_by_the_other_scale():
    """1/2 x/(x+1) + 1/3 x^2/(x+1) = (3x + 2x^2)/(6(x+1)): each numerator
    takes the other's q, so that swapped weights show."""
    for ring, D in ((QX, (1, 1)), (QT, (1,))):
        a = rings._ratfunc(1, 2, (0, 1), D)
        b = rings._ratfunc(1, 3, (0, 0, 1), D)
        assert ring.add(a, b) == rings._ratfunc(1, 6, (0, 3, 2), D)


def f_pe_to_sympy(K, c):
    return sympy.Poly(list(reversed(c)), G, modulus=K.p, symmetric=False)


def check_scaled_product(K, c, f, oracle):
    """polys.mul with the factor (c,) on either side, against the
    schoolbook loop and, coefficient by coefficient, ``oracle(c, f_i)``."""
    expected = schoolbook(K, (c,), f)
    assert polys.mul(K, (c,), f) == expected
    assert polys.mul(K, f, (c,)) == expected
    assert expected == polys.normalize(K, [oracle(c, a) for a in f])


@given(c=st.integers(-(10**12), 10**12).filter(bool), f=int_polys)
@SETTINGS
def test_length_one_factor_over_zz(c, f):
    check_scaled_product(ZZ, c, f, lambda c, a: c * a)
    product = sympy.Poly(c, X, domain=sympy.ZZ) * sympy.Poly(f[::-1], X, domain=sympy.ZZ)
    assert polys.mul(ZZ, (c,), f) == tuple(int(v) for v in product.all_coeffs()[::-1])


@pytest.mark.parametrize("p, e", [(5, 1), (3, 2), (2, 3)])
@given(data=st.data())
@SETTINGS
def test_length_one_factor_over_finite_fields(p, e, data):
    """Over F_p and F_{p^e}: the oracle multiplies in GF(p)[g] modulo the
    field's modulus with sympy."""
    K = FiniteField(p, e)
    elems = st.tuples(*[st.integers(0, p - 1)] * e)
    c = data.draw(elems.filter(lambda a: any(a)))
    f = polys.normalize(K, data.draw(st.lists(elems, min_size=1, max_size=4)))
    assume(f)
    # F_p is F_p[g]/(g), its elements the constants
    modulus = sympy.Poly(list(reversed(K.modulus or (0, 1))), G, modulus=p, symmetric=False)

    def oracle(c, a):
        r = (f_pe_to_sympy(K, c) * f_pe_to_sympy(K, a)).rem(modulus)
        coeffs = [int(v) % p for v in r.all_coeffs()[::-1]]
        return tuple(coeffs + [0] * (e - len(coeffs)))

    check_scaled_product(K, c, f, oracle)


@given(data=st.data(), c=scales, s=scales, N=int_polys, D=denominators["qx"])
@SETTINGS
def test_length_one_factor_over_rational_functions(data, c, s, N, D):
    """Over Q(x), as in the products of ring[X]: the constant factor is a
    rational constant or an element with a denominator."""
    if data.draw(st.booleans()):
        factor = QX.from_fraction(c)
    else:
        factor = element(c, data.draw(int_polys), data.draw(denominators["qx"]))
    f = tuple(element(s, N, D) if data.draw(st.booleans()) else QX.from_fraction(c)
              for _ in range(data.draw(st.integers(1, 3))))
    check_scaled_product(QX, factor, f, lambda c, a: canonical(expr_of(c) * expr_of(a)))
