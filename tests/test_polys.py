"""Kronecker packing of Z[x], exact division over Z, the plain-int
branches that ``polys`` takes over ZZ, each against the generic path
over QQ, and GCDHEU's gcd in Z[x] against Euclid over QQ."""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katzcyclic import polys
from katzcyclic.errors import PreconditionError
from katzcyclic.fields import QQ, ZZ

widths = st.integers(min_value=2, max_value=80)


def digit_polys(k, low):
    """Z[x] polynomials with every coefficient in [low, 2^(k-1)), the
    extreme values drawn often."""
    top = (1 << (k - 1)) - 1
    coeff = st.one_of(
        st.sampled_from([top, -top, low, 0]),
        st.integers(min_value=low, max_value=top),
    )
    return st.lists(coeff, max_size=8).map(lambda cs: polys.normalize(ZZ, cs))


def symmetric_digit_polys(k):
    """Coefficients of absolute value at most 2^(k-1) - 1."""
    return digit_polys(k, 1 - (1 << (k - 1)))


@given(widths.flatmap(lambda k: st.tuples(st.just(k), digit_polys(k, -(1 << (k - 1))))))
def test_unpack_inverts_pack(case):
    """Exact on the whole balanced digit range [-2^(k-1), 2^(k-1))."""
    k, f = case
    assert polys.unpack(polys.pack(f, k), k) == f


@pytest.mark.parametrize("k", [2, 3, 8, 63, 64, 65, 200])
def test_extreme_digits_round_trip(k):
    top = (1 << (k - 1)) - 1
    for f in [(top,), (-top,), (top, -top), (-top, top, -top), (0, 0, top), (-top, 0, -top)]:
        f = polys.normalize(ZZ, f)
        assert polys.unpack(polys.pack(f, k), k) == f


def test_pack_is_evaluation_at_a_power_of_two():
    f = (3, -5, 0, 7)
    assert polys.pack(f, 4) == 3 - 5 * 16 + 7 * 16**3
    assert polys.pack((), 4) == 0 and polys.unpack(0, 4) == ()


@given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=3), st.data())
@settings(max_examples=50)
def test_bivariate_round_trip(k, d, data):
    """pack over X of packed Z[x] coefficients of x-degree <= d, with
    X -> 2^(k (d+1)), is undone by unpack applied twice when every
    coefficient is below 2^(k-1) in absolute value."""
    inner = symmetric_digit_polys(k).filter(lambda f: len(f) <= d + 1)
    f = polys.normalize(ZZ, data.draw(st.lists(inner, max_size=5)))  # () is zero
    K = k * (d + 1)
    v = polys.pack([polys.pack(c, k) for c in f], K)
    assert tuple(polys.unpack(w, k) for w in polys.unpack(v, K)) == f


def test_one_bit_digits_are_an_error():
    # -1 and 0 spell no positive number: unpack(1, 1) would never end
    with pytest.raises(PreconditionError):
        polys.unpack(1, 1)


def test_inexact_integer_division_is_a_typed_error():
    with pytest.raises(PreconditionError):
        polys.divmod_(ZZ, (1, 1), (2,))


def test_exact_integer_division_keeps_its_remainder():
    # each step divides by the monic divisor exactly; the remainder is 2
    assert polys.divmod_(ZZ, (1, 0, 1), (1, 1)) == ((-1, 1), (2,))
    assert polys.divmod_(ZZ, (2, 6, 4), (1, 2)) == ((2, 2), ())


# -- the ZZ branches against the generic path over QQ -----------------------

small = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(10 ** 9), 10 ** 9))
zx = st.lists(small, max_size=6).map(lambda cs: polys.normalize(ZZ, cs))


@st.composite
def zx_pairs(draw):
    """(f, g) in Z[x], g often -f or f with only its low coefficients
    changed, so that sums and differences lose their top terms."""
    f = draw(zx)
    low = draw(st.lists(small, max_size=len(f)))
    g = draw(st.sampled_from([
        draw(zx),
        polys.normalize(ZZ, low + [-c for c in f[len(low):]]),
        polys.normalize(ZZ, low + list(f[len(low):])),
    ]))
    return f, g


def qq(f):
    return tuple(Fraction(c) for c in f)


def assert_same(got, expected):
    """An int polynomial equal to the QQ result, with no trailing zero."""
    assert all(type(c) is int for c in got)
    assert got == expected and (not got or got[-1])


@given(zx_pairs())
@settings(max_examples=300)
def test_zz_add_sub_mul_match_qq(pair):
    f, g = pair
    for op in (polys.add, polys.sub, polys.mul):
        assert_same(op(ZZ, f, g), op(QQ, qq(f), qq(g)))


@given(zx_pairs(), small, st.lists(small, max_size=14))
def test_add_mul_accumulates_in_place(pair, c, acc):
    """acc += c f g on a list at least as long as the product, with the
    list's other entries left as they were."""
    f, g = pair
    acc += [0] * (len(f) + len(g) - 1 - len(acc))
    expected = polys.add(QQ, qq(acc), polys.scale(QQ, Fraction(c), polys.mul(QQ, qq(f), qq(g))))
    out = list(acc)
    polys.add_mul(out, c, f, g)
    assert len(out) == len(acc) and all(type(x) is int for x in out)
    assert polys.normalize(ZZ, out) == expected


@given(zx, small)
def test_zz_neg_derive_scale_match_qq(f, c):
    assert_same(polys.neg(ZZ, f), polys.neg(QQ, qq(f)))
    assert_same(polys.derive(ZZ, f), polys.derive(QQ, qq(f)))
    for k in (c, 0, 1, -1):
        assert_same(polys.scale(ZZ, k, f), polys.scale(QQ, Fraction(k), qq(f)))


def test_zz_branches_on_zero_and_cancelling_tops():
    f = (1, -2, 5)
    assert polys.add(ZZ, f, (4, 2, -5)) == (5,)
    assert polys.sub(ZZ, f, (0, -2, 5)) == (1,)
    assert polys.add(ZZ, f, polys.neg(ZZ, f)) == () == polys.sub(ZZ, f, f)
    assert polys.mul(ZZ, f, ()) == () == polys.scale(ZZ, 0, f)
    assert polys.derive(ZZ, (7,)) == () == polys.derive(ZZ, ())


@st.composite
def zx_divisions(draw):
    """(f, g), g nonzero, where f = q g + r is often an exact division."""
    g = draw(zx.filter(bool))
    q = draw(zx)
    r = draw(st.lists(small, max_size=max(0, len(g) - 1)))
    f = draw(st.sampled_from([
        draw(zx),
        polys.mul(ZZ, q, g),
        polys.add(ZZ, polys.mul(ZZ, q, g), polys.normalize(ZZ, r)),
    ]))
    return f, g


@given(zx_divisions())
@settings(max_examples=300)
def test_zz_divmod_matches_qq_or_raises(case):
    """PreconditionError exactly when the QQ quotient is not integral."""
    f, g = case
    q, r = polys.divmod_(QQ, qq(f), qq(g))
    if all(c.denominator == 1 for c in q):
        got_q, got_r = polys.divmod_(ZZ, f, g)
        assert_same(got_q, q)
        assert_same(got_r, r)
    else:
        with pytest.raises(PreconditionError):
            polys.divmod_(ZZ, f, g)


# -- gcd in Z[x] ---------------------------------------------------------------

def euclid_gcd(f, g):
    """The primitive gcd with a positive leading coefficient, by Euclid's
    algorithm over QQ: shares no code with GCDHEU."""
    a = tuple(Fraction(c) for c in f)
    b = tuple(Fraction(c) for c in g)
    while b:
        a, b = b, polys.divmod_(QQ, a, b)[1]
    if not a:
        return ()
    den = 1
    for c in a:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return polys.primitive(tuple(int(c * den) for c in a))[1]


small_zx = st.lists(st.integers(min_value=-9, max_value=9), max_size=6).map(
    lambda cs: polys.normalize(ZZ, cs)
)


@given(small_zx, small_zx, small_zx)
@settings(max_examples=200)
def test_gcd_against_euclid(f, g, common):
    """gcd(f c, g c) is the primitive gcd, and its cofactors multiply back."""
    f, g = polys.mul(ZZ, f, common), polys.mul(ZZ, g, common)
    h, cf, cg = polys.gcd(ZZ, f, g)
    assert h == euclid_gcd(f, g)
    if f or g:
        assert polys.mul(ZZ, h, cf) == f and polys.mul(ZZ, h, cg) == g


@pytest.mark.parametrize("f, g, first", [
    ((1, 2, 3), (2, 2, -1, -3), (-7, 1)),
    ((2, -2, -1, 1), (2, -2, 3, 2), (-6, 1)),
    ((-3, -3, -3, -3, -2), (-1, -2, 2), (-1, -2, 2)),
])
def test_gcd_refuses_a_first_candidate_that_does_not_divide(f, g, first):
    """Coprime pairs whose gcd at the first width 2^k, read as balanced
    digits, spells a polynomial that divides neither: only the check by
    division tells that it is not the gcd."""
    (_, a), (_, b) = polys.primitive(f), polys.primitive(g)
    k = max(map(abs, (*a, *b))).bit_length() + 2
    digits = polys.unpack(math.gcd(polys.pack(a, k), polys.pack(b, k)), k)
    assert polys.primitive(digits)[1] == first
    assert polys.gcd(ZZ, f, g) == ((1,), f, g)


@given(small_zx, small_zx)
@settings(max_examples=200)
def test_coprime_pairs_return_themselves_as_cofactors(f, g):
    """A gcd of 1 has f and g themselves as cofactors, with no division."""
    h, cf, cg = polys.gcd(ZZ, f, g)
    if h == (1,):
        assert cf == f and cg == g


def test_candidate_one_takes_no_division():
    with mock.patch.object(polys, "divmod_", side_effect=AssertionError("division")):
        assert polys.gcd(ZZ, (1, 1), (-1, 1)) == ((1,), (1, 1), (-1, 1))
