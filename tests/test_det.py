"""``linalg.det`` with shared minors, and P(X) over Q(x) and Q[t]
(``xdet``), each against a reference that shares no code with it: a
plain cofactor expansion kept here, and the elimination over ring[X].

``xdet`` packs x into integers and evaluates X at e + 1 small points,
so the shapes it depends on are tested here: the X-degree of each row,
whose sum e sets the number of points (down to e = 0, all entries
constant in X), rank 1 to 5, zero rows, a digit width at its bound, and
the exactness of the interpolation table for every e up to
MAX_RANK (MAX_RANK - 1).  The rescaled Q(x) and Q[t] rings take their
base's ``xdet``.
"""

import functools
import operator
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from katzcyclic import (
    GaussPolynomialRing,
    RationalFunctionField,
    ScaledDerivationRing,
    linalg,
    rings,
    xpoly,
)
from katzcyclic.cli import MAX_RANK
from katzcyclic.fields import QQ, ZZ, FiniteField
from katzcyclic.xpoly import XPolyRing

from _genericring import CountingRing
from _helpers import random_qx_poly, random_ratfunc, seeded


def cofactor_det(ring, a):
    """The plain expansion along the first column, every minor computed
    anew at each use."""
    n = len(a)
    if n == 1:
        return a[0][0]
    acc = ring.zero
    for i in range(n):
        if ring.is_zero(a[i][0]):
            continue
        minor = tuple(a[k][1:] for k in range(n) if k != i)
        cof = ring.mul(a[i][0], cofactor_det(ring, minor))
        acc = ring.add(acc, cof) if i % 2 == 0 else ring.sub(acc, cof)
    return acc


def matrices(n, elements):
    return st.lists(
        st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(linalg.freeze)


small_ints = st.integers(min_value=-5, max_value=5)
GF25 = FiniteField(5, 2)
ELEMENTS = {
    "ZZ": (ZZ, st.one_of(st.just(0), st.integers(min_value=-(10**6), max_value=10**6))),
    "QQ": (QQ, st.builds(Fraction, small_ints, st.integers(min_value=1, max_value=7))),
    "F25": (GF25, st.tuples(st.integers(0, 4), st.integers(0, 4))),
}


@pytest.mark.parametrize("name", sorted(ELEMENTS))
@given(data=st.data(), n=st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_det_matches_cofactor_expansion(name, data, n):
    ring, elements = ELEMENTS[name]
    a = data.draw(matrices(n, elements))
    assert linalg.det(ring, a) == cofactor_det(ring, a)


@pytest.mark.parametrize("n", range(1, 7))
def test_det_matches_cofactor_expansion_over_qx(n):
    qx = RationalFunctionField()
    rng = seeded(600 + n)
    for _ in range(2):
        a = linalg.freeze(
            [
                [
                    rng.choice(
                        [qx.zero, random_qx_poly(qx, rng, 2), random_ratfunc(qx, rng, 1)]
                    )
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
        )
        assert linalg.det(qx, a) == cofactor_det(qx, a)


@pytest.mark.parametrize("n", range(1, 9))
def test_det_takes_one_product_per_minor_entry(n):
    """n 2^(n-1) - n products on a dense matrix: each minor of size m >= 2
    costs m, and there are C(n, m) of them."""
    ring = CountingRing(ZZ)
    a = linalg.freeze([[i * n + j + 1 for j in range(n)] for i in range(n)])
    d = linalg.det(ring, a)
    assert ring.products == n * 2 ** (n - 1) - n
    assert d == cofactor_det(ZZ, a)


@pytest.mark.parametrize("n", range(2, 7))
def test_solve_left_reads_one_table(n):
    """(n+1)(2^n - 2) + n products on a dense system: every minor of size
    m >= 2 of the n + 1 rows [a; b], each once, then n products by 1/det a,
    and no call of ``det``."""
    ring = CountingRing(QQ)
    a = linalg.freeze([[Fraction((i + 2) ** j) for j in range(n)] for i in range(n)])
    b = tuple(Fraction(j + 1, 2) for j in range(n))
    with mock.patch.object(linalg, "det", side_effect=AssertionError("det called")):
        x = linalg.solve_left(ring, a, b)
    assert ring.products == (n + 1) * (2 ** n - 2) + n
    assert tuple(sum(x[i] * a[i][j] for i in range(n)) for j in range(n)) == b


@pytest.mark.parametrize("n", range(2, 7))
def test_solve_left_from_det_table_takes_only_the_minors_with_b(n):
    """Seeded with the table ``det`` filled for a, ``solve_left`` takes
    the unseeded count less det's n 2^(n-1) - n products (18, not 27, at
    n = 3), leaves the seed as it was, and solves alike."""
    a = linalg.freeze([[Fraction((i + 2) ** j) for j in range(n)] for i in range(n)])
    b = tuple(Fraction(j + 1, 2) for j in range(n))
    table = {}
    d = linalg.det(QQ, a, table)
    seed = dict(table)
    assert table[(1 << n) - 1] == d
    ring = CountingRing(QQ)
    x = linalg.solve_left(ring, a, b, table)
    assert ring.products == (n + 1) * (2 ** n - 2) + n - (n * 2 ** (n - 1) - n)
    assert n != 3 or ring.products == 18
    assert table == seed
    assert x == linalg.solve_left(QQ, a, b)


def test_det_fills_the_table_it_is_given():
    """Every minor on the trailing columns of two or more rows, by the
    bitmask of its rows, each the determinant of those rows."""
    a = linalg.freeze([[2, 1, 1], [4, 3, 1], [1, 7, 5]])
    table = {}
    assert linalg.det(ZZ, a, table) == cofactor_det(ZZ, a)
    assert sorted(table) == [0b011, 0b101, 0b110, 0b111]
    for mask, value in table.items():
        rows = tuple(a[i][3 - bin(mask).count("1"):] for i in range(3) if mask >> i & 1)
        assert value == cofactor_det(ZZ, rows)


def test_det_skips_zero_entries():
    ring = CountingRing(ZZ)
    a = linalg.freeze([[2, 1, 1], [0, 3, 1], [0, 0, 5]])
    assert linalg.det(ring, a) == 30
    assert ring.products == 2


# -- P(X) as one integer determinant ----------------------------------------

QX = RationalFunctionField()


def qx_entry(rng, x_deg):
    """A Q(x) coefficient with a fractional scale and, half the time, a
    nonconstant denominator."""
    if rng.random() < 0.5:
        a = random_ratfunc(QX, rng, x_deg)
    else:
        a = random_qx_poly(QX, rng, x_deg)
    return QX.mul(a, QX.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 12))))


def gauss_entry(ring, rng, x_deg):
    a = random_qx_poly(ring, rng, x_deg, coeff_range=20)
    return ring.mul(a, ring.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 12))))


def xmatrix(ring, entry, rng, n, x_deg, X_degs, zero_rows=()):
    """An n x n matrix over ring[X] whose row i has X-degree <= X_degs[i]."""
    rows = []
    for i in range(n):
        row = []
        for _ in range(n):
            f = [ring.zero] * (X_degs[i] + 1) if i in zero_rows else [
                entry(rng, x_deg) if rng.random() < 0.8 else ring.zero
                for _ in range(X_degs[i] + 1)
            ]
            row.append(xpoly.normalize(ring, f))
        rows.append(row)
    return linalg.freeze(rows)


def check_xdet(ring, h):
    expected = linalg.det(XPolyRing(ring), h)
    got = ring.xdet(h)
    assert got == expected
    assert xpoly.normalize(ring, got) == got


GAUSS3, GAUSS2 = GaussPolynomialRing(3, 1), GaussPolynomialRing(2, 0)
QX_SCALED = ScaledDerivationRing(QX, QX.parse("2*x^2 + 1"))
GAUSS3_SCALED = ScaledDerivationRing(GAUSS3, GAUSS3.from_int(3))
RINGS = {
    "qx": (QX, qx_entry),
    "gauss3": (GAUSS3, functools.partial(gauss_entry, GAUSS3)),
    "gauss2": (GAUSS2, functools.partial(gauss_entry, GAUSS2)),
    "qx-scaled": (QX_SCALED, qx_entry),
    "gauss3-scaled": (GAUSS3_SCALED, functools.partial(gauss_entry, GAUSS3)),
}


@pytest.mark.parametrize("name", sorted(RINGS))
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    n=st.integers(min_value=1, max_value=5),
    x_deg=st.integers(min_value=0, max_value=2),
    X_degs=st.lists(st.integers(min_value=0, max_value=2), min_size=5, max_size=5),
)
@example(seed=1, n=4, x_deg=2, X_degs=[0] * 5)
@example(seed=2, n=1, x_deg=2, X_degs=[2] * 5)
@example(seed=3, n=5, x_deg=1, X_degs=[2, 0, 1, 0, 2])
@settings(max_examples=40, deadline=None)
def test_xdet_matches_det_over_ring_x(name, seed, n, x_deg, X_degs):
    """Rows of unequal X-degree, so that e, the sum of the rows'
    degrees, is below n times the largest; e = 0 and n = 1 are examples."""
    ring, entry = RINGS[name]
    rng = seeded(seed)
    zero_rows = (rng.randrange(n),) if rng.random() < 0.15 else ()
    h = xmatrix(ring, entry, rng, n, x_deg, X_degs, zero_rows)
    check_xdet(ring, h)


@pytest.mark.parametrize("name", ["qx-scaled", "gauss3-scaled"])
def test_rescaled_rings_take_their_bases_xdet(name):
    ring, entry = RINGS[name]
    h = xmatrix(ring, entry, seeded(41), 3, 1, [1, 2, 1])
    with mock.patch.object(ring.base, "xdet", return_value="base") as base_xdet:
        assert ring.xdet(h) == "base"
    base_xdet.assert_called_once_with(h)


@pytest.mark.parametrize("e", range(MAX_RANK * (MAX_RANK - 1) + 1))
def test_interpolation_table_is_exact(e):
    """sum_t W[l][t] x_t^j = L delta_lj for 0 <= l, j <= e: the table
    inverts the Vandermonde matrix of the e + 1 points, times L."""
    values, weights, lcm = rings._interpolation(e)
    points = values.points
    assert len(set(points)) == e + 1 and points[:3] == (0, 1, -1)[:e + 1]
    for j in range(e + 1):
        column = [x ** j for x in points]
        assert [sum(map(operator.mul, w, column)) for w in weights] == [
            lcm if l == j else 0 for l in range(e + 1)
        ]


@pytest.mark.parametrize("name", sorted(RINGS))
def test_xdet_of_a_zero_row_is_zero(name):
    ring, _ = RINGS[name]
    one = xpoly.const(ring, ring.one)
    h = linalg.freeze([[one, one], [(), ()]])
    assert ring.xdet(h) == ()
    check_xdet(ring, h)


@pytest.mark.parametrize("name", sorted(RINGS))
@given(
    coeffs=st.lists(
        st.integers(min_value=-(2**70), max_value=2**70).filter(bool), min_size=1, max_size=5
    ),
    degs=st.lists(st.integers(min_value=0, max_value=3), min_size=10, max_size=10),
)
@settings(max_examples=40, deadline=None)
def test_xdet_where_the_bound_is_tight(name, coeffs, degs):
    """Diagonal monomial entries c_i x^a X^b: the determinant's one
    coefficient is the bound prod_i |c_i| itself, so a digit width one
    bit short misreads it."""
    ring, _ = RINGS[name]
    n = len(coeffs)
    x = ring.var_element
    h = []
    for i in range(n):
        a, b = degs[2 * i], degs[2 * i + 1]
        mono = ring.mul(ring.from_int(coeffs[i]), ring.pow(x, a))
        row = [()] * n
        row[i] = (ring.zero,) * b + (mono,)
        h.append(row)
    check_xdet(ring, linalg.freeze(h))


@pytest.mark.parametrize("name", sorted(RINGS))
def test_xdet_of_all_negative_entries(name):
    ring, _ = RINGS[name]
    rng = seeded(77)
    for n in (1, 2, 3):
        h = linalg.freeze(
            [
                [
                    tuple(
                        ring.mul(ring.from_int(-rng.randint(1, 30)), ring.pow(ring.var_element, k))
                        for k in rng.choices(range(3), k=rng.randint(1, 3))
                    )
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
        )
        check_xdet(ring, h)
