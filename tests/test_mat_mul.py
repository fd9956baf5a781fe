"""Matrix products over Q(x) and Q[t] as one Kronecker-packed product of
integer matrices (``rings`` ``mat_mul``), against the entry-wise sum of
``ring.mul`` products kept here, which shares no code with it."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from katzcyclic import linalg, polys
from katzcyclic.rings import (
    FiniteFieldPolyRing,
    GaussPolynomialRing,
    RationalFunctionField,
    RatFunc,
    Ring,
    ScaledDerivationRing,
)
from katzcyclic.xpoly import XPolyRing

QX = RationalFunctionField()
QT = GaussPolynomialRing(3, 1)
SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

coeffs = st.builds(Fraction, st.integers(-(10**9), 10**9), st.integers(1, 12))
polynomials = st.lists(coeffs, min_size=0, max_size=4)


@st.composite
def qx_elements(draw):
    """Zero a third of the time; otherwise a quotient with content, signs
    and, often, a nonconstant denominator."""
    if draw(st.integers(0, 2)) == 0:
        return QX.zero
    return RatFunc(draw(polynomials), draw(polynomials.filter(any)))


@st.composite
def qt_elements(draw):
    if draw(st.integers(0, 2)) == 0:
        return QT.zero
    return RatFunc(draw(polynomials), (Fraction(1),))


ELEMENTS = {"qx": (QX, qx_elements()), "qt": (QT, qt_elements())}


def matrices(elements, rows, cols):
    return st.lists(
        st.lists(elements, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(linalg.freeze)


def entrywise(ring, a, b):
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = ring.zero
            for x, b_row in zip(row, b):
                acc = ring.add(acc, ring.mul(x, b_row[j]))
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def check(ring, a, b):
    got = ring.mat_mul(a, b)
    assert got == entrywise(ring, a, b)
    assert linalg.mat_mul(ring, a, b) == got


@pytest.mark.parametrize("name", sorted(ELEMENTS))
@given(data=st.data(), shape=st.tuples(*[st.integers(1, 4)] * 3))
@SETTINGS
def test_packed_product_matches_entrywise(name, data, shape):
    ring, elements = ELEMENTS[name]
    r, k, c = shape
    check(ring, data.draw(matrices(elements, r, k)), data.draw(matrices(elements, k, c)))


@pytest.mark.parametrize("name", sorted(ELEMENTS))
@given(data=st.data(), n=st.integers(1, 5))
@SETTINGS
def test_row_times_square(name, data, n):
    ring, elements = ELEMENTS[name]
    check(ring, data.draw(matrices(elements, 1, n)), data.draw(matrices(elements, n, n)))


@pytest.mark.parametrize("name", sorted(ELEMENTS))
@given(data=st.data(), n=st.integers(1, 4))
@SETTINGS
def test_zero_rows_and_columns(name, data, n):
    ring, elements = ELEMENTS[name]
    a = [list(row) for row in data.draw(matrices(elements, n, n))]
    b = [list(row) for row in data.draw(matrices(elements, n, n))]
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    a[i] = [ring.zero] * n
    for row in b:
        row[j] = ring.zero
    a, b = linalg.freeze(a), linalg.freeze(b)
    check(ring, a, b)
    product = ring.mat_mul(a, b)
    assert all(ring.is_zero(x) for x in product[i])
    assert all(ring.is_zero(row[j]) for row in product)
    zero = linalg.zeros(ring, n)
    assert ring.mat_mul(zero, b) == ring.mat_mul(a, zero) == zero


@pytest.mark.parametrize("name", sorted(ELEMENTS))
@given(
    n=st.integers(1, 4),
    top=st.integers(1, 2**80),
    q=st.integers(1, 9),
    degree=st.integers(0, 3),
)
@SETTINGS
def test_product_where_the_bound_is_tight(name, n, top, q, degree):
    """Every entry (top/q) x^degree, squared: each coefficient of the
    cleared product is n top^2, the bound itself, so a digit width one
    bit short misreads it."""
    ring = ELEMENTS[name][0]
    x = ring.mul(ring.from_fraction(Fraction(top, q)), ring.pow(ring.t, degree))
    if ring is QX:
        x = ring.div(x, ring.add(ring.t, ring.one))
    a = tuple(tuple(x for _ in range(n)) for _ in range(n))
    check(ring, a, a)


def test_gauss_products_take_no_gcd():
    """Q[t] clears rows and columns with D = (1,) only."""
    a = ((QT.t, QT.from_int(3)), (QT.pow(QT.t, 2), QT.from_fraction(Fraction(-1, 9))))
    expected = entrywise(QT, a, a)
    with mock.patch.object(polys, "gcd", side_effect=AssertionError("gcd on Q[t]")):
        assert QT.mat_mul(a, a) == expected


@pytest.mark.parametrize(
    "ring",
    [
        FiniteFieldPolyRing(5),
        XPolyRing(QX),
        ScaledDerivationRing(QT, QT.from_int(3)),
    ],
    ids=["F5[x]", "Q(x)[X]", "scaled"],
)
def test_other_rings_keep_the_loop(ring):
    assert not hasattr(Ring, "mat_mul") and not hasattr(ring, "mat_mul")
    a = ((ring.one, ring.from_int(2)), (ring.zero, ring.from_int(-1)))
    assert linalg.mat_mul(ring, a, a) == entrywise(ring, a, a)
