"""The packed Z[x] product of Q(x) and Q[t] (``rings._zx_mat_mul``),
checked through the iterated matrices G_s of
``diffmod.iterated_matrices``, and the per-s norms of
``GaussPolynomialRing.lemma_norms``, which sum each row of F_s G_s in
Z[t] on the integer iterates behind G_s.  The reference is the
recurrence G_{s+1} = d(G_s) + G_s G_1 with each product by
``linalg.mat_mul``, the entry-wise loop of every ring, which shares no
code with either.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from katzcyclic import linalg, rings, xpoly
from katzcyclic.diffmod import DifferentialModule, iterated_matrices
from katzcyclic.normvalue import NormValue
from katzcyclic.rings import (
    FiniteFieldPolyRing,
    GaussPolynomialRing,
    RationalFunctionField,
    RatFunc,
    ScaledDerivationRing,
)
from katzcyclic.ultranorm import MatrixNormKind, matrix_norm
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


def loop_iterates(ring, g1, s_max):
    """[G_0, ..., G_{s_max}], each G_{s+1} = d(G_s) + G_s G_1 by ``linalg.mat_mul``."""
    out = [linalg.identity(ring, len(g1)), g1]
    for _ in range(s_max - 1):
        g = out[-1]
        out.append(tuple(
            tuple(ring.add(ring.derive(x), y) for x, y in zip(row, prow))
            for row, prow in zip(g, linalg.mat_mul(ring, g, g1))
        ))
    return out[:s_max + 1]


def check_iterates(ring, g1, s_max):
    got = iterated_matrices(DifferentialModule(ring=ring, n=len(g1), g1=g1), s_max)
    assert got == loop_iterates(ring, g1, s_max)
    return got


@pytest.mark.parametrize("name", sorted(ELEMENTS))
@given(data=st.data(), n=st.integers(1, 4))
@SETTINGS
def test_packed_product_matches_entrywise(name, data, n):
    """G_2 and G_3 take one packed product each, A_s A."""
    ring, elements = ELEMENTS[name]
    check_iterates(ring, data.draw(matrices(elements, n, n)), 3)


@pytest.mark.parametrize("name", ["qt"])
@given(data=st.data(), n=st.integers(1, 4), k=st.integers(-1, 1))
@SETTINGS
def test_row_times_square(name, data, n, k):
    """Lemma 2.1's products for arbitrary factors: each factor's rows,
    one to n of them, each summed over the lcm of its own scales, times
    the square G_s, for s = 1, 2, against the norm of the entry-wise
    product in the weight p^(k (j - i))."""
    ring, elements = ELEMENTS[name]
    g1 = data.draw(matrices(elements, n, n))
    factors = [data.draw(matrices(elements, data.draw(st.integers(1, n)), n)) for _ in range(2)]
    check_lemma_norms(ring, g1, factors, k)


@st.composite
def monomials(draw):
    """Zero a third of the time; otherwise c t^d, as in the evaluated
    tables H_0(-t) H_s(t), with a scale whose denominator is often
    divisible by p = 3."""
    if draw(st.integers(0, 2)) == 0:
        return QT.zero
    top = draw(st.integers(-50, 50).filter(bool))
    c = Fraction(top, draw(st.sampled_from([1, 2, 3, 6, 9, 27, 40])))
    return QT.mul(QT.from_fraction(c), QT.pow(QT.t, draw(st.integers(0, 6))))


@given(data=st.data(), n=st.integers(1, 4), k=st.integers(-1, 1))
@SETTINGS
def test_monomial_factor_rows(data, n, k):
    """Factors shaped like the real ones, one monomial or zero per entry,
    for s = 1, 2, 3, with row 0 of the first factor all zero (its scale
    is ``math.lcm()`` of no scales, 1, and its entries add nothing to the
    norm)."""
    g1 = data.draw(matrices(qt_elements(), n, n))
    factors = [[list(row) for row in data.draw(matrices(monomials(), n, n))] for _ in range(3)]
    factors[0][0] = [QT.zero] * n
    check_lemma_norms(QT, g1, [linalg.freeze(f) for f in factors], k)


def check_lemma_norms(ring, g1, factors, k):
    kind = MatrixNormKind("rho", NormValue(ring.prime, k))
    expected = [
        matrix_norm(ring, linalg.mat_mul(ring, f, g), kind)
        for f, g in zip(factors, loop_iterates(ring, g1, len(factors))[1:])
    ]
    assert ring.lemma_norms(g1, factors, k)[0] == expected


@pytest.mark.parametrize("name", sorted(ELEMENTS))
@given(data=st.data(), n=st.integers(1, 4))
@SETTINGS
def test_zero_rows_and_columns(name, data, n):
    """A zero row i and a zero column j of G_1 stay zero in every G_s,
    s >= 1; the zero G_1 takes the kernel's branch for a zero bound."""
    ring, elements = ELEMENTS[name]
    g1 = [list(row) for row in data.draw(matrices(elements, n, n))]
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    g1[i] = [ring.zero] * n
    for row in g1:
        row[j] = ring.zero
    for g in check_iterates(ring, linalg.freeze(g1), 3)[1:]:
        assert all(ring.is_zero(x) for x in g[i])
        assert all(ring.is_zero(row[j]) for row in g)
    zero = linalg.zeros(ring, n)
    assert check_iterates(ring, zero, 3)[1:] == [zero] * 3


@pytest.mark.parametrize("name", sorted(ELEMENTS))
@given(
    n=st.integers(1, 4),
    top=st.integers(1, 2**80),
    q=st.integers(1, 9),
    degree=st.integers(0, 3),
)
@SETTINGS
def test_product_where_the_bound_is_tight(name, n, top, q, degree):
    """Every entry of G_1 (top/q) x^degree, over Q(x) also divided by
    x + 1, so that G_1 clears to the matrix A with every entry
    top' x^degree, top' = top/gcd(top, q).  Each coefficient of A A is
    then n top'^2, the kernel's bound itself, so a digit width one bit
    short misreads G_2."""
    ring = ELEMENTS[name][0]
    x = ring.mul(ring.from_fraction(Fraction(top, q)), ring.pow(ring.t, degree))
    if ring is QX:
        x = ring.div(x, ring.add(ring.t, ring.one))
    check_iterates(ring, tuple(tuple(x for _ in range(n)) for _ in range(n)), 2)


@pytest.mark.parametrize(
    "ring",
    [
        QX,
        QT,
        FiniteFieldPolyRing(5),
        XPolyRing(QX),
        ScaledDerivationRing(QT, QT.from_int(3)),
    ],
    ids=["Q(x)", "Q[t]", "F5[x]", "Q(x)[X]", "scaled"],
)
def test_other_rings_keep_the_loop(ring):
    """No ring defines a ``mat_mul`` of its own, so ``linalg.mat_mul`` is
    the entry-wise sum for every ring."""
    classes = [c for module in (rings, xpoly) for c in vars(module).values()
               if isinstance(c, type) and c.__module__ == module.__name__]
    assert XPolyRing in classes and rings.Ring in classes
    assert [c for c in classes if hasattr(c, "mat_mul")] == []
    a = ((ring.one, ring.from_int(2), ring.zero), (ring.from_int(-1), ring.zero, ring.one))
    b = tuple((ring.from_int(c), ring.from_int(c - 2)) for c in (3, 0, 5))
    assert linalg.mat_mul(ring, a, b) == entrywise(ring, a, b)
