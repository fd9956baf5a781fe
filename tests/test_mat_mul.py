"""The packed integer iterates of Q(x) and Q[t]
(``rings.integer_iterates``, every step on one Kronecker width fixed by
an a-priori bound), checked through the iterated matrices G_s of
``diffmod.iterated_matrices``, and the per-s norms of
``rings.lemma_norms``, which bound every entry of F_s G_s by the
ultrametric inequality and sum in Z[t], on the integer iterates behind
G_s, only the entries whose bound can reach the maximum.  The
reference is the recurrence G_{s+1} = d(G_s) + G_s G_1 with each
product by ``linalg.mat_mul``, the entry-wise loop of every ring, and
the norm of every entry of the product, which share no code with
either.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
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
    got = rings.lemma_norms(ring, rings.integer_iterates(ring, g1, len(factors)), factors, k)
    assert got == expected
    return got


def qt_matrix(rows):
    return tuple(tuple(QT.parse(x) for x in row) for row in rows)


EQUAL_ROWS = [["t", "1", "2*t^2"], ["t", "1", "2*t^2"], ["1", "t", "3"]]
CANCELLING = {
    # rows 0 and 1 of G_1, and so of every G_s, are equal, so the factor's
    # row 0 has the largest bound in each product and sums to zero; the
    # norm comes from row 1, whose bound is lower
    "top-bound-row-cancels": (
        EQUAL_ROWS, [["1/27", "-1/27", "0"], ["1", "0", "0"], ["0", "0", "t"]], [0] * 4),
    "row-cancels-entirely": (EQUAL_ROWS, [["1", "-1", "0"]], [None] * 4),
    # G_s = G_1 for every s; entry (0, 0) of the product has the terms 1
    # and 8, each of norm 1, whose sum 9 has norm 3^-2; the norm is entry
    # (1, 0)'s, 3 * 1, of norm 3^-1 and a lower bound
    "top-terms-gain-valuation": ([["1", "0"], ["8", "0"]], [["1", "1"], ["3", "0"]], [-1] * 2),
}


@pytest.mark.parametrize("k", [-1, 0, 1])
@pytest.mark.parametrize("g1, f, sup_exps", CANCELLING.values(), ids=CANCELLING.keys())
def test_entries_that_cancel(g1, f, sup_exps, k):
    """The entry with the largest bound sums to less than its bound, so
    the search must go on past it; ``sup_exps`` are the per-s exponents
    in the sup-norm (k = 0), None for the zero norm."""
    got = check_lemma_norms(QT, qt_matrix(g1), [qt_matrix(f)] * len(sup_exps), k)
    if k == 0:
        assert got == [NormValue(3, e) for e in sup_exps]


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
    x + 1, which takes the nabla loop.  Over Q[t] G_1 clears to the
    matrix A with every entry top' x^degree, top' = top/gcd(top, q), and
    |A_2|_1 = top' (q' degree + n top'), q' = q/gcd(top, q), is the
    width's bound itself; at degree 0 that is the coefficient of every
    entry of A_2, so a width one bit short misreads G_2."""
    ring = ELEMENTS[name][0]
    x = ring.mul(ring.from_fraction(Fraction(top, q)), ring.pow(ring.t, degree))
    if ring is QX:
        x = ring.div(x, ring.add(ring.t, ring.one))
    check_iterates(ring, tuple(tuple(x for _ in range(n)) for _ in range(n)), 2)


@pytest.mark.parametrize("name", sorted(ELEMENTS))
@given(
    data=st.data(),
    n=st.integers(2, 4),
    top=st.integers(-(2**80), 2**80).filter(bool),
    q=st.integers(1, 9),
)
@SETTINGS
def test_one_width_where_the_bound_is_tight(name, data, n, top, q):
    """A constant G_1 = (top/q) J, every entry equal, clears to A = c J
    with c = top/gcd(top, q), and A_s = c^s n^(s-1) J.  The coefficient
    of every entry of A_S is then the width's bound a prod_(s<S) n a
    itself, so a digit width one bit short misreads G_S, for every S up
    to 2n - 2."""
    ring = ELEMENTS[name][0]
    x = ring.from_fraction(Fraction(top, q))
    s_max = data.draw(st.integers(2, 2 * n - 2))
    check_iterates(ring, tuple(tuple(x for _ in range(n)) for _ in range(n)), s_max)


@pytest.mark.parametrize("c", [Fraction(-1), Fraction(-3), Fraction(1, 6)], ids=str)
@given(
    n=st.integers(1, 4),
    top=st.integers(-(2**40), 2**40).filter(bool),
    q=st.integers(1, 9),
    degree=st.integers(0, 3),
    s_max=st.integers(2, 4),
)
# at c = -1: w = m c = -2 and d = n a = 2, so a width taken from the
# signed w d + n a = 0 misreads A_2 = -2 J + 2 x^2 J
@example(n=2, top=1, q=2, degree=1, s_max=2)
@SETTINGS
def test_rescaled_iterates(c, n, top, q, degree, s_max):
    """Over Q[t] rescaled by c, d(x) = c, and the integer iterates take
    A_{s+1} = w A_s' + A_s A with w = m c, negative or with c's
    denominator cleared into m; G_1 = (top/q) x^degree J, whose A_2
    reaches the width's bound, against the loop of ``linalg.mat_mul``
    over the rescaled ring."""
    ring = ScaledDerivationRing(QT, QT.from_fraction(c))
    x = ring.mul(ring.from_fraction(Fraction(top, q)), ring.pow(ring.var_element, degree))
    g1 = tuple(tuple(x for _ in range(n)) for _ in range(n))
    m, As = rings.integer_iterates(ring, g1, s_max)
    got = [
        tuple(
            tuple(ring.mul(ring.from_fraction(Fraction(1, m ** s)), ring.from_integer_poly(f))
                  for f in row)
            for row in A_s
        )
        for s, A_s in enumerate(As, 1)
    ]
    assert got == loop_iterates(ring, g1, s_max)[1:]


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
