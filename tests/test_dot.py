"""``ring.dot``, the one sum of products of ``linalg`` and of a nabla step,
against the loop of ``add`` and ``mul`` it stands for, written out here,
on every kind of ring protocol object ``linalg`` receives: Q(x) with
nonconstant denominators, Q[t], a rescaled Q[t], F_5[x], F_9, ZZ, QQ and
Q(x)[X].  Sums over Q(x) whose terms have equal, pairwise coprime or
partly shared denominators, which ``dot`` puts over one denominator,
are checked against sympy's ``cancel`` as well."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katzcyclic import (
    FiniteFieldPolyRing,
    GaussPolynomialRing,
    RationalFunctionField,
    ScaledDerivationRing,
    rings,
    xpoly,
)
from katzcyclic.fields import QQ, ZZ, FiniteField
from katzcyclic.xpoly import XPolyRing

from _helpers import random_qx_poly, random_ratfunc, seeded


def loop(ring, u, v, start=None):
    acc = ring.zero if start is None else start
    for a, b in zip(u, v):
        acc = ring.add(acc, ring.mul(a, b))
    return acc


QX = RationalFunctionField()
QT = GaussPolynomialRing(3, 1)
F5X = FiniteFieldPolyRing(5)
F9 = FiniteField(3, 2)


def scaled_poly(ring, rng):
    """A polynomial times a rational scale, so that the q of the terms differ."""
    scale = ring.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
    return ring.mul(scale, random_qx_poly(ring, rng, 3))


def qx_entry(rng):
    """Half the time an element with a nonconstant denominator."""
    return scaled_poly(QX, rng) if rng.random() < 0.5 else random_ratfunc(QX, rng, 2)


ELEMENTS = {
    "Q(x)": (QX, qx_entry),
    "Q(x) polynomials": (QX, lambda rng: scaled_poly(QX, rng)),
    "Q[t]": (QT, lambda rng: scaled_poly(QT, rng)),
    "rescaled Q[t]": (
        ScaledDerivationRing(QT, QT.from_int(3)), lambda rng: scaled_poly(QT, rng)
    ),
    "F5[x]": (F5X, lambda rng: random_qx_poly(F5X, rng, 3)),
    "F9": (F9, lambda rng: (rng.randrange(3), rng.randrange(3))),
    "ZZ": (ZZ, lambda rng: rng.randint(-(10**6), 10**6)),
    "QQ": (QQ, lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 12))),
    "Q(x)[X]": (
        XPolyRing(QX),
        lambda rng: xpoly.normalize(QX, [qx_entry(rng) for _ in range(rng.randint(0, 2))]),
    ),
}


def draw(ring, entry, rng, length):
    """``length`` entries, about a quarter of them zero."""
    return [ring.zero if rng.random() < 0.25 else entry(rng) for _ in range(length)]


@pytest.mark.parametrize("name", sorted(ELEMENTS))
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    length=st.integers(min_value=0, max_value=5),
    with_start=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_dot_matches_the_loop(name, seed, length, with_start):
    ring, entry = ELEMENTS[name]
    rng = seeded(seed)
    u, v = draw(ring, entry, rng, length), draw(ring, entry, rng, length)
    if with_start:
        start = draw(ring, entry, rng, 1)[0]
        assert ring.dot(u, v, start) == loop(ring, u, v, start)
    else:
        assert ring.dot(u, v) == loop(ring, u, v)


@pytest.mark.parametrize("name", sorted(ELEMENTS))
def test_empty_and_single_terms(name):
    ring, entry = ELEMENTS[name]
    rng = seeded(3)
    assert ring.dot([], []) == ring.zero
    a, b = entry(rng), entry(rng)
    assert ring.dot([a], [b]) == ring.mul(a, b)
    assert ring.dot([a], [ring.zero]) == ring.dot([ring.zero], [b]) == ring.zero
    assert ring.dot([], [], a) == a


def test_sum_over_the_lcm_of_the_scales():
    """1/2 x + 1/3 x = 5/6 x: each term is brought to Q = 6 before it is
    added, so a term summed at its own scale shows."""
    for ring in (QX, QT):
        x = ring.t
        half, third = ring.from_fraction(Fraction(1, 2)), ring.from_fraction(Fraction(1, 3))
        assert ring.dot([half, third], [x, x]) == ring.mul(ring.from_fraction(Fraction(5, 6)), x)
        assert ring.dot([half], [third], ring.one) == ring.from_fraction(Fraction(7, 6))


def test_polynomial_terms_take_one_canonical_form():
    """With every D = (1,) the sum is put in canonical form once, not once
    per partial sum, and no gcd of polynomials is taken."""
    rng = seeded(11)
    u = [scaled_poly(QX, rng) for _ in range(4)]
    v = [scaled_poly(QX, rng) for _ in range(4)]
    expected = loop(QX, u, v)
    with mock.patch.object(rings, "_scaled", wraps=rings._scaled) as scaled, \
            mock.patch.object(rings.polys, "gcd", side_effect=AssertionError("gcd taken")):
        got = QX.dot(u, v)
    assert got == expected
    assert scaled.call_count == 1


def test_a_denominator_takes_the_loop():
    x = QX.t
    u = [QX.inv(QX.add(x, QX.one)), QX.from_int(2)]
    v = [x, QX.inv(x)]
    assert QX.dot(u, v) == QX.parse("x/(x + 1) + 2/x")


def pole(ring, r, k):
    """(x + r)^k."""
    return ring.pow(ring.add(ring.t, ring.from_int(r)), k)


def rational_family(kind, rng):
    """An element maker for ``kind``: every denominator one D ("equal"),
    pairwise coprime ones ("coprime"), or D times a factor of its own
    ("shared"); each numerator a polynomial times a rational scale."""
    base = QX.mul(pole(QX, 1, rng.randint(1, 2)), pole(QX, -2, rng.randint(0, 1)))
    roots = iter(range(3, 40))

    def make():
        if kind == "equal":
            den = base
        elif kind == "coprime":
            den = pole(QX, next(roots), rng.randint(1, 2))
        else:
            den = QX.mul(base, pole(QX, next(roots), rng.randint(0, 1)))
        return QX.div(scaled_poly(QX, rng), den)

    return make


def expr_of(sympy, a):
    x = sympy.Symbol("x")
    num = sum(n * x**i for i, n in enumerate(a.N))
    den = sum(d * x**i for i, d in enumerate(a.D))
    return sympy.Rational(a.p, a.q) * num / den


@pytest.mark.parametrize("kind", ["equal", "coprime", "shared"])
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    length=st.integers(min_value=2, max_value=5),
    start_kind=st.sampled_from(["none", "zero", "rational"]),
)
@settings(max_examples=40, deadline=None)
def test_rational_terms_match_the_loop_and_sympy(kind, seed, length, start_kind):
    """Sums of products whose factors have nonconstant denominators: each
    u_i from the family, each v_i a scaled polynomial or another member,
    about a fifth of the factors zero, and a ``start`` that is absent,
    zero or rational.  Three or more nonzero terms are put over one
    denominator; the result must equal the loop's and sympy's."""
    sympy = pytest.importorskip("sympy")
    rng = seeded(seed)
    make = rational_family(kind, rng)
    u = [QX.zero if rng.random() < 0.2 else make() for _ in range(length)]
    v = [QX.zero if rng.random() < 0.2
         else make() if rng.random() < 0.5 else scaled_poly(QX, rng) for _ in range(length)]
    start = {"none": None, "zero": QX.zero, "rational": make()}[start_kind]
    got = QX.dot(u, v, start)
    assert got == loop(QX, u, v, start)
    expected = sum((expr_of(sympy, a) * expr_of(sympy, b) for a, b in zip(u, v)),
                   expr_of(sympy, start) if start is not None else 0)
    assert sympy.cancel(expr_of(sympy, got) - expected) == 0


def test_rational_terms_take_one_canonical_form():
    """Three terms with denominators x + 1, x + 2 and (x + 1)(x + 2) are
    put over their lcm and reduced once: 1/(x+1) + 1/(x+2) - (2x+3)/((x+1)(x+2))
    cancels to zero, and 1/(x+1) + 1/(x+2) + 1/((x+1)(x+2)) to
    (2x + 4)/((x+1)(x+2)) = 2/(x+1)."""
    x1, x2 = pole(QX, 1, 1), pole(QX, 2, 1)
    u = [QX.inv(x1), QX.inv(x2), QX.inv(QX.mul(x1, x2))]
    ones = [QX.one] * 3
    minus = QX.neg(QX.add(x1, x2))
    with mock.patch.object(rings, "_canonical", wraps=rings._canonical) as canonical:
        assert QX.dot(u, [QX.one, QX.one, minus]) == QX.zero
        assert QX.dot(u, ones) == QX.div(QX.from_int(2), x1)
    assert canonical.call_count == 2
