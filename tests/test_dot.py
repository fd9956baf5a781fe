"""``ring.dot``, the one sum of products of ``linalg`` and of a nabla step,
against the loop of ``add`` and ``mul`` it stands for, written out here,
on every kind of ring protocol object ``linalg`` receives: Q(x) with
nonconstant denominators, Q[t], a rescaled Q[t], F_5[x], F_9, ZZ, QQ and
Q(x)[X]."""

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
