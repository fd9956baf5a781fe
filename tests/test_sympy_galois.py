"""Differential tests of F_{p^e} arithmetic against sympy's galoistools.

sympy is an oracle here only; the package never imports it.  An element
of F_{p^e} is a polynomial of degree < e over F_p, so its product,
inverse and quotient are checked as ``gf_mul`` + ``gf_rem`` and
``gf_gcdex`` modulo the field's modulus, which ``gf_irreducible_p``
checks to be irreducible.  galoistools lists coefficients highest degree
first, the package lowest first.
"""

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from katzcyclic.fields import FiniteField
from test_fields import MODULI

galoistools = pytest.importorskip("sympy.polys.galoistools")
SZZ = pytest.importorskip("sympy.polys.domains").ZZ

FIELDS = [(2, 2), (2, 5), (3, 4), (5, 3), (7, 6), (13, 17), (3, 39), (2, 64)]
SETTINGS = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@functools.lru_cache(maxsize=None)
def field(p, e):
    return FiniteField(p, e)


def to_gf(a):
    """Package coefficients (lowest first) as a galoistools list."""
    return galoistools.gf_strip([int(c) for c in reversed(a)])


def from_gf(f, e):
    """A galoistools polynomial of degree < e as a package element."""
    low = [int(c) for c in reversed(f)]
    return tuple(low + [0] * (e - len(low)))


def elements(p, e, nonzero=False):
    elems = st.tuples(*[st.integers(0, p - 1)] * e)
    return elems.filter(any) if nonzero else elems


def oracle_mul(K, a, b):
    m = to_gf(K.modulus)
    prod = galoistools.gf_mul(to_gf(a), to_gf(b), K.p, SZZ)
    return from_gf(galoistools.gf_rem(prod, m, K.p, SZZ), K.e)


def oracle_inv(K, a):
    s, _, h = galoistools.gf_gcdex(to_gf(a), to_gf(K.modulus), K.p, SZZ)
    assert h == [1]  # the modulus is irreducible, so a is coprime to it
    return from_gf(galoistools.gf_rem(s, to_gf(K.modulus), K.p, SZZ), K.e)


@pytest.mark.parametrize("p, e", FIELDS, ids=str)
@SETTINGS
@given(data=st.data())
def test_mul_inv_div_match_galoistools(p, e, data):
    K = field(p, e)
    a = data.draw(elements(p, e), label="a")
    b = data.draw(elements(p, e, nonzero=True), label="b")
    assert K.mul(a, b) == oracle_mul(K, a, b)
    b_inv = oracle_inv(K, b)
    assert K.inv(b) == b_inv
    assert K.div(a, b) == oracle_mul(K, a, b_inv)


@pytest.mark.parametrize("p, e", sorted(MODULI), ids=str)
def test_pinned_moduli_are_irreducible(p, e):
    coeffs = [MODULI[p, e].get(i, 0) for i in range(e)] + [1]
    assert galoistools.gf_irreducible_p(to_gf(coeffs), p, SZZ)
