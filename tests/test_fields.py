"""The irreducible moduli of F_q, pinned.

Elements of F_{p^e} are printed in the power basis of the field's
modulus, so every F_q output string depends on which irreducible
polynomial ``fields._find_irreducible`` picks: the lexicographically
smallest monic one of degree e (constant coefficient least significant).
The table below was computed by the exhaustive search that tested
x^(p^e) = x and gcd(x^(p^(e/l)) - x, f) = 1 for every prime l | e; any
faster search must return the same polynomials.
"""

import pytest

from katzcyclic import FiniteFieldPolyRing
from katzcyclic.fields import FiniteField

# (p, e) -> the modulus's nonzero coefficients below its monic lead, by degree
MODULI = {
    (3, 39): {0: 2, 2: 1, 3: 2, 5: 1},
    (13, 17): {0: 9, 1: 2, 2: 2},
    (3, 27): {0: 2, 1: 2, 2: 1, 3: 1, 5: 1},
    (2, 64): {0: 1, 1: 1, 3: 1, 4: 1},
    (2, 2): {0: 1, 1: 1},
    (2, 3): {0: 1, 1: 1},
    (2, 4): {0: 1, 1: 1},
    (2, 5): {0: 1, 2: 1},
    (2, 6): {0: 1, 1: 1},
    (3, 2): {0: 1},
    (3, 3): {0: 1, 1: 2},
    (3, 4): {0: 2, 1: 1},
    (3, 5): {0: 1, 1: 2},
    (3, 6): {0: 2, 1: 1},
    (5, 2): {0: 2},
    (5, 3): {0: 1, 1: 1},
    (5, 4): {0: 2},
    (5, 5): {0: 1, 1: 4},
    (5, 6): {0: 2, 1: 1},
    (7, 2): {0: 1},
    (7, 3): {0: 2},
    (7, 4): {0: 1, 1: 1},
    (7, 5): {0: 3, 1: 1},
    (7, 6): {0: 2},
    (11, 2): {0: 1},
    (11, 3): {0: 4, 1: 1},
    (11, 4): {0: 2, 1: 1},
    (11, 5): {0: 2},
    (11, 6): {0: 2, 1: 1},
    (13, 2): {0: 2},
    (13, 3): {0: 2},
    (13, 4): {0: 2},
    (13, 5): {0: 2, 1: 4},
    (13, 6): {0: 2},
    (17, 2): {0: 3},
    (17, 3): {0: 3, 1: 1},
    (17, 4): {0: 3},
    (17, 5): {0: 3, 1: 1},
    (17, 6): {0: 7, 1: 1},
    (19, 2): {0: 1},
    (19, 3): {0: 2},
    (19, 4): {0: 8, 1: 1},
    (19, 5): {0: 3, 1: 1},
    (19, 6): {0: 4},
}


@pytest.mark.parametrize("p, e", sorted(MODULI), ids=lambda v: str(v))
def test_modulus_is_pinned(p, e):
    coeffs = [MODULI[p, e].get(i, 0) for i in range(e)] + [1]
    assert FiniteField(p, e).modulus == tuple(coeffs)


def test_prime_fields_have_no_modulus():
    for p in (2, 3, 5, 7, 11, 13, 17, 19):
        assert FiniteField(p).modulus is None


def test_printed_elements_follow_the_modulus():
    # g^2 = -g - 1 = g + 1 over F_2 with modulus x^2 + x + 1
    ring = FiniteFieldPolyRing(2, 2)
    g = ((0, 1),)
    assert ring.to_str(ring.mul(g, g)) == "1+g"
