"""Kronecker packing of Z[x] and exact division over Z in ``polys``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katzcyclic import polys
from katzcyclic.errors import PreconditionError
from katzcyclic.fields import ZZ

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
