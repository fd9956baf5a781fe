"""The canonical form c * N of Q[t] elements (``gauss_padic``).

An element is a ``rings.RatFunc`` with D = (1,): its scale is the
reduced int pair p/q, with q > 0 and gcd(p, q) = 1, and N a primitive
integer coefficient tuple with a positive leading coefficient; zero is
(p, q, N, D) = (0, 1, (), (1,)).  Values are checked
against plain Fraction coefficient lists (``a.num``), and the Gauss
norm against a valuation computed here from those coefficients.  No
Gauss operation may take a gcd of polynomials: the guard below makes
``polys.gcd`` raise while the ring works.
"""

import contextlib
import json
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from katzcyclic import GaussPolynomialRing, NormValue, polys
from katzcyclic.cli import main
from katzcyclic.rings import RatFunc

from _helpers import FIXTURES

SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
RINGS = [GaussPolynomialRing(p, radius_exp=r) for p in (2, 3, 5) for r in (0, 1, 2)]

# Coefficients with content, signs and p-power denominators.
coeffs = st.builds(
    Fraction, st.integers(-10 ** 6, 10 ** 6), st.sampled_from([1, 2, 3, 4, 5, 9, 25, 12])
)
polynomials = st.lists(coeffs, min_size=0, max_size=5)


@contextlib.contextmanager
def no_gcd():
    with mock.patch.object(polys, "gcd", side_effect=AssertionError("gcd on Q[t]")):
        yield


def element(ring, coeffs):
    """sum c_i t^i built with the ring's own operations."""
    acc, power = ring.zero, ring.one
    for c in coeffs:
        acc = ring.add(acc, ring.mul(ring.from_fraction(c), power))
        power = ring.mul(power, ring.t)
    return acc


def trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def assert_canonical(a):
    assert type(a) is RatFunc and type(a.p) is int and type(a.q) is int
    assert a.q > 0 and math.gcd(a.p, a.q) == 1
    assert a.D == (1,)
    assert (not a.p) == ((a.p, a.q, a.N, a.D) == (0, 1, (), (1,)))
    if not a.p:
        return
    assert a.N and all(type(x) is int for x in a.N)
    assert math.gcd(*a.N) == 1 and a.N[-1] > 0


def valuation(q: Fraction, p: int) -> int:
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def norm_oracle(ring, coeffs):
    """max_i |a_i|_p p^(-r i) over the nonzero coefficients."""
    exps = [-valuation(c, ring.prime) - ring.radius_exp * i
            for i, c in enumerate(coeffs) if c]
    return NormValue(ring.prime, max(exps)) if exps else NormValue.zero(ring.prime)


@SETTINGS
@given(st.sampled_from(RINGS), polynomials)
def test_elements_are_canonical_and_round_trip(ring, f):
    with no_gcd():
        a = element(ring, f)
        assert_canonical(a)
        assert a.num == trim(f)
        text = ring.to_str(a)
        parsed = ring.parse(text)
    assert_canonical(parsed)
    assert parsed == a
    # Q(x)'s constructor, which cancels with a gcd, reaches the same triple
    assert RatFunc(f, (Fraction(1),)) == a


@SETTINGS
@given(st.sampled_from(RINGS), polynomials, polynomials)
def test_results_are_canonical_and_exact(ring, f, g):
    with no_gcd():
        a, b = element(ring, f), element(ring, g)
        results = {
            "add": ring.add(a, b),
            "sub": ring.sub(a, b),
            "mul": ring.mul(a, b),
            "neg": ring.neg(a),
            "pow": ring.pow(a, 3),
            "derive": ring.derive(a),
        }
    for value in results.values():
        assert_canonical(value)
    f, g = trim(f), trim(g)
    n = max(len(f), len(g))
    pad = lambda h: list(h) + [Fraction(0)] * (n - len(h))  # noqa: E731
    product = [Fraction(0)] * max(0, len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            product[i + j] += x * y
    assert results["add"].num == trim(x + y for x, y in zip(pad(f), pad(g)))
    assert results["sub"].num == trim(x - y for x, y in zip(pad(f), pad(g)))
    assert results["mul"].num == trim(product)
    assert results["neg"].num == tuple(-x for x in f)
    assert results["derive"].num == trim(i * x for i, x in enumerate(f))[1:]
    assert results["pow"] == ring.mul(a, ring.mul(a, a))


@SETTINGS
@given(st.sampled_from(RINGS), polynomials, polynomials)
def test_norm_matches_the_coefficient_oracle(ring, f, g):
    with no_gcd():
        a, b = element(ring, f), element(ring, g)
        assert ring.norm(a) == norm_oracle(ring, a.num)
        prod = ring.mul(a, b)
        assert ring.norm(prod) == norm_oracle(ring, prod.num)
        total = ring.add(a, b)
        assert ring.norm(total) == norm_oracle(ring, total.num)


@st.composite
def high_valuation_polynomials(draw, p):
    """Coefficients that are often zero or divisible by a high power of p,
    so that the largest term of the Gauss norm can sit at any degree."""
    coeff = st.one_of(
        st.just(Fraction(0)),
        st.builds(
            lambda u, k, q: Fraction(u * p ** k, q),
            st.integers(-30, 30),
            st.integers(0, 8),
            st.sampled_from([1, p, p ** 3, 7]),
        ),
    )
    return draw(st.lists(coeff, min_size=1, max_size=8))


@SETTINGS
@given(data=st.data(), p=st.sampled_from([2, 3, 5]), r=st.integers(0, 3))
def test_norm_stopping_early_matches_the_plain_maximum(data, p, r):
    ring = GaussPolynomialRing(p, radius_exp=r)
    f = data.draw(high_valuation_polynomials(p))
    a = RatFunc(f, (Fraction(1),))
    assert ring.norm(a) == norm_oracle(ring, trim(f))


@SETTINGS
@given(st.sampled_from(RINGS), polynomials)
def test_zero_has_one_form(ring, f):
    with no_gcd():
        a = element(ring, f)
        zeros = [
            ring.sub(a, a),
            ring.add(a, ring.neg(a)),
            ring.mul(a, ring.zero),
            ring.from_int(0),
            ring.derive(ring.from_fraction(Fraction(7, 3))),
            ring.pow(ring.zero, 3),
            ring.parse("t - t"),
        ]
    for z in zeros:
        assert (z.p, z.q, z.N, z.D) == (0, 1, (), (1,))
        assert_canonical(z)
        assert z == ring.zero and ring.is_zero(z)
    assert ring.pow(ring.zero, 0) == ring.one


def test_units_are_the_nonzero_constants():
    ring = GaussPolynomialRing(3)
    with no_gcd():
        a = ring.parse("-6/5")
        inv = ring.inv(a)
        assert_canonical(inv)
        assert ring.mul(a, inv) == ring.one
        assert ring.antiderivative(ring.parse("6*t^2 + 4*t")) == ring.parse("2*t^3 + 2*t^2")


def test_scale_and_sign_are_taken_out():
    ring = GaussPolynomialRing(2)
    a = ring.parse("-6*t^2 - 4/3")  # -2/3 (9 t^2 + 2)
    assert (a.p, a.q, a.N, a.D) == (-2, 3, (2, 0, 9), (1,))
    assert ring.to_str(a) == "-6*t^2 - 4/3"
    assert ring.norm(a) == NormValue(2, -1)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_certify_takes_no_gcd(capsys, tmp_path, p):
    corpus = json.loads((FIXTURES / f"gauss_corpus_p{p}.json").read_text(encoding="utf-8"))
    doc = next(m for m in corpus if m["n"] == 3)
    path = tmp_path / "module.json"
    path.write_text(json.dumps(doc))
    with no_gcd():
        for norm in ("sup", "rho-t", "rho-d"):
            code = main(["certify", "-i", str(path), "--criterion", "lemma2.1", "--norm", norm])
            out = capsys.readouterr().out
            assert code in (0, 2)
            assert json.loads(out)["criterion"] == "lemma2.1"
