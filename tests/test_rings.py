import sys
from fractions import Fraction

import pytest

from katzcyclic import (
    FiniteFieldPolyRing,
    GaussPolynomialRing,
    NormValue,
    NotInvertibleError,
    PreconditionError,
    RationalFunctionField,
    ScaledDerivationRing,
    UnsupportedOperationError,
    ring_from_json,
)
from katzcyclic import polys
from katzcyclic.fields import QQ, ZZ, FiniteField, is_prime, power

from _helpers import random_qx_poly, random_ratfunc, seeded


@pytest.fixture
def qx():
    return RationalFunctionField()


@pytest.fixture
def gauss3():
    return GaussPolynomialRing(3)


def banach_rings():
    return [
        GaussPolynomialRing(2),
        GaussPolynomialRing(3),
        GaussPolynomialRing(5, radius_exp=1),
        GaussPolynomialRing(2, radius_exp=2),
    ]


class TestDerivation:
    def test_derivative_of_unit(self, qx):
        assert qx.is_zero(qx.derive(qx.one))

    def test_power_rule(self, qx):
        assert qx.eq(qx.derive(qx.parse("x^2")), qx.parse("2*x"))

    def test_char_p_kills_pth_power(self):
        for p in (2, 3, 5):
            ring = FiniteFieldPolyRing(p)
            assert ring.is_zero(ring.derive(ring.parse(f"x^{p}")))

    def test_d_of_t_is_one(self):
        for ring in [RationalFunctionField(), *banach_rings(), FiniteFieldPolyRing(3)]:
            assert ring.eq(ring.derive(ring.t), ring.one)

    def test_leibniz_random_pairs(self, qx):
        rng = seeded(7)
        for _ in range(50):
            a = random_ratfunc(qx, rng)
            b = random_ratfunc(qx, rng)
            lhs = qx.derive(qx.mul(a, b))
            rhs = qx.add(qx.mul(a, qx.derive(b)), qx.mul(qx.derive(a), b))
            assert qx.eq(lhs, rhs)


class TestNorm:
    def test_padic_value_of_integer(self):
        ring = GaussPolynomialRing(2)
        assert ring.norm(ring.from_int(4)) == NormValue(2, -2)

    def test_gauss_norm_max(self, gauss3):
        assert gauss3.norm(gauss3.parse("1 + 3*t")) == NormValue.one(3)
        assert gauss3.norm(gauss3.parse("3*t + t^2")) == NormValue.one(3)

    def test_radius_scaling(self):
        ring = GaussPolynomialRing(5, radius_exp=1)
        assert ring.norm(ring.t) == NormValue(5, -1)

    def test_norm_unsupported_kinds(self, qx):
        with pytest.raises(UnsupportedOperationError):
            qx.norm(qx.one)
        with pytest.raises(UnsupportedOperationError):
            FiniteFieldPolyRing(3).norm((()))

    def test_derivation_norm_closed_form(self):
        assert GaussPolynomialRing(3).derivation_norm() == NormValue.one(3)
        assert GaussPolynomialRing(2, radius_exp=1).derivation_norm() == NormValue(2, 1)

    def test_derivation_norm_attained_on_monomials(self):
        # oracle: maximize |d(t^i)| / |t^i| over a monomial sample
        for ring in banach_rings():
            best = NormValue.zero(ring.prime)
            power = ring.t
            for _ in range(25):
                ratio = ring.norm(ring.derive(power)) / ring.norm(power)
                best = max(best, ratio)
                power = ring.mul(power, ring.t)
            assert best == ring.derivation_norm()

    def test_d_times_t_at_least_one(self):
        for ring in banach_rings():
            one = NormValue.one(ring.prime)
            assert ring.derivation_norm() * ring.norm(ring.t) >= one

    @pytest.mark.parametrize("ring", banach_rings(), ids=lambda r: f"p{r.prime}r{r.radius_exp}")
    def test_ultrametric_axioms_bulk(self, ring):
        rng = seeded(101 + ring.prime + 10 * ring.radius_exp)
        one = NormValue.one(ring.prime)
        assert ring.norm(ring.one) == one
        for _ in range(10_000):
            a = random_qx_poly(ring, rng, max_deg=3, coeff_range=9)
            b = random_qx_poly(ring, rng, max_deg=3, coeff_range=9)
            na, nb = ring.norm(a), ring.norm(b)
            ns = ring.norm(ring.add(a, b))
            assert ns <= max(na, nb)
            if na != nb:
                assert ns == max(na, nb)
            # the Gauss norm is multiplicative
            assert ring.norm(ring.mul(a, b)) == na * nb

    def test_derivative_norm_bound(self):
        for ring in banach_rings():
            rng = seeded(55 + ring.prime)
            d = ring.derivation_norm()
            for _ in range(500):
                a = random_qx_poly(ring, rng, max_deg=4, coeff_range=9)
                assert ring.norm(ring.derive(a)) <= d * ring.norm(a)

    def test_integer_scaling(self, gauss3):
        rng = seeded(9)
        for _ in range(100):
            a = random_qx_poly(gauss3, rng)
            for n in (2, 3, 6, -9):
                lhs = gauss3.norm(gauss3.mul(gauss3.from_int(n), a))
                assert lhs == NormValue.of_int(n, 3) * gauss3.norm(a)


class TestCanonicalForm:
    def test_rational_functions_reduce(self, qx):
        a = qx.parse("(x^2 - 1)/(x - 1)")
        assert qx.eq(a, qx.parse("x + 1"))

    def test_monic_denominator(self, qx):
        a = qx.parse("1/(2*x - 2)")
        assert qx.to_str(a) == "(1/2)/(x - 1)"

    def test_never_equal_to_other_types(self, qx):
        # X-polynomials are tuples, so an element must not equal one
        assert not qx.one == 1
        assert not qx.one == (1,)
        assert not qx.zero == ()
        assert qx.one != (1,)

    def test_equality_decidable(self, qx):
        assert qx.eq(qx.parse("(x+1)/(x-1)"), qx.parse("(x^2+2*x+1)/(x^2-1)"))

    def test_sum_reduces_by_the_shared_factor(self, qx):
        # d1 = gcd(x^2 + x, x^2 - x) = x and t = (x - 1) + (x + 1) = 2x:
        # the sum is canonical only once t/d1 is reduced
        got = qx.add(qx.parse("1/(x^2+x)"), qx.parse("1/(x^2-x)"))
        assert (got.p, got.q, got.N, got.D) == (2, 1, (1,), (-1, 0, 1))
        assert qx.to_str(got) == "(2)/(x^2 - 1)"

    def test_sum_takes_no_gcd_at_the_product_degree(self, qx, monkeypatch):
        # Henrici: the denominators' gcd and the reduction of t/d1 work at
        # degree 20; only the denominator of the sum has degree 40
        a, b = qx.parse("1/(x+1)^20"), qx.parse("1/(x^20 + 3)")
        expected = qx.parse("((x+1)^20 + x^20 + 3)/((x+1)^20*(x^20 + 3))")
        degrees, gcd = [], polys.gcd

        def recording_gcd(K, f, g):
            degrees.append(max(len(f), len(g)) - 1)
            return gcd(K, f, g)

        monkeypatch.setattr(polys, "gcd", recording_gcd)
        assert qx.add(a, b) == expected
        assert degrees and max(degrees) < 40

    def test_print_parse_roundtrip(self, qx):
        rng = seeded(17)
        for _ in range(200):
            a = random_ratfunc(qx, rng)
            assert qx.eq(qx.parse(qx.to_str(a)), a)

    def test_print_parse_roundtrip_gauss(self, gauss3):
        rng = seeded(18)
        for _ in range(200):
            a = random_qx_poly(gauss3, rng)
            assert gauss3.eq(gauss3.parse(gauss3.to_str(a)), a)

    def test_print_parse_roundtrip_charp(self):
        ring = FiniteFieldPolyRing(5)
        rng = seeded(19)
        for _ in range(200):
            a = random_qx_poly(ring, rng, coeff_range=4)
            assert ring.eq(ring.parse(ring.to_str(a)), a)


def _dense_kx_samples(ring, rng):
    """Elements of a dense K[x] ring that have an antiderivative: random
    polynomials over Q, derivatives of random polynomials in char p."""
    if isinstance(ring, GaussPolynomialRing):
        return [random_qx_poly(ring, rng, max_deg=6) for _ in range(40)]
    K = ring.field
    out = []
    for _ in range(40):
        coeffs = [
            tuple(rng.randrange(K.p) for _ in range(K.e))
            for _ in range(rng.randint(0, 9))
        ]
        while coeffs and K.is_zero(coeffs[-1]):
            coeffs.pop()
        out.append(ring.derive(tuple(coeffs)))
    return out


class TestDenseKx:
    """The dense K[x] rings: Q[t] (Gauss), F_p[x] and F_q[x]."""

    @pytest.mark.parametrize(
        "ring",
        [GaussPolynomialRing(3), FiniteFieldPolyRing(5), FiniteFieldPolyRing(2, 2)],
        ids=["gauss3", "f5", "f4"],
    )
    def test_antiderivative_inverts_derive(self, ring):
        rng = seeded(31)
        for a in _dense_kx_samples(ring, rng) + [ring.zero, ring.one]:
            primitive = ring.antiderivative(a)
            assert primitive is not None
            assert ring.eq(ring.derive(primitive), a)

    def test_antiderivative_none_when_p_divides_exponent(self):
        ring = FiniteFieldPolyRing(3)
        assert ring.antiderivative(ring.parse("x^2")) is None
        assert ring.antiderivative(ring.parse("x^2 - x")) is None
        assert ring.eq(ring.antiderivative(ring.parse("x")), ring.parse("2*x^2"))

    @pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
    def test_from_int_characteristic_is_zero(self, p, e):
        ring = FiniteFieldPolyRing(p, e)
        assert ring.is_zero(ring.from_int(p))
        assert ring.eq(ring.from_int(p + 1), ring.one)

    @pytest.mark.parametrize(
        "ring", [GaussPolynomialRing(3), FiniteFieldPolyRing(5)], ids=["gauss3", "f5"]
    )
    def test_only_nonzero_constants_invert(self, ring):
        for a in (ring.t, ring.add(ring.mul(ring.t, ring.t), ring.one), ring.zero):
            with pytest.raises(NotInvertibleError):
                ring.inv(a)
        two = ring.from_int(2)
        assert ring.eq(ring.mul(two, ring.inv(two)), ring.one)


class TestFiniteFieldExtension:
    def test_gf4_field_axioms(self):
        ring = FiniteFieldPolyRing(2, 2)
        K = ring.field
        elems = [(a, b) for a in range(2) for b in range(2)]
        for x in elems:
            for y in elems:
                assert K.mul(x, y) == K.mul(y, x)
                if not K.is_zero(x):
                    assert K.mul(x, K.inv(x)) == K.one

    def test_gf9_inverse(self):
        K = FiniteFieldPolyRing(3, 2).field
        for a in range(3):
            for b in range(3):
                x = (a, b)
                if not K.is_zero(x):
                    assert K.mul(x, K.inv(x)) == K.one

    def test_sum_coefficients_print_in_parentheses(self):
        ring = FiniteFieldPolyRing(2, 2)
        one_plus_g, g = (1, 1), (0, 1)
        assert ring.to_str((ring.field.zero, one_plus_g)) == "(1+g)*x"
        assert ring.to_str((one_plus_g, one_plus_g)) == "(1+g)*x + 1+g"
        assert ring.to_str((g, g, ring.field.one)) == "x^2 + g*x + g"
        assert ring.to_str((ring.field.zero, one_plus_g)) != ring.to_str(((1, 0), g))


class TestPow:
    """Ring.pow (square-and-multiply; in Q(x) the powers of N and D, with
    no gcd) against repeated multiplication."""

    @pytest.mark.parametrize(
        "ring, a",
        [
            (RationalFunctionField(), "(2 - 4*x)/(3*x^2 + 1)"),  # c = -2
            (GaussPolynomialRing(3), "t/3 - 2"),
            (FiniteFieldPolyRing(2, 2), ((1, 0), (0, 1))),  # 1 + g*x over F_4
            (ScaledDerivationRing(RationalFunctionField(), RationalFunctionField().t),
             "(1 - x)/(x^2 + 2)"),
        ],
        ids=["qx", "gauss3", "f4", "scaled-qx"],
    )
    def test_pow_is_repeated_mul(self, ring, a):
        a = ring.parse(a) if isinstance(a, str) else a
        expected = ring.one
        for k in range(257):
            if k in (0, 1, 2, 5, 256):
                assert ring.eq(ring.pow(a, k), expected)
            expected = ring.mul(expected, a)

    @pytest.mark.parametrize(
        "ring, a",
        [
            (RationalFunctionField(), "(2 - 4*x)/(3*x^2 + 1)"),
            (GaussPolynomialRing(3), "t/3 - 2"),
            (FiniteFieldPolyRing(5), "2*x + 3"),
            (FiniteFieldPolyRing(3, 2), "g*x + 1"),
            (ScaledDerivationRing(GaussPolynomialRing(3), GaussPolynomialRing(3).from_int(3)),
             "t + 1"),
        ],
        ids=["qx", "gauss3", "f5", "f9", "scaled-gauss3"],
    )
    @pytest.mark.parametrize("k", [-1, -5])
    def test_negative_exponent_is_a_precondition_error(self, ring, a, k):
        """a^k for k < 0 raises at once, for a nonzero a and for zero,
        rather than loop forever (or, over Q(x), return 0 for zero)."""
        for base in (ring.parse(a), ring.zero, ring.one):
            with pytest.raises(PreconditionError, match="negative exponent"):
                ring.pow(base, k)

    def test_power_checks_the_exponent_before_any_product(self):
        calls = []

        def mul(a, b):
            calls.append(None)
            if len(calls) > 50:
                raise AssertionError("still multiplying")
            return a * b

        with pytest.raises(PreconditionError, match="negative exponent"):
            power(mul, 1, 2, -1)
        assert calls == []
        assert power(mul, 1, 2, 10) == 1024


def test_gcd_over_z_is_primitive_with_positive_lead():
    f = (-6, 0, 6)  # -6 (x - 1)(x + 1)
    g = (4, -8, 4)  # 4 (x - 1)^2
    assert polys.gcd(ZZ, f, g) == ((-1, 1), (6, 6), (-4, 4))
    assert polys.gcd(ZZ, f, ()) == ((-1, 0, 1), (6,), ())
    assert polys.gcd(ZZ, (), ()) == ((), (), ())
    assert polys.gcd(ZZ, (-7,), g) == ((1,), (-7,), g)
    for a, b in ((f, g), (f, ()), ((), ()), ((-7,), g), ((), g)):
        h, ca, cb = polys.gcd(ZZ, a, b)
        assert polys.mul(ZZ, h, ca) == a and polys.mul(ZZ, h, cb) == b


def test_gcd_is_over_z_only():
    F5 = FiniteField(5)
    with pytest.raises(TypeError, match="Z\\[x\\] only"):
        polys.gcd(F5, (F5.one, F5.one), (F5.one,))
    with pytest.raises(TypeError, match="Z\\[x\\] only"):
        polys.gcd(QQ, (QQ.one, QQ.one), (QQ.one,))


class TestPrimality:
    """fields.is_prime, shared by F_q and the Gauss norm rings."""

    def test_small_values(self):
        assert [n for n in range(40) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
        ]

    def test_pseudoprimes_and_primes(self):
        assert not is_prime(561)  # Carmichael number
        # strong pseudoprime to every prime base up to 23
        assert not is_prime(3825123056546413051)
        assert is_prime(2 ** 61 - 1)
        assert is_prime(2 ** 64 - 59)  # largest prime below 2^64

    def test_beyond_2_64_raises(self):
        with pytest.raises(PreconditionError, match="2\\^64"):
            is_prime(2 ** 64 + 13)

    def test_field_order_bound(self):
        assert FiniteField(2, 64).q == 2 ** 64
        for p, e in [(2, 65), (3, 41), (2 ** 64 - 59, 2), (2, 10 ** 9)]:
            with pytest.raises(PreconditionError, match="exceeds the supported maximum 2\\^64"):
                FiniteFieldPolyRing(p, e)

    @pytest.mark.parametrize("make", [GaussPolynomialRing, FiniteField, FiniteFieldPolyRing])
    def test_rings_use_it(self, make):
        assert make(2 ** 61 - 1).characteristic in (0, 2 ** 61 - 1)
        with pytest.raises(PreconditionError, match="not prime"):
            make(561)
        with pytest.raises(PreconditionError, match="2\\^64"):
            make(10 ** 30 + 57)


@pytest.mark.parametrize(
    "build",
    [
        lambda: GaussPolynomialRing(3, radius_exp=-1),
        lambda: FiniteField(3, 0),
        lambda: ring_from_json({"kind": "laurent"}),
    ],
    ids=["radius", "e", "kind"],
)
def test_invalid_ring_parameters_are_precondition_errors(build):
    with pytest.raises(PreconditionError):
        build()


def test_oversized_coefficient_print_is_a_typed_error(qx):
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        pytest.skip("the interpreter prints ints of any length")
    assert qx.to_str(qx.from_int(10 ** (limit - 1))) == "1" + "0" * (limit - 1)
    big = qx.mul(qx.from_int(10 ** limit), qx.var_element)
    for a in (qx.from_int(10 ** limit), big, qx.inv(big)):
        with pytest.raises(UnsupportedOperationError, match="cannot be printed"):
            qx.to_str(a)
