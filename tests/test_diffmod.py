import contextlib
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from katzcyclic import (
    DifferentialModule,
    FiniteFieldPolyRing,
    GaussPolynomialRing,
    NotInvertibleError,
    PreconditionError,
    RationalFunctionField,
    apply_nabla,
    charp_counterexample,
    is_basis,
    iterated_matrices,
    linalg,
    module_from_json,
    module_to_json,
    polys,
    rescale_derivation,
    rings,
)
from katzcyclic.diffmod import nabla_family
from katzcyclic.rings import RatFunc, Ring

from _helpers import (
    iterated_by_recurrence,
    mat_eq,
    random_module,
    random_qx_poly,
    random_ratfunc,
    seeded,
)


@pytest.fixture
def qx():
    return RationalFunctionField()


def mk(ring, rows):
    n = len(rows)
    g1 = linalg.freeze([[ring.parse(e) for e in row] for row in rows])
    return DifferentialModule(ring=ring, n=n, g1=g1)


class TestIteratedMatrices:
    def test_trivial_connection(self, qx):
        m = mk(qx, [["0", "0"], ["0", "0"]])
        gs = iterated_matrices(m, 4)
        assert mat_eq(qx, gs[0], linalg.identity(qx, 2))
        for s in range(1, 5):
            assert mat_eq(qx, gs[s], linalg.zeros(qx, 2))

    def test_constant_connection_collapses_to_powers(self, qx):
        m = mk(qx, [["1", "2"], ["3", "4"]])
        gs = iterated_matrices(m, 4)
        power = linalg.identity(qx, 2)
        for s in range(5):
            assert mat_eq(qx, gs[s], power)
            power = linalg.mat_mul(qx, power, m.g1)

    def test_hand_computed_g2(self, qx):
        m = mk(qx, [["0", "1"], ["x", "0"]])
        gs = iterated_matrices(m, 2)
        expected = linalg.freeze(
            [[qx.parse("x"), qx.parse("0")], [qx.parse("1"), qx.parse("x")]]
        )
        assert mat_eq(qx, gs[2], expected)

    def test_rows_match_nabla_on_basis(self, qx):
        # row k of G_s = coordinates of nabla^s(e_k)
        rng = seeded(23)
        for n in (2, 3, 4):
            m = random_module(qx, rng, n, max_deg=2)
            gs = iterated_matrices(m, 2 * n - 2)
            for k in range(n):
                e_k = tuple(qx.one if i == k else qx.zero for i in range(n))
                for s in range(2 * n - 1):
                    row = apply_nabla(m, e_k, s)
                    assert all(qx.eq(a, b) for a, b in zip(row, gs[s][k]))

    def test_short_lists_start_from_identity_and_g1(self, qx):
        m = mk(qx, [["0", "1/x"], ["x^2", "3"]])
        assert iterated_matrices(m, 0) == [linalg.identity(qx, 2)]
        assert iterated_matrices(m, 1) == [linalg.identity(qx, 2), m.g1]


QX = RationalFunctionField()
QT = GaussPolynomialRing(5, 1)
# Entries share a few denominators, as a module's entries usually do, so
# that their lcm L and its powers L^s stay small enough for the loop.
DENOMINATORS = [
    (Fraction(1),),
    (Fraction(1), Fraction(1)),
    (Fraction(-3), Fraction(0), Fraction(2)),
]
small_polys = st.lists(
    st.builds(Fraction, st.integers(-20, 20), st.sampled_from([1, 2, 3, 25])),
    min_size=0,
    max_size=3,
)


@st.composite
def qx_entries(draw):
    """Zero a third of the time, else a quotient with a fractional scale
    and often a nonconstant denominator."""
    if draw(st.integers(0, 2)) == 0:
        return QX.zero
    return RatFunc(draw(small_polys), draw(st.sampled_from(DENOMINATORS)))


@st.composite
def gauss_entries(draw):
    """p^k times a polynomial with a fractional scale, or zero."""
    if draw(st.integers(0, 2)) == 0:
        return QT.zero
    poly = RatFunc(draw(small_polys), (Fraction(1),))
    return QT.mul(QT.from_int(QT.prime ** draw(st.integers(0, 4))), poly)


@st.composite
def modules(draw, ring, entries):
    n = draw(st.integers(1, 4))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["plain", "zero", "zero row"]))
    if shape == "zero":
        rows = [[ring.zero] * n for _ in range(n)]
    elif shape == "zero row":
        rows[draw(st.integers(0, n - 1))] = [ring.zero] * n
    s_max = draw(st.sampled_from([0, 1, 2 * n - 2]))
    return DifferentialModule(ring=ring, n=n, g1=linalg.freeze(rows)), s_max


RECURRENCE_SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@contextlib.contextmanager
def routes():
    """Records the s_max of every call, inside the block, to the nabla loop
    ``Ring.iterated_matrices`` (under "loop") and to
    ``rings.integer_iterates`` (under "integer"), which
    ``_IntegerCoreRing.iterated_matrices`` calls by that name."""
    calls = {"loop": [], "integer": []}
    loop, integer = Ring.iterated_matrices, rings.integer_iterates

    def recording(key, fn):
        def wrapper(ring, g1, s_max, *args):
            calls[key].append(s_max)
            return fn(ring, g1, s_max, *args)
        return wrapper

    with mock.patch.object(Ring, "iterated_matrices", recording("loop", loop)), \
            mock.patch.object(rings, "integer_iterates", recording("integer", integer)):
        yield calls


class TestIntegerRecurrence:
    """Q(x) and Q[t] run G_{s+1} = d(G_s) + G_s G_1 on cleared integer
    matrices when G_1 is polynomial, and the nabla loop of ``Ring`` when
    it has a denominator; checked against nabla on the basis rows and
    against the same module rescaled by 1, which takes the loop."""

    def check(self, m, s_max):
        with routes() as calls:
            gs = iterated_matrices(m, s_max)
        if all(len(x.D) == 1 for row in m.g1 for x in row):
            # polynomial G_1: the loop only up to G_1, the integer route from G_2 on
            integer = s_max >= 2
            assert calls == {"loop": [] if integer else [s_max],
                             "integer": [s_max] if integer else []}
        else:
            # a denominator: the loop, and integer_iterates never reached
            assert calls == {"loop": [s_max], "integer": []}
        assert gs == m.ring.iterated_matrices(m.g1, s_max)
        assert len(gs) == s_max + 1
        loop = rescale_derivation(m, m.ring.one)
        with routes() as calls:
            assert iterated_matrices(loop, s_max) == gs
        assert calls == {"loop": [s_max], "integer": []}
        for k in range(m.n):
            e_k = tuple(m.ring.one if i == k else m.ring.zero for i in range(m.n))
            for s in range(s_max + 1):
                assert apply_nabla(m, e_k, s) == gs[s][k]

    @given(modules(QX, qx_entries()))
    @RECURRENCE_SETTINGS
    def test_qx_entries_with_denominators(self, case):
        self.check(*case)

    @given(modules(QT, gauss_entries()))
    @RECURRENCE_SETTINGS
    def test_gauss_entries(self, case):
        self.check(*case)

    @pytest.mark.parametrize("ring", [QX, QT], ids=["qx", "qt"])
    def test_powers_of_the_variable_over_a_scale(self, ring):
        """G_1 = t^2/3 Id + (1/(t+1) off the diagonal over Q(x)): m = 3 on
        the integer route over Q[t], and over Q(x) the denominator t + 1
        sends G_1 to the nabla loop."""
        n = 3
        diag = ring.div(ring.pow(ring.t, 2), ring.from_int(3))
        off = ring.inv(ring.add(ring.t, ring.one)) if ring is QX else ring.from_int(2)
        g1 = linalg.freeze([[diag if i == j else off for j in range(n)] for i in range(n)])
        self.check(DifferentialModule(ring=ring, n=n, g1=g1), 2 * n - 2)

    def test_other_rings_keep_the_loop(self):
        ring = FiniteFieldPolyRing(5)
        m = mk(ring, [["x", "2"], ["x^2 + 1", "3*x"]])
        with routes() as calls:
            gs = iterated_matrices(m, 2)
        assert calls == {"loop": [2], "integer": []}
        e_0 = (ring.one, ring.zero)
        assert [gs[s][0] for s in range(3)] == [apply_nabla(m, e_0, s) for s in range(3)]

    def test_gauss_takes_no_gcd(self):
        m = mk(QT, [["t/5", "25*t^2 - 1"], ["3", "t + 1/2"]])
        expected = iterated_matrices(rescale_derivation(m, QT.one), 6)
        with mock.patch.object(polys, "gcd", side_effect=AssertionError("gcd on Q[t]")):
            assert iterated_matrices(m, 6) == expected


class TestGenericIterate:
    """F_q[x] and the scaled-derivation rings take the nabla loop of
    ``Ring``, which applies nabla to each row of G_s; checked against
    d(G_s) + G_s G1 written out entry by entry."""

    @pytest.mark.parametrize("kind", ["f5", "f4", "scaled"])
    def test_matches_the_written_out_recurrence(self, kind):
        ring = {
            "f5": FiniteFieldPolyRing(5),
            "f4": FiniteFieldPolyRing(2, 2),
            "scaled": RationalFunctionField(),
        }[kind]
        rng = seeded(170 + len(kind))
        for n in (1, 2) if kind == "f4" else (1, 2, 3, 4):
            m = random_module(ring, rng, n, max_deg=2)
            if kind == "scaled":
                m = rescale_derivation(m, ring.parse("x^2 + 1"))
            with routes() as calls:
                gs = iterated_matrices(m, n + 1)
            assert calls == {"loop": [n + 1], "integer": []}
            expected = iterated_by_recurrence(m, n + 1)
            assert len(gs) == len(expected) == n + 2
            assert all(mat_eq(m.ring, g, h) for g, h in zip(gs, expected))


class TestApplyNabla:
    def test_zeroth_power_is_identity(self, qx):
        m = mk(qx, [["0", "1"], ["x", "0"]])
        v = (qx.parse("x"), qx.parse("x^2"))
        assert apply_nabla(m, v, 0) == v

    def test_trivial_connection_derives_coordinates(self, qx):
        m = mk(qx, [["0", "0"], ["0", "0"]])
        v = (qx.parse("x"), qx.parse("1"))
        assert apply_nabla(m, v, 1) == (qx.one, qx.zero)

    def test_basis_vector_walk(self, qx):
        m = mk(qx, [["0", "1"], ["x", "0"]])
        e0 = (qx.one, qx.zero)
        assert apply_nabla(m, e0, 1) == (qx.zero, qx.one)
        assert apply_nabla(m, e0, 2) == (qx.parse("x"), qx.zero)

    def test_connection_leibniz(self, qx):
        rng = seeded(31)
        m = random_module(qx, rng, 3, max_deg=2)
        for _ in range(20):
            a = random_ratfunc(qx, rng)
            v = tuple(random_qx_poly(qx, rng, 2) for _ in range(3))
            lhs = apply_nabla(m, linalg.row_scale(qx, a, v), 1)
            rhs = linalg.row_add(
                qx,
                linalg.row_scale(qx, qx.derive(a), v),
                linalg.row_scale(qx, a, apply_nabla(m, v, 1)),
            )
            assert all(qx.eq(x, y) for x, y in zip(lhs, rhs))


class TestNablaFamily:
    """nabla_family, one step per vector, against apply_nabla(m, v, i),
    which takes i steps from v itself."""

    @pytest.mark.parametrize("kind", ["qx", "gauss", "f5", "scaled"])
    def test_rows_are_powers_of_nabla(self, kind):
        ring = {
            "qx": RationalFunctionField(),
            "scaled": RationalFunctionField(),
            "gauss": GaussPolynomialRing(3),
            "f5": FiniteFieldPolyRing(5),
        }[kind]
        rng = seeded(90 + len(kind))
        for n in (1, 2, 3, 4):
            m = random_module(ring, rng, n, max_deg=2)
            if kind == "scaled":
                m = rescale_derivation(m, ring.parse("x^2 + 1"))
            v = tuple(random_qx_poly(ring, rng) for _ in range(n))
            for k in (1, 2, n + 1):
                family = nabla_family(m, v, k)
                assert family == tuple(apply_nabla(m, v, i) for i in range(k))


class TestRescaleDerivation:
    def test_identity_rescale(self, qx):
        m = mk(qx, [["0", "1"], ["x", "0"]])
        m2 = rescale_derivation(m, qx.one)
        assert mat_eq(m2.ring, m2.g1, m.g1)

    def test_round_trip(self, qx):
        m = mk(qx, [["0", "1"], ["x", "0"]])
        f = qx.parse("x")
        back = rescale_derivation(rescale_derivation(m, f), qx.inv(f))
        assert back.ring is qx
        assert mat_eq(qx, back.g1, m.g1)

    def test_scaled_derivation_acts_scaled(self, qx):
        m = mk(qx, [["0", "1"], ["x", "0"]])
        f = qx.parse("x")
        m2 = rescale_derivation(m, f)
        a = qx.parse("x^2")
        assert m2.ring.eq(m2.ring.derive(a), qx.parse("2*x^2"))

    def test_json_round_trip_refuses_the_scale(self, qx):
        # reading used to drop "scaled_by" and return the unscaled module
        m = rescale_derivation(mk(qx, [["0", "1"], ["x", "0"]]), qx.parse("x^2 + 1"))
        doc = module_to_json(m)
        assert doc["ring"] == {"kind": "rational_function", "variable": "x",
                               "scaled_by": "x^2 + 1"}
        with pytest.raises(PreconditionError, match="unknown key 'scaled_by'"):
            module_from_json(doc)

    def test_rescaled_twice_is_described_by_the_product(self):
        """Rescaled by 2 and then by 5, the ring is the base rescaled once
        by 10, and its descriptor says so; rescaled back by 1/10 it is the
        base itself."""
        ring = GaussPolynomialRing(3, 1)
        m = mk(ring, [["0", "3"], ["3*t", "0"]])
        twice = rescale_derivation(rescale_derivation(m, ring.from_int(2)), ring.from_int(5))
        once = rescale_derivation(m, ring.from_int(10))
        assert twice.ring.base is ring
        assert module_to_json(twice) == module_to_json(once)
        assert module_to_json(twice)["ring"]["scaled_by"] == "10"
        assert twice.g1 == once.g1
        back = rescale_derivation(twice, ring.from_fraction(Fraction(1, 10)))
        assert back.ring is ring and back.g1 == m.g1

    def test_non_invertible_rejected(self, qx):
        m = mk(qx, [["0", "1"], ["x", "0"]])
        with pytest.raises(NotInvertibleError):
            rescale_derivation(m, qx.zero)

    def test_rescaled_t_for_constant_factor(self):
        ring = GaussPolynomialRing(3)
        m = DifferentialModule(ring=ring, n=2, g1=linalg.zeros(ring, 2))
        m2 = rescale_derivation(m, ring.from_int(2))
        assert m2.ring.eq(m2.ring.derive(m2.ring.t), m2.ring.one)


class TestIsBasis:
    def test_standard_basis(self, qx):
        m = mk(qx, [["0", "1"], ["x", "0"]])
        det, ok = is_basis(m, [(qx.one, qx.zero), (qx.zero, qx.one)])
        assert qx.eq(det, qx.one) and ok

    def test_repeated_vector(self, qx):
        m = mk(qx, [["0", "1"], ["x", "0"]])
        v = (qx.one, qx.parse("x"))
        det, ok = is_basis(m, [v, v])
        assert qx.is_zero(det) and not ok

    def test_katz_family_n2(self, qx):
        m = mk(qx, [["0", "0"], ["1", "0"]])
        c0 = (qx.one, qx.parse("x"))
        det, ok = is_basis(m, [c0, apply_nabla(m, c0, 1)])
        assert ok
        assert qx.eq(det, qx.parse("1 - x^2"))

    def test_wrong_count(self, qx):
        m = mk(qx, [["0", "1"], ["x", "0"]])
        with pytest.raises(PreconditionError):
            is_basis(m, [(qx.one, qx.zero)])


class TestCharPCounterexample:
    def test_d_squared_kills_cubes_mod_2(self):
        ring = FiniteFieldPolyRing(2)
        a = ring.parse("x^3")
        assert ring.is_zero(ring.derive(ring.derive(a)))

    def test_report_p2(self):
        rep = charp_counterexample(2, 1, 3)
        assert rep.q == 2 and rep.zero_power_index == 2
        assert rep.all_determinants_zero
        assert "no cyclic vector" in rep.message

    def test_report_p3(self):
        rep = charp_counterexample(3, 1, 4)
        assert rep.q == 3 and rep.all_determinants_zero

    def test_d_cubed_zero_on_f3_sample(self):
        ring = FiniteFieldPolyRing(3)
        for deg in range(13):
            a = ring.parse(f"x^{deg}")
            for _ in range(3):
                a = ring.derive(a)
            assert ring.is_zero(a)

    def test_precondition_n_le_q(self):
        with pytest.raises(PreconditionError):
            charp_counterexample(2, 1, 2)

    def test_prime_power_field(self):
        rep = charp_counterexample(2, 2, 5)
        assert rep.q == 4 and rep.all_determinants_zero


class TestConstruction:
    def test_small_characteristic_module_constructs(self):
        # (3-1)! = 0 in characteristic 2: only the Katz entry points refuse
        # the module (tests/test_katz.py::TestSmallCharacteristic).
        ring = FiniteFieldPolyRing(2)
        m = mk(ring, [["0", "1", "0"], ["0", "0", "1"], ["x", "0", "0"]])
        assert m.ring.characteristic == 2 and m.n == 3
        scaled = rescale_derivation(m, ring.one)
        assert scaled.n == 3 and scaled.ring.characteristic == 2
        # p > n-1 is fine
        ring5 = FiniteFieldPolyRing(5)
        DifferentialModule(ring=ring5, n=3, g1=linalg.zeros(ring5, 3))

    def test_shape_check(self, qx):
        with pytest.raises(PreconditionError):
            DifferentialModule(ring=qx, n=2, g1=((qx.one,),))
