import functools
import math
from fractions import Fraction
from unittest import mock

import pytest

from katzcyclic import (
    DifferentialModule,
    FactorialNotInvertibleError,
    FiniteFieldPolyRing,
    GaussPolynomialRing,
    InternalConsistencyError,
    NotInvertibleError,
    PreconditionError,
    RationalFunctionField,
    ScaledDerivationRing,
    UnsupportedOperationError,
    alpha,
    apply_nabla,
    base_change,
    check_prop_2_3,
    companion_form,
    epsilon,
    find_cyclic,
    h_matrix,
    invert_coefficients,
    is_basis,
    katz_vector,
    derivative_coefficients,
    lemma_table,
    linalg,
    polys,
    rescale_derivation,
    specialize_vector,
    xpoly,
)
from katzcyclic.diffmod import nabla_family
from katzcyclic.fields import QQ
from katzcyclic.katz import assemble_h, h_entry, h_matrix_at, qx_to_str
from katzcyclic.xpoly import XPolyRing

from _helpers import (
    decomposition_h,
    embed_qx,
    expanded_h_rows,
    free_module_h_entries,
    mat_eq,
    nabla_on_xpoly_row,
    katz_vector_xpoly_row,
    load_corpus,
    random_module,
    random_qx_poly,
    random_ratfunc,
    row_sub,
    seeded,
    specialize_by_powers,
)
from test_golden_seeded import qx_modules


@pytest.fixture
def qx():
    return RationalFunctionField()


def mk(ring, rows):
    g1 = linalg.freeze([[ring.parse(e) for e in row] for row in rows])
    return DifferentialModule(ring=ring, n=len(rows), g1=g1)


class TestEpsilonAlpha:
    def test_epsilon_s0_upper_triangular(self):
        for n in (2, 3, 4, 5):
            for i in range(n):
                for j in range(n):
                    assert epsilon(0, i, j, n) == (1 if j >= i else 0)

    def test_epsilon_examples(self):
        assert epsilon(4, 1, 0, 3) == 0
        assert epsilon(2, 2, 1, 3) == 1

    def test_index_range_errors(self):
        with pytest.raises(PreconditionError):
            epsilon(0, 3, 0, 3)
        with pytest.raises(PreconditionError):
            alpha(5, 0, 0, 3)

    def test_alpha_s0_is_taylor(self):
        for n in (2, 3, 4):
            for i in range(n):
                for j in range(i, n):
                    assert alpha(0, i, j, n) == 1

    def test_alpha_spot_values(self):
        assert alpha(1, 0, 1, 3) == -2
        assert alpha(2, 2, 1, 3) == -3
        assert alpha(3, 3, 1, 4) == 4
        assert alpha(4, 4, 2, 5) == 25

    def test_sign_spellings_agree(self):
        # (-1)^(s+k) and (-1)^(s-k) give the same sum
        def alt(s, i, j, n):
            if epsilon(s, i, j, n) == 0:
                return 0
            total = 0
            for k in range(max(0, s + j - (n - 1)), min(i, s) + 1):
                sign = -1 if (s - k) % 2 else 1
                total += sign * math.comb(s - k + j, j) * math.comb(i, k)
            return total

        for n in (2, 3, 4):
            for s in range(2 * n - 1):
                for i in range(n):
                    for j in range(n):
                        assert alpha(s, i, j, n) == alt(s, i, j, n)

    def test_alpha_integer_valued(self):
        for n in (2, 3, 4, 5):
            for s in range(2 * n - 1):
                for i in range(n):
                    for j in range(n):
                        assert isinstance(alpha(s, i, j, n), int)


class TestHMatrix:
    def test_golden_n2(self):
        def strs(s):
            return [[qx_to_str(e) for e in row] for row in h_matrix(s, 2)]

        assert strs(0) == [["1", "X"], ["0", "1"]]
        assert strs(1) == [["-X", "0"], ["0", "X"]]
        assert strs(2) == [["0", "0"], ["-X", "0"]]

    def test_derived_n3_s3_rows(self):
        rows = [[qx_to_str(e) for e in row] for row in h_matrix(3, 3)]
        assert rows[0] == ["0", "0", "0"]
        assert rows[1] == ["1/2*X^2", "0", "0"]
        assert rows[2] == ["X", "-X^2", "0"]

    def test_h0_is_taylor_matrix(self):
        for n in (2, 3, 4, 5):
            h0 = h_matrix(0, n)
            for i in range(n):
                for j in range(n):
                    if j < i:
                        assert h0[i][j] == ()
                    else:
                        m = j - i
                        expected = tuple(
                            [Fraction(0)] * m + [Fraction(1, math.factorial(m))]
                        )
                        assert h0[i][j] == expected

    def test_support_interval(self):
        # for s >= 1 entries vanish when j - i is outside
        # [max(1-s, 1-n), n-1-s]; for s = 0 the matrix is upper triangular
        for n in (2, 3, 4, 5):
            for s in range(2 * n - 1):
                lo = 0 if s == 0 else max(1 - s, 1 - n)
                for i in range(n):
                    for j in range(n):
                        if not (lo <= j - i <= n - 1 - s):
                            assert h_entry(s, i, j, n) == ()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_free_module_expansion_oracle(self, n):
        # the defining property: h_{s;i,j} is the Q[X] coefficient of the
        # s-th derivative of e_j inside nabla^i(c(e, X))
        expansion = free_module_h_entries(n)
        for i in range(n):
            seen = dict(expansion[i])
            for s in range(2 * n - 1):
                for j in range(n):
                    expected = seen.pop((s, j), ())
                    assert h_entry(s, i, j, n) == expected
            assert not seen  # nothing outside s <= 2n-2

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_h0_inverse_is_sign_flip(self, n):
        h0 = h_matrix(0, n)
        h0neg = [
            [tuple(c if k % 2 == 0 else -c for k, c in enumerate(e)) for e in row]
            for row in h0
        ]
        for i in range(n):
            for j in range(n):
                acc = ()
                for l in range(n):
                    acc = polys.add(QQ, acc, polys.mul(QQ, h0[i][l], h0neg[l][j]))
                expected = (Fraction(1),) if i == j else ()
                assert acc == expected

    def test_s_out_of_range(self):
        with pytest.raises(PreconditionError):
            h_matrix(5, 3)

    @pytest.mark.parametrize(
        "ring",
        [
            RationalFunctionField(),
            GaussPolynomialRing(3, 1),
            FiniteFieldPolyRing(5),
            ScaledDerivationRing(RationalFunctionField(), RationalFunctionField().from_int(3)),
        ],
        ids=["qx", "gauss3", "F5", "scaled-qx"],
    )
    def test_h_matrix_at_matches_horner(self, ring):
        """Against Horner evaluation of each embedded entry, at t, -t and
        a non-constant value; the rescaled ring's t is x/3, not x."""
        x = ring.var_element
        value = ring.add(ring.mul(ring.from_int(2), ring.mul(x, x)), ring.one)
        for point in (ring.t, ring.neg(ring.t), value):
            for n in range(1, 6):
                for s in range(2 * n - 1):
                    expected = tuple(
                        tuple(
                            xpoly.eval_at(ring, embed_qx(ring, h_entry(s, i, j, n)), point)
                            for j in range(n)
                        )
                        for i in range(n)
                    )
                    assert h_matrix_at(ring, h_matrix(s, n), point) == expected


def qx_mat_mul(a, b):
    """Product of two tables over Q[X], entry by entry with ``polys``."""
    n = len(a)
    return tuple(
        tuple(
            functools.reduce(
                lambda acc, l: polys.add(QQ, acc, polys.mul(QQ, a[i][l], b[l][j])),
                range(n),
                (),
            )
            for j in range(n)
        )
        for i in range(n)
    )


def at_minus_x(table):
    """f(-X) for every entry f of a table over Q[X]."""
    return tuple(
        tuple(tuple(c if k % 2 == 0 else -c for k, c in enumerate(f)) for f in row)
        for row in table
    )


class TestLemmaTable:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_is_h0_at_minus_x_times_hs(self, n):
        h0_neg = at_minus_x(h_matrix(0, n))
        for s in range(2 * n - 1):
            assert lemma_table(s, n) == qx_mat_mul(h0_neg, h_matrix(s, n))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_s0_is_identity(self, n):
        identity = tuple(
            tuple((Fraction(1),) if i == j else () for j in range(n)) for i in range(n)
        )
        assert lemma_table(0, n) == identity

    def test_tables_are_built_once(self):
        assert h_matrix(3, 4) is h_matrix(3, 4)
        assert lemma_table(3, 4) is lemma_table(3, 4)

    @pytest.mark.parametrize("s,n", [(5, 3), (-1, 3), (0, 0), (1.0, 2), (1, "2")])
    def test_arguments_checked_before_the_cache(self, s, n):
        for table in (h_matrix, lemma_table):
            with pytest.raises(PreconditionError):
                table(s, n)

    @pytest.mark.parametrize("ring", [RationalFunctionField(), GaussPolynomialRing(5, 2)])
    def test_evaluated_at_t_is_the_product_of_the_evaluated_factors(self, ring):
        for n in range(1, 6):
            h0_neg = h_matrix_at(ring, h_matrix(0, n), ring.neg(ring.t))
            for s in range(2 * n - 1):
                hs = h_matrix_at(ring, h_matrix(s, n), ring.t)
                assert h_matrix_at(ring, lemma_table(s, n), ring.t) == linalg.mat_mul(
                    ring, h0_neg, hs
                )


class TestKatzVector:
    def test_trivial_connection(self, qx):
        m = mk(qx, [["0"] * 3] * 3)
        rows = katz_vector(m)
        for j in range(3):
            for k in range(3):
                expected = Fraction(1, math.factorial(j)) if k == j else Fraction(0)
                assert qx.eq(rows[j][k], qx.from_fraction(expected))

    def test_nilpotent_up(self, qx):
        m = mk(qx, [["0", "1"], ["0", "0"]])
        rows = katz_vector(m)
        # c = e0 + X(e1 - nabla e0) = e0
        assert rows[0] == (qx.one, qx.zero)
        assert len(rows[1]) == 2 and all(qx.is_zero(c) for c in rows[1])

    def test_nilpotent_down(self, qx):
        m = mk(qx, [["0", "0"], ["1", "0"]])
        rows = katz_vector(m)
        assert rows[0] == (qx.one, qx.zero)
        assert rows[1] == (qx.zero, qx.one)

    def test_constant_coefficient_is_e0(self, qx):
        rng = seeded(41)
        for n in (2, 3):
            m = random_module(qx, rng, n, max_deg=2)
            rows = katz_vector(m)
            assert len(rows) == n and all(len(row) == n for row in rows)
            assert rows[0] == tuple(
                qx.one if k == 0 else qx.zero for k in range(n)
            )


class TestDerivativeCoefficients:
    def test_i0_identity(self, qx):
        m = mk(qx, [["0", "1"], ["x", "0"]])
        c0 = [(qx.parse("x"), qx.one), (qx.zero, qx.parse("x^2"))]
        for j in range(2):
            assert derivative_coefficients(m, c0, 0, j) == c0[j]

    def test_trivial_connection_differentiates(self, qx):
        m = mk(qx, [["0"] * 2] * 2)
        c0 = [(qx.one, qx.zero), (qx.parse("x"), qx.one), (qx.zero, qx.parse("2"))]
        for j in range(2):
            got = derivative_coefficients(m, c0, 1, j)
            expected = linalg.row_add(
                qx,
                tuple(qx.derive(x) for x in c0[j]),
                linalg.row_scale(qx, qx.from_int(j + 1), c0[j + 1]),
            )
            assert got == expected

    def test_against_direct_symbolic_differentiation(self, qx):
        rng = seeded(43)
        n = 3
        m = random_module(qx, rng, n, max_deg=2)
        c0 = [
            tuple(qx.from_int(rng.randint(-3, 3)) for _ in range(n))
            for _ in range(n)
        ]
        row = tuple(
            xpoly.normalize(qx, [c0[j][k] for j in range(n)]) for k in range(n)
        )
        for i in range(n):
            for j in range(n):
                got = derivative_coefficients(m, c0, i, j)
                expected = tuple(
                    row[k][j] if j < len(row[k]) else qx.zero for k in range(n)
                )
                assert got == expected
            row = nabla_on_xpoly_row(qx, row, m.g1)


class TestInvertCoefficients:
    def test_j0_identity(self, qx):
        m = mk(qx, [["0", "1"], ["x", "0"]])
        rows = [(qx.one, qx.parse("x")), (qx.zero, qx.one)]
        out = invert_coefficients(m, rows)
        assert out[0] == rows[0]

    def test_basis_choice_reproduces_candidate(self, qx):
        rng = seeded(47)
        for n in (2, 3):
            m = random_module(qx, rng, n, max_deg=2)
            basis = [
                tuple(qx.one if k == i else qx.zero for k in range(n))
                for i in range(n)
            ]
            out = invert_coefficients(m, basis)
            rows = katz_vector(m)
            for j in range(n):
                assert out[j] == rows[j]

    @pytest.mark.parametrize("kind", ["qx", "qt", "f5", "f4", "scaled"])
    def test_katz_vector_is_the_inversion_formula_on_e(self, kind):
        """H(0) = Id, so nabla^i(c) at X = 0 is e_i and c(e, X) is the
        inversion formula on the basis e, at every rank the ring admits."""
        ring = {
            "qx": RationalFunctionField(),
            "qt": GaussPolynomialRing(3, 1),
            "f5": FiniteFieldPolyRing(5),
            "f4": FiniteFieldPolyRing(2, 2),
            "scaled": RationalFunctionField(),
        }[kind]
        rng = seeded(140 + len(kind))
        for n in (1, 2) if kind == "f4" else (1, 2, 3, 4):
            m = random_module(ring, rng, n, max_deg=2)
            if kind == "scaled":
                m = rescale_derivation(m, ring.parse("x^2 + 1"))
            out = invert_coefficients(m, linalg.identity(m.ring, n))
            assert len(out) == n
            assert mat_eq(m.ring, katz_vector(m), out)

    def test_round_trip_random_vectors(self, qx):
        rng = seeded(53)
        n = 3
        m = random_module(qx, rng, n, max_deg=2)
        for _ in range(10):
            c0 = [
                tuple(qx.from_int(rng.randint(-3, 3)) for _ in range(n))
                for _ in range(n)
            ]
            zero_components = [derivative_coefficients(m, c0, i, 0) for i in range(n)]
            back = invert_coefficients(m, zero_components)
            assert tuple(back) == tuple(tuple(r) for r in c0)


class TestBaseChange:
    def test_trivial_connection(self, qx):
        m = mk(qx, [["0"] * 3] * 3)
        bc = base_change(m)
        xr = XPolyRing(qx)
        h0 = tuple(
            tuple(
                xpoly.normalize(qx, [qx.from_fraction(c) for c in e]) for e in row
            )
            for row in h_matrix(0, 3)
        )
        assert mat_eq(xr, bc.h_assembled, h0)
        assert bc.det_poly == (qx.one,)
        assert bc.h_tables == tuple(h_matrix(s, 3) for s in range(5))

    def test_hand_computed_n2(self, qx):
        m = mk(qx, [["0", "0"], ["1", "0"]])
        bc = base_change(m)
        X = (qx.zero, qx.one)
        assert bc.h_assembled == ((
            (qx.one,), X), (X, (qx.one,)))
        assert bc.det_poly == (qx.one, qx.zero, qx.from_int(-1))
        assert qx.eq(bc.coefficients[0], qx.one)

    def test_rows_match_direct_expansion(self, qx):
        rng = seeded(59)
        for n in (2, 3):
            m = random_module(qx, rng, n, max_deg=2)
            H = assemble_h(m)
            rows = expanded_h_rows(m)
            for i in range(n):
                for k in range(n):
                    assert xpoly.eq(qx, H[i][k], rows[i][k])

    def test_wedge_identity(self, qx):
        # det of the coordinate matrix of the derivative family = det H(X)
        rng = seeded(61)
        m = random_module(qx, rng, 3, max_deg=1)
        bc = base_change(m)
        xr = XPolyRing(qx)
        rows = expanded_h_rows(m)
        assert xpoly.eq(qx, linalg.det(xr, linalg.freeze(rows)), bc.det_poly)


def oracle_module(kind, n, rng):
    """A seeded module of rank n over the ring named by ``kind``."""
    if kind in ("qx", "scaled"):
        ring = RationalFunctionField()

        def entry():
            scale = ring.from_fraction(Fraction(rng.randint(-5, 5), rng.randint(1, 6)))
            return ring.mul(scale, random_ratfunc(ring, rng, max_deg=1))
    elif kind.startswith("gauss"):
        ring = GaussPolynomialRing(int(kind[-1]), 1)

        def entry():
            scale = ring.from_fraction(Fraction(rng.randint(-5, 5), rng.randint(1, 6)))
            return ring.mul(scale, random_qx_poly(ring, rng, max_deg=2))
    else:
        ring = FiniteFieldPolyRing(*{"f5": (5, 1), "f49": (7, 2)}[kind])
        g = ring.generator

        def entry():
            a, b = (random_qx_poly(ring, rng, max_deg=2) for _ in range(2))
            return ring.add(a, ring.mul(g, b)) if g else a

    m = DifferentialModule(
        ring=ring, n=n, g1=linalg.freeze([[entry() for _ in range(n)] for _ in range(n)])
    )
    return rescale_derivation(m, ring.parse("x^2 + 1")) if kind == "scaled" else m


class TestDecompositionOracle:
    """H(X) built as the nabla-family of c(e, X) equals sum_s H_s(X) G_s
    from the universal tables, which production no longer multiplies out."""

    @pytest.mark.parametrize("kind", ["qx", "gauss2", "gauss3", "f5", "f49", "scaled"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_assemble_h_equals_table_sum(self, kind, n):
        rng = seeded(1000 * n + len(kind))
        for _ in range(2 if n < 4 else 1):
            m = oracle_module(kind, n, rng)
            assert assemble_h(m) == decomposition_h(m)

    def test_oracle_modules_have_denominators(self):
        m = oracle_module("qx", 3, seeded(7))
        assert any(len(x.D) > 1 for row in m.g1 for x in row)
        assert any(x.q > 1 for row in m.g1 for x in row)


class TestSpecialize:
    def test_x_at_zero_is_t(self, qx):
        X = (qx.zero, qx.one)
        assert qx.eq(xpoly.specialize(qx, X, qx.zero), qx.t)

    def test_polynomial_substitution(self, qx):
        f = (qx.one, qx.zero, qx.from_int(-1))  # 1 - X^2
        a = qx.from_int(2)
        assert qx.eq(xpoly.specialize(qx, f, a), qx.parse("1 - (x-2)^2"))

    def test_non_constant_rejected(self, qx):
        with pytest.raises(PreconditionError):
            xpoly.specialize(qx, (qx.one,), qx.parse("x"))

    def test_commutes_with_connection(self, qx):
        rng = seeded(67)
        for n in (2, 3):
            m = random_module(qx, rng, n, max_deg=2)
            row = katz_vector_xpoly_row(m)
            a = qx.from_int(rng.randint(-2, 2))
            specialized = tuple(xpoly.specialize(qx, f, a) for f in row)
            lhs = apply_nabla(m, specialized, 1)
            nabla_row = nabla_on_xpoly_row(qx, row, m.g1)
            rhs = tuple(xpoly.specialize(qx, f, a) for f in nabla_row)
            assert all(qx.eq(x, y) for x, y in zip(lhs, rhs))


class TestSpecializeVector:
    """specialize_vector, one Horner evaluation per coordinate, against
    the sum over running powers of t - a in tests/_helpers."""

    @pytest.mark.parametrize("kind", ["qx", "gauss2", "gauss3", "f5", "f49"])
    def test_matches_running_powers(self, kind):
        rng = seeded(800 + len(kind))
        for n in (1, 2, 3, 4):
            m = oracle_module(kind, n, rng)
            rows = katz_vector(m)
            for a in (0, 1, -2, 7):
                a = m.ring.from_int(a)
                assert specialize_vector(m, rows, a) == specialize_by_powers(m, rows, a)

    def test_non_constant_rejected(self, qx):
        m = mk(qx, [["0", "0"], ["1", "0"]])
        with pytest.raises(PreconditionError, match="must be a constant"):
            specialize_vector(m, katz_vector(m), qx.parse("x"))


class TestFindCyclic:
    def test_trivial_connection(self, qx):
        m = mk(qx, [["0"] * 3] * 3)
        res = find_cyclic(m)
        assert qx.eq(res.a, qx.zero)
        assert qx.eq(res.determinant, qx.one)
        for j in range(3):
            assert qx.eq(
                res.vector[j],
                qx.mul(qx.from_fraction(Fraction(1, math.factorial(j))), qx.pow(qx.t, j)),
            )

    def test_hand_computed_n2(self, qx):
        m = mk(qx, [["0", "0"], ["1", "0"]])
        res = find_cyclic(m)
        assert res.candidate_index == 0
        assert qx.eq(res.determinant, qx.parse("1 - x^2"))
        assert res.vector == (qx.one, qx.parse("x"))

    def test_random_results_pass_is_basis(self, qx):
        rng = seeded(71)
        for _ in range(10):
            m = random_module(qx, rng, 3, max_deg=2)
            res = find_cyclic(m)
            family = [res.vector]
            for _ in range(2):
                family.append(apply_nabla(m, family[-1], 1))
            _, ok = is_basis(m, family)
            assert ok

    def test_duplicate_candidates_rejected(self, qx):
        m = mk(qx, [["0", "0"], ["1", "0"]])
        for cands in ([0, 1, 1], [5, 0, 1, 2, 5]):
            with pytest.raises(PreconditionError, match="must be distinct"):
                find_cyclic(m, [qx.from_int(i) for i in cands])

    def test_candidates_are_not_compared_pairwise(self, qx):
        # 8,000 constants took about 30 s when every pair went through ring.eq
        m = mk(qx, [["0", "0"], ["1", "0"]])
        cands = [qx.from_int(i) for i in range(8000)]
        with mock.patch.object(qx, "eq", side_effect=AssertionError("pairwise ring.eq")):
            with pytest.raises(PreconditionError, match="must be distinct"):
                find_cyclic(m, cands + [qx.from_int(4000)])
            with pytest.raises(PreconditionError, match="must be constants"):
                find_cyclic(m, cands + [qx.parse("x")])
            assert find_cyclic(m, cands).candidate_index == 0

    def test_too_few_candidates_rejected(self, qx):
        m = mk(qx, [["0", "0"], ["1", "0"]])
        with pytest.raises(PreconditionError):
            find_cyclic(m, [qx.zero])

    def test_non_field_needs_candidates(self):
        from katzcyclic import GaussPolynomialRing

        ring = GaussPolynomialRing(3)
        m = DifferentialModule(ring=ring, n=2, g1=linalg.zeros(ring, 2))
        with pytest.raises(UnsupportedOperationError):
            find_cyclic(m)

    def test_failed_search_over_a_non_field_is_not_invertible(self):
        # over Q[t] the determinants are nonzero non-units, which the
        # theory allows: no internal error, and no claim about fields
        ring = GaussPolynomialRing(3)
        m = mk(ring, [["t", "1"], ["t^2", "0"]])
        cands = [ring.from_int(i) for i in range(3)]
        with pytest.raises(NotInvertibleError) as info:
            find_cyclic(m, cands)
        assert str(info.value) == "no candidate's determinant is a unit in the ring (gauss_padic)"

    def test_family_is_the_tested_basis(self, qx):
        rng = seeded(72)
        for n in (1, 2, 3):
            m = random_module(qx, rng, n, max_deg=1)
            res = find_cyclic(m)
            assert res.family == nabla_family(m, res.vector, n)
            assert qx.eq(res.determinant, linalg.det(qx, res.family))


class TestCompanionForm:
    def test_rank_one(self, qx):
        m = mk(qx, [["x"]])
        (b0,) = companion_form(m, nabla_family(m, (qx.one,), m.n))
        assert qx.eq(b0, qx.parse("x"))

    def residual_is_zero(self, qx, m, family):
        b = companion_form(m, family)
        family = [tuple(family[0])]
        for _ in range(m.n):
            family.append(apply_nabla(m, family[-1], 1))
        resid = family[m.n]
        for k in range(m.n):
            resid = row_sub(qx, resid, linalg.row_scale(qx, b[k], family[k]))
        assert all(qx.is_zero(c_) for c_ in resid)

    def test_trivial_connection_residual(self, qx):
        m = mk(qx, [["0", "0"], ["0", "0"]])
        res = find_cyclic(m)
        self.residual_is_zero(qx, m, res.family)

    def test_hand_example_residual(self, qx):
        m = mk(qx, [["0", "0"], ["1", "0"]])
        self.residual_is_zero(qx, m, nabla_family(m, (qx.one, qx.parse("x")), m.n))

    def test_random_residuals(self, qx):
        rng = seeded(73)
        for _ in range(5):
            m = random_module(qx, rng, 3, max_deg=2)
            res = find_cyclic(m)
            self.residual_is_zero(qx, m, res.family)

    def test_companion_form_from_the_search_table(self, qx):
        """The search keeps the minor table of the family it returns, and the
        companion form from that table is the one taken from a fresh table:
        on the golden Q(x) corpora, and on two modules whose candidate a = 0
        fails, so that the table of a rejected family could be kept."""
        modules = [m for m in load_corpus("qx_corpus.json") if m.n <= 3] + qx_modules()
        for rows in ([["0", "0"], ["0", "-1/x"]], [["0", "x"], ["1/x^2", "-1"]]):
            modules.append(mk(qx, rows))
        results = [find_cyclic(m) for m in modules]
        assert any(r.candidate_index for r in results)
        for m, result in zip(modules, results):
            table = {}
            assert linalg.det(m.ring, result.family, table) == result.determinant
            assert result.minors == table
            assert companion_form(m, result.family, result.minors) == companion_form(
                m, result.family
            )

    def test_non_basis_rejected(self, qx):
        from katzcyclic import NotInvertibleError

        m = mk(qx, [["0", "1"], ["0", "0"]])
        # c = e0 has nabla(c) = e1? no: row convention gives nabla(e0) = e1;
        # pick c with nabla c parallel to c instead
        with pytest.raises(NotInvertibleError):
            companion_form(m, nabla_family(m, (qx.zero, qx.one), m.n))

    def test_another_familys_table_changes_the_answer(self, qx):
        """The seed is read, not recomputed: a table from another family
        gives another (wrong) answer."""
        rng = seeded(79)
        m = random_module(qx, rng, 3, max_deg=2)
        other = find_cyclic(random_module(qx, rng, 3, max_deg=2))
        result = find_cyclic(m)
        assert companion_form(m, result.family, other.minors) != companion_form(
            m, result.family, result.minors
        )

    @pytest.mark.parametrize("length", [2, 4])
    def test_family_of_the_wrong_length_rejected(self, qx, length):
        m = mk(qx, [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]])
        family = nabla_family(m, find_cyclic(m).vector, length)
        with pytest.raises(PreconditionError, match=f"family of 3 vectors, got {length}"):
            companion_form(m, family)


class TestSmallCharacteristic:
    """A module in characteristic p <= n-1 constructs; every Katz entry
    point, which divides by (n-1)!, refuses it."""

    ROWS = [["0", "1", "0"], ["0", "0", "1"], ["x", "0", "0"]]

    @pytest.fixture
    def f2(self):
        return mk(FiniteFieldPolyRing(2), self.ROWS)

    @pytest.mark.parametrize("entry", [
        katz_vector, find_cyclic, base_change, check_prop_2_3,
        lambda m: invert_coefficients(m, linalg.zeros(m.ring, m.n)),
    ], ids=["katz_vector", "find_cyclic", "base_change", "check_prop_2_3",
            "invert_coefficients"])
    def test_entry_points_refuse(self, f2, entry):
        with pytest.raises(FactorialNotInvertibleError, match=r"\(3-1\)! is not invertible"):
            entry(f2)

    def test_find_cyclic_refuses_before_reading_candidates(self, f2):
        with pytest.raises(FactorialNotInvertibleError):
            find_cyclic(f2, [f2.ring.zero, f2.ring.one])
        # over F_8[x] the seven candidates are distinct constants
        ring = FiniteFieldPolyRing(2, 3)
        m = mk(ring, self.ROWS)
        cands = [ring.parse(a) for a in ("0", "1", "g", "g+1", "g^2", "g^2+1", "g^2+g")]
        with pytest.raises(FactorialNotInvertibleError):
            find_cyclic(m, cands)

    def test_rescaled_module_is_refused_too(self):
        ring = FiniteFieldPolyRing(2, 2)
        scaled = rescale_derivation(mk(ring, self.ROWS), ring.parse("g"))
        assert scaled.ring.eq(scaled.ring.derive(ring.parse("x")), ring.parse("g"))
        with pytest.raises(FactorialNotInvertibleError):
            katz_vector(scaled)


class TestDerivationRescaling:
    def test_triangular_base_change_n2(self, qx):
        m = mk(qx, [["0", "0"], ["1", "0"]])
        f = qx.parse("x")
        res = find_cyclic(m)
        c = res.vector
        scaled = rescale_derivation(m, f)
        family = [tuple(c)]
        for _ in range(m.n - 1):
            family.append(apply_nabla(m, family[-1], 1))
        scaled_family = [tuple(c)]
        for _ in range(m.n - 1):
            scaled_family.append(apply_nabla(scaled, scaled_family[-1], 1))
        basis_rows = linalg.freeze(family)
        for k, w in enumerate(scaled_family):
            coords = linalg.solve_left(qx, basis_rows, w)
            assert qx.eq(coords[k], qx.pow(f, k))
            for j in range(k + 1, m.n):
                assert qx.is_zero(coords[j])

    def test_cyclic_transfers_under_rescaling(self, qx):
        m = mk(qx, [["0", "0"], ["1", "0"]])
        f = qx.parse("x")
        res = find_cyclic(m)
        scaled = rescale_derivation(m, f)
        family = [res.vector, apply_nabla(scaled, res.vector, 1)]
        _, ok = is_basis(scaled, family)
        assert ok
