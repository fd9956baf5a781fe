import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katzcyclic import (
    DifferentialModule,
    GaussPolynomialRing,
    MatrixNormKind,
    NormValue,
    PreconditionError,
    RationalFunctionField,
    UnsupportedOperationError,
    apply_nabla,
    certify_lemma_2_1,
    check_prop_2_3,
    check_prop_2_5,
    check_prop_2_8,
    invertibility_witness_norm,
    is_basis,
    iterated_matrices,
    katz_vector,
    linalg,
    matrix_norm,
    rescale_derivation,
    specialize_vector,
)
from katzcyclic.katz import h_matrix, h_matrix_at
from katzcyclic.ultranorm import norm_kind

from _helpers import (
    h_norm_bounds,
    lemma_2_2_bound,
    load_corpus,
    mat_add,
    recheck,
    ring_norm_data,
    seeded,
    witness_delta_from_h_of_x,
)


def mk(ring, rows):
    g1 = linalg.freeze([[ring.parse(e) for e in row] for row in rows])
    return DifferentialModule(ring=ring, n=len(rows), g1=g1)


def random_gauss_matrix(ring, rng, n, max_scale=3):
    def entry():
        scale = ring.from_int(ring.prime ** rng.randint(0, max_scale))
        coeffs = [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))]
        acc = ring.zero
        power = ring.one
        for c in coeffs:
            acc = ring.add(acc, ring.mul(ring.from_int(c), power))
            power = ring.mul(power, ring.var_element)
        return ring.mul(scale, acc)

    return linalg.freeze([[entry() for _ in range(n)] for _ in range(n)])


def prop_2_3_bound_by_powers(ring, n):
    """prop2.3's bound |H0(t)|^(-2) min(1, |d|^(-(2n-3))), with |H0(t)|^(-1)
    = min_i |i!|/|t^i| read off powers of t built by ``ring.mul``."""
    t_pows, d_norm, fact = ring_norm_data(ring, n)
    h0_inv = min(fact[i] / t_pows[i] for i in range(n))
    return h0_inv ** 2 * min(NormValue.one(ring.prime), d_norm ** -(2 * n - 3))


class TestMatrixNorm:
    def test_identity_has_norm_one(self):
        for p in (2, 3, 5):
            ring = GaussPolynomialRing(p)
            a = linalg.identity(ring, 3)
            assert matrix_norm(ring, a) == NormValue.one(p)

    def test_sup_example(self):
        ring = GaussPolynomialRing(3)
        a = linalg.freeze([[ring.zero, ring.parse("3")], [ring.parse("3*t"), ring.zero]])
        assert matrix_norm(ring, a) == NormValue(3, -1)

    def test_rho_weight_shifts_entries(self):
        # with rho = |t|^(-1) = p the (0,1) entry picks up a factor p
        ring = GaussPolynomialRing(5, radius_exp=1)
        kind = MatrixNormKind.rho_t_inverse(ring)
        assert kind.rho == NormValue(5, 1)
        a = linalg.freeze([[ring.zero, ring.parse("5")], [ring.zero, ring.zero]])
        assert matrix_norm(ring, a) == NormValue(5, -1)
        assert matrix_norm(ring, a, kind) == NormValue(5, 0)

    def test_zero_matrix(self):
        ring = GaussPolynomialRing(2)
        assert matrix_norm(ring, linalg.zeros(ring, 2)).is_zero

    def test_needs_banach_ring(self):
        qx = RationalFunctionField()
        with pytest.raises(UnsupportedOperationError):
            matrix_norm(qx, linalg.identity(qx, 2))

    def test_rho_d_needs_a_normed_ring(self):
        """Q(x) carries no norm, so it has no |d| to build rho from."""
        with pytest.raises(UnsupportedOperationError, match="carries no norm"):
            MatrixNormKind.rho_d(RationalFunctionField())

    def test_rho_must_be_positive(self):
        with pytest.raises(PreconditionError):
            MatrixNormKind("bad", NormValue.zero(2))

    @pytest.mark.parametrize("p,r", [(2, 0), (3, 1), (5, 2)])
    def test_ultrametric_and_submultiplicative(self, p, r):
        ring = GaussPolynomialRing(p, radius_exp=r)
        rng = seeded(100 * p + r)
        kinds = [None, MatrixNormKind.rho_t_inverse(ring), MatrixNormKind.rho_d(ring)]
        for _ in range(25):
            a = random_gauss_matrix(ring, rng, 3)
            b = random_gauss_matrix(ring, rng, 3)
            for kind in kinds:
                na = matrix_norm(ring, a, kind)
                nb = matrix_norm(ring, b, kind)
                assert matrix_norm(ring, mat_add(ring, a, b), kind) <= max(na, nb)
                assert matrix_norm(ring, linalg.mat_mul(ring, a, b), kind) <= na * nb
                da = tuple(tuple(ring.derive(x) for x in row) for row in a)
                assert matrix_norm(ring, da, kind) <= ring.derivation_norm() * na

    def test_rho_norm_is_sup_norm_after_conjugation(self):
        # rho-sup-norm of A = sup-norm of D A D^(-1) with D = diag(c^i),
        # |c| = rho^(-1)
        p, r = 3, 1
        ring = GaussPolynomialRing(p, radius_exp=r)
        kind = MatrixNormKind.rho_d(ring)  # rho = p^r = 3
        c = ring.from_int(p)  # |c| = 3^(-1) = rho^(-1)
        rng = seeded(77)
        for _ in range(10):
            a = random_gauss_matrix(ring, rng, 3)
            conj = linalg.freeze(
                [
                    [
                        ring.mul(ring.pow(c, i), ring.div(a[i][j], ring.pow(c, j)))
                        for j in range(3)
                    ]
                    for i in range(3)
                ]
            )
            assert matrix_norm(ring, a, kind) == matrix_norm(ring, conj)


P_KINDS = st.sampled_from(["sup", "rho-t", "rho-d", "rho-any"])


@st.composite
def gauss_matrices(draw):
    """A Gauss ring and a matrix over it with many zero entries, or the
    zero matrix, plus a norm kind: sup, rho-t, rho-d or rho = p^k."""
    p = draw(st.sampled_from([2, 3, 5]))
    ring = GaussPolynomialRing(p, radius_exp=draw(st.integers(0, 2)))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    zero = draw(st.booleans())
    coeff = st.fractions(min_value=-40, max_value=40, max_denominator=50)

    def entry():
        if zero or draw(st.booleans()):
            return ring.zero
        acc = ring.zero
        for k, c in enumerate(draw(st.lists(coeff, min_size=1, max_size=3))):
            acc = ring.add(acc, ring.mul(ring.from_fraction(c), ring.pow(ring.t, k)))
        return acc

    a = linalg.freeze([[entry() for _ in range(cols)] for _ in range(rows)])
    name = draw(P_KINDS)
    kind = {
        "sup": None,
        "rho-t": MatrixNormKind.rho_t_inverse(ring),
        "rho-d": MatrixNormKind.rho_d(ring),
        "rho-any": MatrixNormKind("rho", NormValue(p, draw(st.integers(-3, 3)))),
    }[name]
    return ring, a, kind


class TestMatrixNormDefinition:
    @given(gauss_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_normvalue_definition(self, case):
        ring, a, kind = case
        rho = kind.rho if kind is not None else NormValue.one(ring.prime)
        best = NormValue.zero(ring.prime)
        for i, row in enumerate(a):
            for j, entry in enumerate(row):
                best = max(best, ring.norm(entry) * rho ** (j - i))
        assert matrix_norm(ring, a, kind) == best

    def test_zero_matrix_under_every_kind(self):
        ring = GaussPolynomialRing(3, 1)
        a = linalg.freeze([[ring.zero] * 3] * 2)
        for kind in (None, MatrixNormKind.rho_t_inverse(ring), MatrixNormKind.rho_d(ring)):
            assert matrix_norm(ring, a, kind) == NormValue.zero(3)

    @pytest.mark.parametrize("rows", [[["1", "t"], ["0", "3"]], [["0"]]])
    def test_kind_over_another_prime_raises(self, rows):
        ring = GaussPolynomialRing(2, 1)
        a = mk(ring, rows).g1
        with pytest.raises(ValueError):
            matrix_norm(ring, a, MatrixNormKind("rho", NormValue(3, 1)))


class TestNormKind:
    def test_known_names(self):
        ring = GaussPolynomialRing(3, radius_exp=1)
        m = mk(ring, [["0", "3"], ["3*t", "0"]])
        assert norm_kind(m, None) is None and norm_kind(m, "sup") is None
        assert norm_kind(m, "rho-t") == MatrixNormKind.rho_t_inverse(ring)
        assert norm_kind(m, "rho-d") == MatrixNormKind.rho_d(ring)
        # the rho-d norm weighs G1 = [[0, 3], [3t, 0]] differently from sup
        assert certify_lemma_2_1(m, norm_kind(m, "rho-d")).norms["G1"] == NormValue(3, 0)
        assert certify_lemma_2_1(m, norm_kind(m, "sup")).norms["G1"] == NormValue(3, -1)

    @pytest.mark.parametrize("name", ["rho_d", "rho", "", "SUP", "rho-t "])
    def test_unknown_name_refused(self, name):
        # an unknown name once meant the sup-norm without a word
        ring = GaussPolynomialRing(3, radius_exp=1)
        m = mk(ring, [["0", "3"], ["3*t", "0"]])
        with pytest.raises(PreconditionError, match="unknown matrix norm"):
            norm_kind(m, name)


class TestLemma22Bound:
    def test_s1_is_g1_norm(self):
        g1 = NormValue(3, -2)
        d = NormValue(3, 1)
        assert lemma_2_2_bound(g1, d, 1) == g1

    def test_growth_uses_larger_of_g1_and_d(self):
        g1 = NormValue(3, -2)
        d = NormValue(3, 1)
        assert lemma_2_2_bound(g1, d, 3) == NormValue(3, 0)  # g1 * d^2
        big = NormValue(3, 2)
        assert lemma_2_2_bound(big, d, 3) == NormValue(3, 6)  # big^3

    def test_s_zero_rejected(self):
        with pytest.raises(PreconditionError):
            lemma_2_2_bound(NormValue.one(2), NormValue.one(2), 0)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_bound_holds_on_corpus(self, p):
        for m in load_corpus(f"gauss_corpus_p{p}.json")[:20]:
            ring = m.ring
            kinds = [None, MatrixNormKind.rho_d(ring)]
            gs = iterated_matrices(m, 2 * m.n - 2)
            d = ring.derivation_norm()
            for kind in kinds:
                g1_norm = matrix_norm(ring, m.g1, kind)
                for s in range(1, 2 * m.n - 1):
                    assert matrix_norm(ring, gs[s], kind) <= lemma_2_2_bound(
                        g1_norm, d, s
                    )


class TestHNormBounds:
    @pytest.mark.parametrize("p,r,n", [(2, 0, 2), (2, 1, 3), (3, 0, 3), (5, 1, 2), (5, 2, 3)])
    def test_bounds_dominate_materialized_norms(self, p, r, n):
        ring = GaussPolynomialRing(p, radius_exp=r)
        t_pows, d_norm, fact = ring_norm_data(ring, n)
        bounds = h_norm_bounds(n, t_pows, d_norm, fact)
        rho_t = MatrixNormKind.rho_t_inverse(ring)
        rho_d = MatrixNormKind.rho_d(ring)
        h0_t = h_matrix_at(ring, h_matrix(0, n), ring.t)
        h0_neg = h_matrix_at(ring, h_matrix(0, n), ring.neg(ring.t))
        assert matrix_norm(ring, h0_t) <= bounds.sup_h0
        assert matrix_norm(ring, h0_neg) <= bounds.sup_h0
        assert matrix_norm(ring, h0_t, rho_t) <= bounds.rho_t_h0
        assert matrix_norm(ring, h0_t, rho_d) <= bounds.rho_d_h0
        for s in range(2 * n - 1):
            hs = h_matrix_at(ring, h_matrix(s, n), ring.t)
            assert matrix_norm(ring, hs, rho_t) <= bounds.rho_t_hs[s]
            assert matrix_norm(ring, hs, rho_d) <= bounds.rho_d_hs[s]

    def test_weight_monotonicity(self):
        # i -> rho^i / |(s+i)!| is nondecreasing when rho = p^r >= 1,
        # the fact behind the closed-form bounds
        for p in (2, 3, 5):
            for r in (0, 1, 2):
                rho = NormValue(p, r)
                for s in range(13):
                    prev = None
                    for i in range(13):
                        cur = rho ** i / NormValue.of_int(math.factorial(s + i), p)
                        if prev is not None:
                            assert prev <= cur
                        prev = cur

    def test_d_times_t_is_one(self):
        for p in (2, 3, 5):
            for r in (0, 1, 3):
                ring = GaussPolynomialRing(p, radius_exp=r)
                assert ring.derivation_norm() * ring.norm(ring.t) == NormValue.one(p)


class TestProp23:
    def test_certified_example(self):
        ring = GaussPolynomialRing(3)
        m = mk(ring, [["0", "3"], ["3*t", "0"]])
        cert = check_prop_2_3(m)
        assert cert.certified
        assert cert.norms["G1"] == NormValue(3, -1)
        assert cert.norms["bound"] == NormValue(3, 0)
        assert cert.witness is not None
        assert recheck(cert)

    def test_boundary_reported(self):
        ring = GaussPolynomialRing(3)
        m = mk(ring, [["0", "1"], ["t", "0"]])  # |G1| = 1 = bound
        cert = check_prop_2_3(m)
        assert not cert.certified
        assert cert.boundary
        assert cert.witness is None

    def test_scaling_threshold_p2_n3(self):
        # bound is |1!/t|^0 ... for p=2, r=0, n=3 the bound is
        # (|2!|)^2 = 1/4: entries divisible by 2^k certify iff k >= 3
        ring = GaussPolynomialRing(2)
        for k in range(6):
            rows = [[f"{2 ** k}*t", str(2 ** k), "0"],
                    ["0", f"{2 ** k}", f"{2 ** k}*t^2"],
                    [f"{2 ** k}", "0", "0"]]
            cert = check_prop_2_3(mk(ring, rows))
            assert cert.norms["bound"] == NormValue(2, -2)
            assert cert.certified == (k >= 3)

    def test_needs_banach(self):
        qx = RationalFunctionField()
        m = mk(qx, [["0", "1"], ["x", "0"]])
        with pytest.raises(UnsupportedOperationError):
            check_prop_2_3(m)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_bound_matches_powers_of_t_on_corpus(self, p):
        for m in load_corpus(f"gauss_corpus_p{p}.json"):
            assert check_prop_2_3(m).norms["bound"] == prop_2_3_bound_by_powers(m.ring, m.n)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("r", [0, 1, 3])
    def test_bound_matches_powers_of_t_by_rank(self, p, r):
        # rescaling by p moves t to t/p, so the shortcut |t^i| = |t|^i is
        # checked on the scaled ring's own t as well
        ring = GaussPolynomialRing(p, radius_exp=r)
        rng = seeded(100 * p + r)
        for n in range(1, 5):
            m = DifferentialModule(ring=ring, n=n, g1=random_gauss_matrix(ring, rng, n))
            for mod in (m, rescale_derivation(m, ring.from_int(p))):
                bound = check_prop_2_3(mod).norms["bound"]
                assert bound == prop_2_3_bound_by_powers(mod.ring, n)


class TestRhoCriteria:
    def test_certified_example_p5_r1(self):
        ring = GaussPolynomialRing(5, radius_exp=1)
        m = mk(ring, [["0", "25"], ["25*t", "0"]])
        cert = check_prop_2_5(m)
        assert cert.certified and recheck(cert)

    def test_rho_criteria_agree_on_gauss_rings(self):
        # |d| = |t|^(-1) on these rings, so the two rho-sup-norms and the
        # two bounds coincide
        for p in (2, 3, 5):
            for r in (0, 1, 2):
                ring = GaussPolynomialRing(p, radius_exp=r)
                rng = seeded(10 * p + r)
                for _ in range(5):
                    g1 = random_gauss_matrix(ring, rng, 2)
                    m = DifferentialModule(ring=ring, n=2, g1=g1)
                    c5 = check_prop_2_5(m)
                    c8 = check_prop_2_8(m)
                    assert c5.certified == c8.certified
                    assert c5.norms["G1"] == c8.norms["G1"]
                    assert c5.norms["bound"] == c8.norms["bound"]

    def test_radius_zero_reduces_to_sup_comparison(self):
        # r = 0 makes rho = 1, so the rho check compares the plain
        # sup-norm against |(n-1)!|^2
        ring = GaussPolynomialRing(3)
        m = mk(ring, [["0", "3"], ["3*t", "0"]])
        cert = check_prop_2_5(m)
        assert cert.norms["G1"] == matrix_norm(ring, m.g1)
        assert cert.norms["bound"] == NormValue.one(3)


class TestLemma21:
    def test_per_s_norms_example(self):
        ring = GaussPolynomialRing(3)
        m = mk(ring, [["0", "3"], ["3*t", "0"]])
        cert = certify_lemma_2_1(m)
        assert cert.certified
        assert cert.per_s == (NormValue(3, -1), NormValue(3, -2))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_per_s_norms_match_the_two_product_path(self, p):
        """Against H0(-t) (H_s(t) G_s) taken as two products of the
        evaluated tables, with each norm by ``matrix_norm``: on seeded
        modules with G1 times p^e for e = -2..1 (so that the iterates'
        denominator m is not always a p-adic unit), on each plain module
        over the ring rescaled by p (which has no ``lemma_norms`` of its
        own), and on modules whose products F_s G_s vanish for some or
        every s.  At p = 3, r = 1 one more module per rank 5..8, G1 times
        1/3, takes s up to 14.  A certified module's witness is c(e, t)
        built from G_0 .. G_{n-1} the usual way."""
        rng = seeded(300 + p)
        compared = 0
        for r in (0, 1, 2):
            ring = GaussPolynomialRing(p, radius_exp=r)

            def scaled(g1, e):
                c = ring.from_fraction(Fraction(p) ** e)
                return DifferentialModule(
                    ring=ring,
                    n=len(g1),
                    g1=linalg.freeze([[ring.mul(c, x) for x in row] for row in g1]),
                )

            modules = [
                # G1 nilpotent and constant: G_s = G1^s vanishes for s >= 2
                mk(ring, [["0", "1"], ["0", "0"]]),
                DifferentialModule(ring=ring, n=3, g1=linalg.zeros(ring, 3)),
            ]
            for n in (2, 3, 4):
                g1 = random_gauss_matrix(ring, rng, n, max_scale=2 * n)
                modules.extend(scaled(g1, e) for e in (-2, -1, 0, 1))
                modules.append(rescale_derivation(modules[-2], ring.from_int(p)))
            if (p, r) == (3, 1):
                big = seeded(700)
                modules.extend(
                    scaled(random_gauss_matrix(ring, big, n, max_scale=2 * n), -1)
                    for n in (5, 6, 7, 8)
                )
            for m in modules:
                n, mring = m.n, m.ring
                gs = iterated_matrices(m, 2 * n - 2)
                h0_neg = h_matrix_at(mring, h_matrix(0, n), mring.neg(mring.t))
                products = [
                    linalg.mat_mul(
                        mring,
                        linalg.mat_mul(mring, h0_neg, h_matrix_at(mring, h_matrix(s, n), mring.t)),
                        gs[s],
                    )
                    for s in range(1, 2 * n - 1)
                ]
                kinds = (None, MatrixNormKind.rho_t_inverse(mring), MatrixNormKind.rho_d(mring))
                for kind in kinds:
                    expected = tuple(matrix_norm(mring, prod, kind) for prod in products)
                    cert = certify_lemma_2_1(m, kind)
                    assert cert.per_s == expected
                    if cert.certified:
                        assert cert.witness == specialize_vector(
                            m, katz_vector(m), mring.from_int(0)
                        )
                    compared += 1
        assert compared == (3 * (2 + 3 * 5) + (4 if p == 3 else 0)) * 3

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_witness_norm_matches_h_of_x_at_t(self, p):
        """H(t) as the nabla-family of c(e, t) against H(X) over ring[X]
        evaluated at X := t, in all three norms, on seeded modules and
        on the same modules over the ring rescaled by p (where t is
        t/p)."""
        rng = seeded(500 + p)
        compared = 0
        for r in (0, 1, 2):
            ring = GaussPolynomialRing(p, radius_exp=r)
            for n in (1, 2, 3, 4):
                g1 = random_gauss_matrix(ring, rng, n, max_scale=n)
                plain = DifferentialModule(ring=ring, n=n, g1=g1)
                for m in (plain, rescale_derivation(plain, ring.from_int(p))):
                    delta = witness_delta_from_h_of_x(m)
                    kinds = (None, MatrixNormKind.rho_t_inverse(m.ring),
                             MatrixNormKind.rho_d(m.ring))
                    for kind in kinds:
                        expected = matrix_norm(m.ring, delta, kind)
                        assert invertibility_witness_norm(m, kind) == expected
                        compared += 1
        assert compared == 3 * 4 * 2 * 3

    def test_witness_norm_small_when_certified(self):
        ring = GaussPolynomialRing(3)
        m = mk(ring, [["0", "3"], ["3*t", "0"]])
        assert invertibility_witness_norm(m) == NormValue(3, -1)

    def test_not_certified_at_unit_norm(self):
        ring = GaussPolynomialRing(3)
        m = mk(ring, [["0", "1"], ["t", "0"]])
        cert = certify_lemma_2_1(m)
        assert not cert.certified
        assert cert.witness is None

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_implication_chain_on_corpus(self, p):
        corpus = load_corpus(f"gauss_corpus_p{p}.json")
        checks = [
            (check_prop_2_3, None),
            (check_prop_2_5, "rho-t"),
            (check_prop_2_8, "rho-d"),
        ]
        certified_count = 0
        for m in corpus:
            ring = m.ring
            kind_by_name = {
                None: None,
                "rho-t": MatrixNormKind.rho_t_inverse(ring),
                "rho-d": MatrixNormKind.rho_d(ring),
            }
            for check, kind_name in checks:
                cert = check(m)
                if not cert.certified:
                    continue
                certified_count += 1
                kind = kind_by_name[kind_name]
                sharp = certify_lemma_2_1(m, kind)
                assert sharp.certified
                assert invertibility_witness_norm(m, kind) < NormValue.one(p)
        assert certified_count > 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_witness_is_the_candidate_at_zero_on_corpus(self, p):
        """The witness built from lemma 2.1's own G_0 .. G_{n-1} is c(e, t)."""
        certified = 0
        for m in load_corpus(f"gauss_corpus_p{p}.json"):
            for kind in (None, MatrixNormKind.rho_t_inverse(m.ring)):
                cert = certify_lemma_2_1(m, kind)
                if not cert.certified:
                    assert cert.witness is None
                    continue
                certified += 1
                zero = m.ring.from_int(0)
                assert cert.witness == specialize_vector(m, katz_vector(m), zero)
        assert certified > 0

    def test_certified_witness_determinant_is_one_plus_small(self):
        # the family determinant need not be a unit of the polynomial
        # ring, but certification makes it 1 + (norm < 1), hence a unit
        # of the norm completion
        ring = GaussPolynomialRing(3)
        m = mk(ring, [["0", "9"], ["9*t", "0"]])
        cert = check_prop_2_3(m)
        assert cert.certified
        family = [cert.witness]
        for _ in range(m.n - 1):
            family.append(apply_nabla(m, family[-1], 1))
        det, _ = is_basis(m, family)
        assert ring.norm(ring.sub(det, ring.one)) < NormValue.one(3)

    def test_rescaled_twice_matches_rescaled_once(self):
        """A ring rescaled by 2 and then by 5 has t = t/10, as the ring
        rescaled once by 10 does, so both certify alike; neither has
        integer iterates nor the witness routine, so the witness takes
        the path through the iterated matrices."""
        ring = GaussPolynomialRing(3, 1)
        m = mk(ring, [["0", "3"], ["3*t", "0"]])
        twice = rescale_derivation(rescale_derivation(m, ring.from_int(2)), ring.from_int(5))
        once = rescale_derivation(m, ring.from_int(10))
        assert twice.ring.t == once.ring.t == ring.div(ring.t, ring.from_int(10))
        assert not hasattr(twice.ring, "integer_iterates")
        assert not hasattr(twice.ring, "katz_vector_at_t")
        for kind in (None, MatrixNormKind.rho_t_inverse(ring), MatrixNormKind.rho_d(ring)):
            a, b = certify_lemma_2_1(twice, kind), certify_lemma_2_1(once, kind)
            assert a.per_s == b.per_s and a.certified == b.certified
            assert a.witness == b.witness
        assert a.witness == specialize_vector(once, katz_vector(once), ring.zero)


def _candidate_at_zero(m):
    return specialize_vector(m, katz_vector(m), m.ring.from_int(0))


def _certificates(m):
    """Every certificate of m: the three prop2.x and lemma2.1 under each norm."""
    kinds = (None, MatrixNormKind.rho_t_inverse(m.ring), MatrixNormKind.rho_d(m.ring))
    return [check_prop_2_3(m), check_prop_2_5(m), check_prop_2_8(m)] + [
        certify_lemma_2_1(m, kind) for kind in kinds
    ]


class TestIntegerWitness:
    """Over Q[t], the one ring with the witness routine, c(e, t) is read
    off the integer iterates A_s, with G_s = A_s/m^s, by
    ``katz_vector_at_t``; it must be the candidate vector of
    ``katz_vector`` specialized at 0."""

    def assert_witnesses(self, m):
        ring, n = m.ring, m.n
        expected = _candidate_at_zero(m)
        for s_max in (n - 1, 2 * n - 2):
            iterates = ring.integer_iterates(m.g1, s_max)
            assert ring.katz_vector_at_t(n, iterates) == expected
        certified = 0
        for cert in _certificates(m):
            if cert.certified:
                assert cert.witness == expected
                certified += 1
        return certified

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_corpus(self, p):
        certified = sum(
            self.assert_witnesses(m) for m in load_corpus(f"gauss_corpus_p{p}.json")
        )
        assert certified > 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_seeded_ranks_1_to_5_with_scales(self, p):
        """G1 times p^e for e = -2..1, so the iterates' denominator m is
        not always a p-adic unit, at every radius 0..2."""
        rng = seeded(700 + p)
        certified = 0
        for r in (0, 1, 2):
            ring = GaussPolynomialRing(p, radius_exp=r)
            for n in range(1, 6):
                g1 = random_gauss_matrix(ring, rng, n, max_scale=n + 1)
                for e in (-2, -1, 0, 1):
                    c = ring.from_fraction(Fraction(p) ** e)
                    m = DifferentialModule(
                        ring=ring, n=n, g1=linalg.mat_scale(ring, c, g1)
                    )
                    certified += self.assert_witnesses(m)
        assert certified > 0

    def test_zero_and_nilpotent_connections(self):
        ring = GaussPolynomialRing(3)
        for m in (
            DifferentialModule(ring=ring, n=3, g1=linalg.zeros(ring, 3)),
            mk(ring, [["0", "1/3"], ["0", "0"]]),
            mk(ring, [["0"]]),
        ):
            self.assert_witnesses(m)


class TestCertificateRecord:
    def test_recheck_matches_verdict(self):
        ring = GaussPolynomialRing(3)
        for rows in ([["0", "3"], ["3*t", "0"]], [["0", "1"], ["t", "0"]]):
            m = mk(ring, rows)
            for check in (check_prop_2_3, check_prop_2_5, check_prop_2_8, certify_lemma_2_1):
                cert = check(m)
                assert recheck(cert) == cert.certified

    def test_json_serialization(self):
        ring = GaussPolynomialRing(3)
        m = mk(ring, [["0", "3"], ["3*t", "0"]])
        doc = check_prop_2_3(m).to_json(ring)
        assert doc["criterion"] == "prop2.3"
        assert doc["verdict"] == "certified"
        assert doc["norms"]["G1"] == "3^-1"
        assert doc["norms"]["bound"] == "3^0"
        assert isinstance(doc["witness"], list) and len(doc["witness"]) == 2

    def test_json_without_ring_omits_witness(self):
        ring = GaussPolynomialRing(3)
        m = mk(ring, [["0", "3"], ["3*t", "0"]])
        doc = certify_lemma_2_1(m).to_json()
        assert doc["witness"] is None
        assert doc["per_s_norms"] == ["3^-1", "3^-2"]
