"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion; each test also prints an ``ACCEPTANCE n: PASS``
line (visible with ``-s`` or on failure) summarizing what was checked.
"""

import math
import time
from fractions import Fraction

import pytest

from katzcyclic import (
    DifferentialModule,
    GaussPolynomialRing,
    MatrixNormKind,
    NormValue,
    RationalFunctionField,
    apply_nabla,
    base_change,
    certify_lemma_2_1,
    charp_counterexample,
    check_prop_2_3,
    check_prop_2_5,
    check_prop_2_8,
    derivative_coefficients,
    find_cyclic,
    invert_coefficients,
    invertibility_witness_norm,
    is_basis,
    iterated_matrices,
    linalg,
    matrix_norm,
    polys,
    rescale_derivation,
    xpoly,
)
from katzcyclic.fields import QQ
from katzcyclic.katz import alpha, assemble_h, h_matrix, qx_to_str
from katzcyclic.xpoly import XPolyRing

from _genericring import GenericConnectionRing
from _helpers import (
    decomposition_h,
    expanded_h_rows,
    lemma_2_2_bound,
    load_corpus,
    random_module,
    seeded,
)


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_01_golden_tables_rank_two():
    start = time.perf_counter()
    printed = [
        [[qx_to_str(e) for e in row] for row in h_matrix(s, 2)] for s in range(3)
    ]
    expected = [
        [["1", "X"], ["0", "1"]],
        [["-X", "0"], ["0", "X"]],
        [["0", "0"], ["-X", "0"]],
    ]
    assert printed == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"rank-2 universal tables byte-exact in {elapsed:.3f}s")


def test_criterion_02_spot_coefficients():
    assert alpha(1, 0, 1, 3) == -2
    assert alpha(2, 2, 1, 3) == -3
    assert alpha(3, 3, 1, 4) == 4
    assert alpha(4, 4, 2, 5) == 25
    report(2, "four spot coefficients of the larger tables match exactly")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_criterion_03_master_oracle(n):
    # H(X) assembled from the universal tables equals the direct symbolic
    # expansion of the derivative rows of the candidate vector, and the
    # production H(X), over a ring whose connection entries are
    # independent indeterminates
    start = time.perf_counter()
    ring = GenericConnectionRing(n, max_order=2 * n)
    m = DifferentialModule(ring=ring, n=n, g1=ring.g1_matrix())
    tables = decomposition_h(m)
    direct = expanded_h_rows(m)
    production = assemble_h(m)
    for i in range(n):
        for k in range(n):
            assert xpoly.eq(ring, tables[i][k], direct[i][k])
            assert xpoly.eq(ring, production[i][k], direct[i][k])
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(3, f"generic-connection oracle matches at n={n} in {elapsed:.1f}s")


def test_criterion_04_structural_identities():
    # (a) H0(X) H0(-X) = Id for n <= 6
    for n in range(2, 7):
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
                assert acc == ((Fraction(1),) if i == j else ())

    # (b) P(0) = 1 and deg P <= n(n-1) on 100 seeded rational modules
    qx = RationalFunctionField()
    rng = seeded(20240812)
    for k in range(100):
        n = 2 + k % 3
        m = random_module(qx, rng, n, max_deg=2)
        bc = base_change(m)  # raises internally if either identity fails
        assert qx.eq(bc.coefficients[0], qx.one)
        assert xpoly.degree(bc.det_poly) <= n * (n - 1)

    # (c) inversion round trip on 100 seeded degree-(n-1) vectors
    rng = seeded(20240813)
    for k in range(100):
        n = 2 + k % 3
        m = random_module(qx, rng, n, max_deg=2)
        c0 = [
            tuple(qx.from_int(rng.randint(-3, 3)) for _ in range(n))
            for _ in range(n)
        ]
        zero_components = [derivative_coefficients(m, c0, i, 0) for i in range(n)]
        assert tuple(invert_coefficients(m, zero_components)) == tuple(
            tuple(r) for r in c0
        )
    report(4, "inverse pair, determinant normalization, and round trip all exact")


def test_criterion_05_cyclic_search_on_corpus():
    corpus = load_corpus("qx_corpus.json")
    assert len(corpus) == 200
    failures = 0
    for m in corpus:
        res = find_cyclic(m)  # default n(n-1)+1 integer constants
        family = [res.vector]
        for _ in range(m.n - 1):
            family.append(apply_nabla(m, family[-1], 1))
        det, ok = is_basis(m, family)
        if not (ok and m.ring.eq(det, res.determinant)):
            failures += 1
    assert failures == 0
    report(5, "cyclic vector found for all 200 corpus modules, zero failures")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_criterion_06_derivation_rescaling_triangular(n):
    qx = RationalFunctionField()
    f = qx.parse("x")
    rng = seeded(60 + n)
    m = random_module(qx, rng, n, max_deg=1)
    c = find_cyclic(m).vector
    scaled = rescale_derivation(m, f)
    family = [tuple(c)]
    scaled_family = [tuple(c)]
    for _ in range(n - 1):
        family.append(apply_nabla(m, family[-1], 1))
        scaled_family.append(apply_nabla(scaled, scaled_family[-1], 1))
    basis_rows = linalg.freeze(family)
    for k, w in enumerate(scaled_family):
        coords = linalg.solve_left(qx, basis_rows, w)
        assert qx.eq(coords[k], qx.pow(f, k))
        for j in range(k + 1, n):
            assert qx.is_zero(coords[j])
    report(6, f"rescaled-derivation base change is triangular with f^k diagonal, n={n}")


def test_criterion_07_certification_soundness():
    start = time.perf_counter()
    checked = certified = 0
    for p in (2, 3, 5):
        corpus = load_corpus(f"gauss_corpus_p{p}.json")
        assert len(corpus) == 50
        one = NormValue.one(p)
        for m in corpus:
            ring = m.ring
            for check, kind in (
                (check_prop_2_3, None),
                (check_prop_2_5, MatrixNormKind.rho_t_inverse(ring)),
                (check_prop_2_8, MatrixNormKind.rho_d(ring)),
            ):
                checked += 1
                if not check(m).certified:
                    continue
                certified += 1
                assert certify_lemma_2_1(m, kind).certified
                assert invertibility_witness_norm(m, kind) < one
    elapsed = time.perf_counter() - start
    assert certified > 0
    assert elapsed < 120.0
    report(
        7,
        f"{certified}/{checked} certificates sound (sharp check + witness) "
        f"in {elapsed:.1f}s",
    )


def test_criterion_08_iterate_norm_bound():
    violations = 0
    for p in (2, 3, 5):
        for m in load_corpus(f"gauss_corpus_p{p}.json"):
            ring = m.ring
            d = ring.derivation_norm()
            gs = iterated_matrices(m, 2 * m.n - 2)
            for kind in (None, MatrixNormKind.rho_d(ring)):
                g1_norm = matrix_norm(ring, m.g1, kind)
                for s in range(1, 2 * m.n - 1):
                    if not matrix_norm(ring, gs[s], kind) <= lemma_2_2_bound(
                        g1_norm, d, s
                    ):
                        violations += 1
    assert violations == 0
    report(8, "iterate norms within the closed-form bound, both norm kinds")


def test_criterion_09_strict_inequality_boundary():
    ring = GaussPolynomialRing(2)
    outcomes = {}
    for k in range(6):
        rows = [
            [f"{2 ** k}*t", str(2 ** k), "0"],
            ["0", str(2 ** k), f"{2 ** k}*t^2"],
            [str(2 ** k), "0", "0"],
        ]
        g1 = linalg.freeze([[ring.parse(e) for e in row] for row in rows])
        cert = check_prop_2_3(DifferentialModule(ring=ring, n=3, g1=g1))
        assert cert.norms["bound"] == NormValue(2, -2)
        outcomes[k] = cert.certified
    assert outcomes == {k: (k >= 3) for k in range(6)}
    report(9, "p=2, n=3 scaling family flips to certified exactly at k = 3")


def test_criterion_10_characteristic_p_counterexample():
    start = time.perf_counter()
    for p, e, n in ((2, 1, 3), (3, 1, 4)):
        rep = charp_counterexample(p, e, n)
        assert rep.q == p ** e
        assert rep.zero_power_index == rep.q
        assert rep.all_determinants_zero
        assert rep.monomial_degrees_checked >= 12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(10, f"characteristic-p witnesses confirmed in {elapsed:.2f}s")
