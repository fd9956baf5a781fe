"""Golden output on seeded modules that the committed corpora lack.

Every Q(x) module of ``qx_corpus.json`` has polynomial entries, so the
Q(x) cross-cancelling arithmetic and the other ring kinds never enter
the P(X) digest of ``test_golden.py``.  The modules here are generated
in the test from fixed seeds, as entry strings (the F_49 entries also
from coefficient tuples), so that they do not depend on how the package
builds elements:

* Q(x) modules of rank 2 and 3 whose entries have nontrivial
  denominators and fractional scales (P(X) and ``katzcyclic cyclic``);
* pole-grid Q(x) modules of rank 3 and 4 (``tools/pole_grid.py``), whose
  iterates G_s, s >= 2, are formed on rational entries (``katzcyclic
  cyclic`` and P(X));
* a Gauss Q[t] module with fractional coefficients;
* F_5[x] and F_49[x] modules (p > n - 1);
* a Q(x) module after ``rescale_derivation``;
* P(X) at the ranks that exercise the most points of ``xdet``'s
  evaluation in X: dense Q(x) modules with integer entries of degree at
  most 1 (the ``qx-base-change`` shape) at ranks 5 and 6, a Gauss Q[t]
  module at rank 5 and the pole grid (4, 2), whose rows have nonconstant
  denominators;
* Gauss Q[t] modules of rank 4 to 8 over p = 2, 3, 5 with radius
  exponents 0, 1, 2, each plain and with G1 multiplied by p, under every
  ``certify`` criterion and every lemma-2.1 norm.

The digests were recorded before H(X) was built as the nabla-family of
c(e, X) and before polynomial Q(x) elements took the Q[t] arithmetic;
the ``certify`` digest before lemma 2.1 read H_0(-t) H_s(t) from one
cached universal table per s; the pole-grid digests before the
iterates of a rational G_1 left the integer recurrence; the high-rank
P(X) digests while ``xdet`` still packed X into the same integer as x.
"""

import contextlib
import hashlib
import io
import json
import random

from katzcyclic import (
    DifferentialModule,
    FiniteFieldPolyRing,
    GaussPolynomialRing,
    RationalFunctionField,
    base_change,
    linalg,
    module_to_json,
    rescale_derivation,
)
from katzcyclic.cli import main


def _int_poly(rng, var, max_deg, lo=-3, hi=3):
    terms = [f"{rng.randint(lo, hi)}*{var}^{i}" for i in range(rng.randint(0, max_deg) + 1)]
    return " + ".join(terms)


def qx_entry(rng, var="x"):
    """c * N/D with a fractional scale c and, mostly, a nonconstant D."""
    if rng.random() < 0.15:
        return "0"
    scale = f"{rng.choice((-1, 1)) * rng.randint(1, 5)}/{rng.randint(1, 6)}"
    num = _int_poly(rng, var, 2)
    if rng.random() < 0.25:
        return f"{scale}*({num})"
    den = f"{rng.randint(1, 3)}*{var} + {rng.choice((-2, -1, 1, 2, 3))}"
    return f"{scale}*({num})/({den})"


def poly_entry(rng, var):
    """A polynomial with fractional coefficients."""
    return " + ".join(
        f"{rng.randint(-4, 4)}/{rng.randint(1, 3)}*{var}^{i}"
        for i in range(rng.randint(0, 2) + 1)
    )


def dense_entry(rng, var):
    """An integer polynomial of degree at most 1, coefficients in [-3, 3]."""
    return _int_poly(rng, var, 1)


def int_entry(rng, var):
    return _int_poly(rng, var, 2, 0, 6)


def module(ring, n, seed, entry):
    rng = random.Random(seed)
    rows = [[ring.parse(entry(rng, ring.variable)) for _ in range(n)] for _ in range(n)]
    return DifferentialModule(ring=ring, n=n, g1=linalg.freeze(rows))


def fpe_module(ring, n, seed):
    """Entries a + g b over F_{p^e}[x], with a, b in F_p[x] and g the
    generator, built from the coefficient tuples."""
    rng = random.Random(seed)
    g = ((0, 1) + (0,) * (ring.q_exp - 2),)

    def entry():
        a, b = (ring.parse(int_entry(rng, ring.variable)) for _ in range(2))
        return ring.add(a, ring.mul(g, b))

    rows = [[entry() for _ in range(n)] for _ in range(n)]
    return DifferentialModule(ring=ring, n=n, g1=linalg.freeze(rows))


def pole_grid(n, d):
    """Entry (i, j) is 1/((x+i+2j+1)^d) when i + j is even, else (i-j)*x + 1."""
    ring = RationalFunctionField()

    def entry(i, j):
        return f"1/((x+{i + 2 * j + 1})^{d})" if (i + j) % 2 == 0 else f"({i - j})*x + 1"

    rows = [[ring.parse(entry(i, j)) for j in range(n)] for i in range(n)]
    return DifferentialModule(ring=ring, n=n, g1=linalg.freeze(rows))


def qx_modules():
    ring = RationalFunctionField()
    return [module(ring, 2, seed, qx_entry) for seed in range(6)] + [
        module(ring, 3, seed, qx_entry) for seed in range(100, 103)
    ]


def other_modules():
    qx = RationalFunctionField()
    return [
        module(GaussPolynomialRing(3, 1), 3, 200, poly_entry),
        module(FiniteFieldPolyRing(5), 3, 300, int_entry),
        fpe_module(FiniteFieldPolyRing(7, 2), 3, 301),
        rescale_derivation(module(qx, 2, 400, qx_entry), qx.parse("2*x^2 + 1")),
    ]


def high_rank_modules():
    qx = RationalFunctionField()
    return [
        module(qx, 5, 700, dense_entry),
        module(qx, 6, 701, dense_entry),
        module(GaussPolynomialRing(3, 1), 5, 702, poly_entry),
        pole_grid(4, 2),
    ]


def p_digest(modules):
    """sha256 of the printed coefficients of P(X), one JSON list per module."""
    lines = [
        json.dumps([m.ring.to_str(c) for c in base_change(m).coefficients])
        for m in modules
    ]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def cyclic_digest(modules, workdir):
    """sha256 of the stdout of ``katzcyclic cyclic`` on each module."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for k, m in enumerate(modules):
            path = workdir / f"module-{k}.json"
            path.write_text(json.dumps(module_to_json(m)), encoding="utf-8")
            assert main(["cyclic", "-i", str(path)]) == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def gauss_certify_files(workdir):
    """Seeded Gauss modules of rank 4 to 8, one per (p, r), entries
    p^e (a + b t + c t^2) with e spread so that both verdicts occur; each
    module also appears with G1 multiplied by p."""
    paths = []
    k = 0
    for p in (2, 3, 5):
        for r in (0, 1, 2):
            n = 4 + k % 5
            rng = random.Random(500 + k)
            rows = [
                [f"{p ** rng.randint(0, 2 * n)}*({_int_poly(rng, 't', 2)})" for _ in range(n)]
                for _ in range(n)
            ]
            for extra in (1, p):
                doc = {
                    "ring": {"kind": "gauss_padic", "variable": "t", "p": p, "radius_exp": r},
                    "n": n,
                    "G1": [[f"{extra}*({e})" for e in row] for row in rows],
                }
                path = workdir / f"gauss-{k}-{extra}.json"
                path.write_text(json.dumps(doc), encoding="utf-8")
                paths.append(str(path))
            k += 1
    return paths


CERTIFY_RUNS = (
    ["--criterion", "prop2.3"],
    ["--criterion", "prop2.5"],
    ["--criterion", "prop2.8"],
    ["--criterion", "lemma2.1", "--norm", "sup"],
    ["--criterion", "lemma2.1", "--norm", "rho-t"],
    ["--criterion", "lemma2.1", "--norm", "rho-d"],
)


def certify_digest(paths):
    """sha256 of the stdout of every ``katzcyclic certify`` run on each file,
    and the exit codes, which tell certified (0) from not (2)."""
    out = io.StringIO()
    codes = []
    with contextlib.redirect_stdout(out):
        for path in paths:
            for extra in CERTIFY_RUNS:
                codes.append(main(["certify", "-i", path, *extra]))
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), codes


QX_P_DIGEST = "632a6e3150181fbd98b70b118c2eabfb763fb7acaf9a352b870bd3c300638b80"
QX_CYCLIC_DIGEST = "a4d859bd9bc33c81bc9066b9176cab616c510c5b4c3c430e8f34a49d84a429b8"
GAUSS_CERTIFY_DIGEST = "fa64e8556a56b22a8575f4e052995d15cbf96ce09064aa455547a0a97c5c1167"
POLE_GRID_CYCLIC_DIGESTS = {
    (3, 8): "1bd3c29b75972341298986900930f9b533de3d9c23849fbbbe99f4ef9c14e2a6",
    (4, 2): "388659fbe2b781355ce2ef4aa605dd7887f4fb8289b172f5254a93754982eeda",
}
POLE_GRID_P_DIGEST = "5eb38cf4aecc9ae88613e95b9ec9ddb2f55b9d55617a90e6ad537603091d4a50"  # (4, 1)
# Gauss Q[t] p = 3 r = 1, F_5[x], F_49[x], Q(x) with d rescaled by 2x^2 + 1.
OTHER_P_DIGESTS = (
    "f4b1156db004fd0e492366689c2d2869abecfd3705895a613cb00f161776ff1d",
    "8843a47ff9e451f1f1e809e7732a8095185aebc8ce04fc755b32a37375a1cc6d",
    "cf80900efafeaa9c7ba3648f3cd51f5f0d4def7e6cb9391a4d3312a8dca5df71",
    "45802eadfaa3e83b673e738d5fb56dc9f3b357b41ac6e038897733e4475c2f95",
)

# Q(x) ranks 5 and 6 of degree <= 1, Gauss Q[t] p = 3 r = 1 rank 5, pole grid (4, 2).
HIGH_RANK_P_DIGESTS = (
    "623c7cceb5202bc58284dd53ce866d3ad2d274f675aef5856e00fe96b978ae97",
    "5936ae478ea54db0521c285f98881450b2f4018918d5e11cc0db8aa494177f8d",
    "c69d64e84abacdfd6109411393782bbb0386e877f813071295eaf65716adaffd",
    "599f37e0cbe68767311013aa8ba071dcebe71f8dafe0e59c22707ca8522cb6b7",
)


def test_qx_modules_have_denominators():
    ms = qx_modules()
    assert any(len(x.D) > 1 for m in ms for row in m.g1 for x in row)
    assert any(x.q > 1 for m in ms for row in m.g1 for x in row)


def test_golden_qx_base_change_det():
    assert p_digest(qx_modules()) == QX_P_DIGEST


def test_golden_qx_cyclic(tmp_path):
    assert cyclic_digest(qx_modules(), tmp_path) == QX_CYCLIC_DIGEST


def test_golden_pole_grid_cyclic(tmp_path):
    for (n, d), digest in POLE_GRID_CYCLIC_DIGESTS.items():
        assert cyclic_digest([pole_grid(n, d)], tmp_path) == digest, (n, d)


def test_golden_pole_grid_base_change_det():
    assert p_digest([pole_grid(4, 1)]) == POLE_GRID_P_DIGEST


def test_golden_other_rings_base_change_det():
    assert tuple(p_digest([m]) for m in other_modules()) == OTHER_P_DIGESTS


def test_golden_high_rank_base_change_det():
    assert tuple(p_digest([m]) for m in high_rank_modules()) == HIGH_RANK_P_DIGESTS


def test_golden_gauss_certify_high_rank(tmp_path):
    digest, codes = certify_digest(gauss_certify_files(tmp_path))
    assert set(codes) == {0, 2}
    assert digest == GAUSS_CERTIFY_DIGEST
