"""The three workloads: seeded inputs, one operation each, answer checks.

A workload's inputs come in groups.  Every group has the same mix of
ranks, so every run measures the same input size; the seed only draws
the entries and the order inside a group.  Entries have the shape of
``random_poly`` in tools/make_fixtures.py: a degree uniform on
0..max_deg, then each coefficient uniform on [-range, range].  The
degrees of one matrix are drawn as a balanced set (see
``balanced_degrees``), which keeps each entry's degree uniform but
removes most of the module-to-module spread in cost that independent
degrees cause, so that a run's figures depend little on the seed.

An operation turns one module file into the bytes a user would get.
Checks run after it, outside the timed region, and return a list of
problems (empty when the answer is right).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass

import oracle

QX_RING = {"kind": "rational_function", "variable": "x"}


def balanced_degrees(rng, count, max_deg):
    """Degrees for `count` entries: each of 0..max_deg equally often, the
    remainder distinct, in random order.  Each entry's degree is uniform
    on 0..max_deg, as in random_poly, while their sum hardly varies."""
    k = max_deg + 1
    degrees = list(range(k)) * (count // k) + rng.sample(range(k), count % k)
    rng.shuffle(degrees)
    return degrees


def draw_matrix(rng, n, max_deg, coeff_range):
    """n x n polynomial coefficient lists (lowest degree first); a leading
    coefficient may be 0, as in random_poly."""
    degrees = iter(balanced_degrees(rng, n * n, max_deg))
    return [
        [[rng.randint(-coeff_range, coeff_range) for _ in range(next(degrees) + 1)]
         for _ in range(n)]
        for _ in range(n)
    ]


def poly_text(coeffs, var):
    """The string make_fixtures.random_poly prints for these coefficients."""
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append(f"{c}*{var}")
        else:
            terms.append(f"{c}*{var}^{i}")
    return " + ".join(terms) if terms else "0"


@dataclass
class Module:
    """One generated input: the JSON the program reads, and the exact
    connection matrix the generator drew, for the checks."""

    doc: dict
    g1: list  # n x n lists of integer coefficients, lowest degree first

    @property
    def n(self):
        return self.doc["n"]


def group_rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")


def run_cli(cli, argv):
    """cli.main in-process; returns (exit code, stdout bytes, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue().encode("utf-8"), err.getvalue()


def _qx_module(rng, n, max_deg):
    g1 = draw_matrix(rng, n, max_deg, 3)
    doc = {
        "ring": dict(QX_RING),
        "n": n,
        "G1": [[poly_text(c, "x") for c in row] for row in g1],
    }
    return Module(doc, g1)


class QxCyclic:
    """`katzcyclic cyclic` on Q(x) modules: find_cyclic, then the
    companion form, printed as JSON."""

    name = "qx-cyclic"
    # Per group: two rank-2 modules with entry degree <= 3 and one rank-3
    # module with entry degree <= 1.  The median lands in the rank-2 ones,
    # the tail in the rank-3 one.
    RANKS = ((2, 3), (2, 3), (3, 1))
    ref_groups = 8
    group_s = 0.185  # seconds per group on the reference machine

    def group(self, seed, index):
        rng = group_rng(self.name, seed, index)
        plan = list(self.RANKS)
        rng.shuffle(plan)
        return [_qx_module(rng, n, d) for n, d in plan]

    def ops(self, module):
        return [("cyclic",)]

    def run(self, kz, path, op):
        return run_cli(kz.cli, ["cyclic", "-i", path])

    def check(self, kz, module, op, rc, out):
        if rc != 0:
            return [f"exit code {rc}"]
        doc = json.loads(out)
        n = module.n
        problems = []
        if doc.get("command") != "cyclic" or doc.get("input") is None:
            problems.append("not a cyclic report")
        idx = doc["candidate_index"]
        if not (0 <= idx <= n * (n - 1)) or doc["a"] != str(idx):
            problems.append(f"candidate {idx} with a = {doc['a']}")
        g1 = [[oracle.rf(c) for c in row] for row in module.g1]
        family = [[oracle.parse_rf(s, "x") for s in doc["cyclic_vector"]]]
        for _ in range(n):
            family.append(oracle.nabla(family[-1], g1))
        d = oracle.det(family[:n])
        if oracle.riszero(d):
            problems.append("derivative family is not a basis")
        if not oracle.req(d, oracle.parse_rf(doc["determinant"], "x")):
            problems.append("determinant differs from det of the derivative family")
        b = [oracle.parse_rf(s, "x") for s in doc["companion_coefficients"]]
        if len(b) != n:
            return problems + [f"{len(b)} companion coefficients for rank {n}"]
        for j in range(n):
            combo = ((), oracle.ONE)
            for k in range(n):
                combo = oracle.radd(combo, oracle.rmul(b[k], family[k][j]))
            if not oracle.req(combo, family[n][j]):
                problems.append(f"nabla^n(c) != sum b_k nabla^k(c) in coordinate {j}")
        return problems

    def check_module(self, kz, module, results):
        return []


class QxBaseChange:
    """katz.base_change on Q(x) modules; the output is P(X)'s
    coefficients in canonical form."""

    name = "qx-base-change"
    # Per group: 50 rank-2, 8 rank-3, 15 rank-4 and 1 rank-5 module, entry
    # degree <= 1.  One rank-5 base change costs as much as ten rank-4 ones
    # and varies by 20 % between modules, so a run holds few of them and
    # most of its time goes to rank 4, which keeps ops_per_s steady across
    # seeds.  The tail percentile lands inside the rank-4 modules and the
    # median inside the rank-2 ones.
    RANKS = (2,) * 50 + (3,) * 8 + (4,) * 15 + (5,)
    ref_groups = 1
    group_s = 6.3

    def group(self, seed, index):
        rng = group_rng(self.name, seed, index)
        plan = list(self.RANKS)
        rng.shuffle(plan)
        return [_qx_module(rng, n, 1) for n in plan]

    def ops(self, module):
        return [("base_change",)]

    def run(self, kz, path, op):
        with open(path, "r", encoding="utf-8") as fh:
            m = kz.diffmod.module_from_json(json.load(fh))
        bc = kz.katz.base_change(m)
        doc = {"P": [m.ring.to_str(c) for c in bc.coefficients]}
        return 0, (json.dumps(doc) + "\n").encode("utf-8"), ""

    def check(self, kz, module, op, rc, out):
        n = module.n
        coeffs = json.loads(out)["P"]
        if len(coeffs) != n * (n - 1) + 1 or coeffs[0] != "1":
            return [f"P has {len(coeffs)} coefficients starting {coeffs[:1]}"]
        m = kz.diffmod.module_from_json(module.doc)
        ring = m.ring
        p = kz.xpoly.normalize(ring, [ring.parse(s) for s in coeffs])
        found = kz.katz.find_cyclic(m)
        if not ring.eq(kz.xpoly.specialize(ring, p, found.a), found.determinant):
            return ["P(t - a) differs from find_cyclic's determinant at a"]
        return []

    def check_module(self, kz, module, results):
        return []


# (criterion, --norm value or None, the matrix norm the criterion uses)
CERTIFY_OPS = (
    ("prop2.3", None, "sup"),
    ("prop2.5", None, "rho-t"),
    ("prop2.8", None, "rho-d"),
    ("lemma2.1", "sup", "sup"),
    ("lemma2.1", "rho-t", "rho-t"),
    ("lemma2.1", "rho-d", "rho-d"),
)
# A certified prop2.x implies lemma2.1 under the same norm.
IMPLIES = {0: 3, 1: 4, 2: 5}


def vp(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def norm_exp(text):
    """'p^k' -> k, '0' -> None."""
    return None if text == "0" else int(text.split("^", 1)[1])


def exp_less(a, b):
    """a < b for norm exponents, None being the norm 0."""
    if a is None:
        return b is not None
    return b is not None and a < b


class GaussCertify:
    """`katzcyclic certify` on p-adic Gauss modules: the three prop2.x
    criteria and lemma2.1 under each matrix norm, six operations each."""

    name = "gauss-certify"
    RANKS = (2, 3, 4)
    ref_groups = 8
    group_s = 0.177

    def group(self, seed, index):
        rng = group_rng(self.name, seed, index)
        plan = list(self.RANKS)
        rng.shuffle(plan)
        modules = []
        for n in plan:
            p = rng.choice((2, 3, 5))
            radius = rng.choice((0, 1, 2))
            scale = p ** rng.randint(0, 4)
            polys = draw_matrix(rng, n, 2, 2)
            doc = {
                "ring": {"kind": "gauss_padic", "variable": "t", "p": p,
                         "radius_exp": radius},
                "n": n,
                "G1": [[f"{scale}*({poly_text(c, 't')})" for c in row] for row in polys],
            }
            g1 = [[[scale * c for c in poly] for poly in row] for row in polys]
            modules.append(Module(doc, g1))
        return modules

    def ops(self, module):
        return CERTIFY_OPS

    def run(self, kz, path, op):
        criterion, norm, _ = op
        argv = ["certify", "-i", path, "--criterion", criterion]
        if norm is not None:
            argv += ["--norm", norm]
        return run_cli(kz.cli, argv)

    def g1_norm_exp(self, module, norm):
        """Exponent of |G1| under the named matrix norm, from the drawn
        coefficients: |a_ij| rho^(j-i), |t| = p^-r and rho = p^r for both
        rho norms (|t|^-1 = |d| = p^r on these rings)."""
        p = module.doc["ring"]["p"]
        r = module.doc["ring"]["radius_exp"]
        rho = 0 if norm == "sup" else r
        best = None
        for i, row in enumerate(module.g1):
            for j, coeffs in enumerate(row):
                for k, c in enumerate(coeffs):
                    if c:
                        e = -vp(c, p) - r * k + rho * (j - i)
                        best = e if best is None else max(best, e)
        return best

    def check(self, kz, module, op, rc, out):
        criterion, _, norm = op
        if rc not in (0, 2):
            return [f"exit code {rc}"]
        doc = json.loads(out)
        certified = doc.get("verdict") == "certified"
        problems = []
        if doc.get("command") != "certify" or doc.get("criterion") != criterion:
            problems.append("not a report for this criterion")
        if doc.get("verdict") not in ("certified", "not_certified"):
            problems.append(f"verdict {doc.get('verdict')!r}")
        if (rc == 0) != certified:
            problems.append(f"exit code {rc} with verdict {doc.get('verdict')}")
        if (doc.get("witness") is not None) != certified:
            problems.append("witness present iff certified fails")
        g1 = norm_exp(doc["norms"]["G1"])
        if g1 != self.g1_norm_exp(module, norm):
            problems.append(f"|G1| = {doc['norms']['G1']} under {norm}")
        if criterion == "lemma2.1":
            per_s = [norm_exp(v) for v in doc.get("per_s_norms", ())]
            if len(per_s) != 2 * module.n - 2:
                problems.append(f"{len(per_s)} per-s norms")
            if certified != all(exp_less(v, 0) for v in per_s):
                problems.append("verdict disagrees with the per-s norms")
            if certified:
                m = kz.diffmod.module_from_json(module.doc)
                kinds = kz.ultranorm.MatrixNormKind
                kind = {"sup": None, "rho-t": kinds.rho_t_inverse(m.ring),
                        "rho-d": kinds.rho_d(m.ring)}[norm]
                w = kz.ultranorm.invertibility_witness_norm(m, kind)
                if not w < kz.normvalue.NormValue.one(w.p):
                    problems.append(f"certified but ||H0(-t)H(t) - Id|| = {w}")
        elif certified != exp_less(g1, norm_exp(doc["norms"]["bound"])):
            problems.append("verdict disagrees with |G1| < bound")
        return problems

    def check_module(self, kz, module, results):
        """Cross-criterion implications over the six reports of one module;
        a broken implication is charged to the prop2.x operation."""
        problems = []
        verdicts = []
        for rc, out in results:
            try:
                verdicts.append(json.loads(out).get("verdict") == "certified")
            except ValueError:
                verdicts.append(None)
        for prop, lemma in IMPLIES.items():
            if verdicts[prop] and verdicts[lemma] is False:
                problems.append((prop, f"{CERTIFY_OPS[prop][0]} certified but "
                                       f"lemma2.1 ({CERTIFY_OPS[lemma][1]}) is not"))
        return problems


WORKLOADS = {w.name: w for w in (QxCyclic(), QxBaseChange(), GaussCertify())}
