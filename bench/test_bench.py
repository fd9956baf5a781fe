"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench

They check that the answer checks catch wrong answers, that traced runs
repeat their counts exactly and reach every layer, that --seed drives
the inputs, and that the benchmark refuses to run without the program.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, GaussCertify, QxCyclic  # noqa: E402


@pytest.fixture(scope="module")
def kz():
    sys.path.insert(0, str(run.SRC))
    return run.import_program()


@pytest.fixture
def workdir():
    path = ROOT / ".bench_work" / f"test-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def first_modules(workload, workdir, ranks):
    """Group 0 of seed 0, restricted to the cheap ranks."""
    items = run.write_group(workload, 0, 0, workdir)
    return [(m, p) for m, p in items if m.n in ranks]


def test_correct_answers_pass(kz, workdir):
    for workload in (QxCyclic(), GaussCertify()):
        tally = run.Tally()
        run.run_group(workload, kz, first_modules(workload, workdir, (2, 3)), tally, False)
        assert tally.attempted > 0
        assert tally.failed == 0, tally.problems


class CorruptCompanion(QxCyclic):
    def run(self, kz, path, op):
        rc, out, err = super().run(kz, path, op)
        doc = json.loads(out)
        b = doc["companion_coefficients"]
        b[0] = "1" if b[0] == "0" else "0"
        return rc, json.dumps(doc).encode(), err


class FlipVerdict(GaussCertify):
    def run(self, kz, path, op):
        rc, out, err = super().run(kz, path, op)
        if op[0] != "lemma2.1":
            return rc, out, err
        doc = json.loads(out)
        doc["verdict"] = "not_certified" if doc["verdict"] == "certified" else "certified"
        return rc, json.dumps(doc).encode(), err


def test_corrupted_companion_coefficient_is_failed(kz, workdir):
    items = first_modules(QxCyclic(), workdir, (2,))
    tally = run.Tally()
    run.run_group(CorruptCompanion(), kz, items, tally, False)
    assert tally.failed == tally.attempted == len(items) > 0


def test_flipped_verdict_is_failed(kz, workdir):
    items = first_modules(GaussCertify(), workdir, (2, 3))
    tally = run.Tally()
    run.run_group(FlipVerdict(), kz, items, tally, False)
    # every lemma2.1 operation fails; a flip can also break a prop2.x implication
    assert tally.failed >= 3 * len(items) > 0


def test_seed_drives_the_inputs():
    for workload in WORKLOADS.values():
        docs = lambda seed: [m.doc for m in workload.group(seed, 0)]  # noqa: E731
        assert docs(5) == docs(5)
        assert docs(5) != docs(6)
        assert sorted(m.n for m in workload.group(5, 0)) == sorted(
            m.n for m in workload.group(6, 0)
        )


def traced_run(name):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    return {k: v["value"] for k, v in result["metrics"].items()}


# Counters each workload must reach; a wrapper installed at the wrong name
# would leave them at zero.  The bypass lists hold layers a workload must
# not touch.
REACHED = {
    "qx-cyclic": (
        "fields.QQ.calls", "polys.gcd.calls", "polys.divmod_.calls", "polys.mul.calls",
        "rings.qx.ops", "rings.qx.inv.calls", "linalg.solve_left.calls",
        "linalg.det.calls", "diffmod.apply_nabla.calls", "diffmod.is_basis.calls",
        "diffmod.iterated_matrices.self_s", "katz.katz_vector.self_s",
        "katz.find_cyclic.self_s", "katz.companion_form.self_s",
        "katz.find_cyclic.useful_ratio", "parser.parse_element.calls", "cli.main.self_s",
    ),
    "qx-base-change": (
        "fields.QQ.calls", "polys.gcd.calls", "rings.qx.ops", "linalg.det.calls",
        "xpoly.mul.calls", "xpoly.ops", "linalg.mat_mul.calls", "katz.h_matrix.calls",
        "katz.assemble_h.self_s", "diffmod.iterated_matrices.self_s",
        "parser.parse_element.calls",
    ),
    "gauss-certify": (
        "ultranorm.matrix_norm.calls", "ultranorm.certify_lemma_2_1.self_s",
        "ultranorm.check_prop.self_s", "rings.gauss.ops", "rings.gauss.norm.calls",
        "normvalue.ops", "katz.h_matrix_at.self_s", "linalg.mat_mul.calls",
        "parser.parse_element.calls", "cli.main.self_s",
    ),
}
BYPASSED = {
    "qx-cyclic": ("xpoly.mul.calls", "rings.gauss.ops", "normvalue.ops"),
    "qx-base-change": ("linalg.solve_left.calls", "katz.find_cyclic.useful_ratio",
                       "rings.gauss.ops"),
    "gauss-certify": ("polys.gcd.calls", "rings.qx.ops", "linalg.det.calls",
                      "linalg.solve_left.calls"),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_and_reach_every_layer(name):
    first, second = traced_run(name), traced_run(name)
    exact = [k for k in first if not k.endswith(("self_s", "overhead_frac"))]
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert [k for k in REACHED[name] if not first[k]] == []
    assert [k for k in BYPASSED[name] if first[k]] == []


def test_refuses_to_run_without_the_program(workdir):
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "qx-cyclic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
