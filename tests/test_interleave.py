"""Tests of tools/interleave.py: one small rep against this checkout
itself, its report of median times, by rank and by operation kind, a
base whose output differs, the two package copies it loads, and the
bytecode it leaves (none, in the checkouts it times)."""

import importlib.util
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "interleave.py"


def needs_tool():
    if not (TOOL.is_file() and (ROOT / "bench" / "workloads.py").is_file()):
        pytest.skip("needs the project checkout with tools/interleave.py and bench/")


def tool_module():
    needs_tool()
    spec = importlib.util.spec_from_file_location("interleave", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def run_tool(base, *args, env=None, workload="qx-cyclic"):
    needs_tool()
    return subprocess.run(
        [sys.executable, str(TOOL), "--base", str(base), "--workload", workload,
         "--groups", "1", *args],
        capture_output=True, text=True, timeout=120, env=env,
    )


def copy_checkout(tmp_path):
    checkout = tmp_path / "checkout"
    shutil.copytree(ROOT / "src", checkout / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return checkout


def test_same_checkout_gives_identical_output():
    proc = run_tool(ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("qx-cyclic: seed 1, 1 groups, ")
    assert proc.stdout.count("  rep ") == tool_module().REPS
    assert "median ratio" in proc.stdout and "outputs identical" in proc.stdout


BREAKDOWN = (r"(\d+) operations  base [\d.e+]+ ops/s  change [\d.e+]+ ops/s  "
             r"ratio \d+\.\d{4}  median base [\d.e+-]+ ms  change [\d.e+-]+ ms  "
             r"ratio \d+\.\d{4}")


def test_report_by_rank_follows_the_median():
    """After the median line, each side's median operation time and their
    ratio, then one line per rank of the group's modules (qx-cyclic draws
    ranks 2 and 3), in rank order, each with its count of operations over
    all reps, both sides' ops/s and their ratio, and both sides' median
    operation time and their ratio; then the same line for its one
    operation kind."""
    tool = tool_module()
    proc = run_tool(ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    at = next(i for i, line in enumerate(lines) if "median ratio" in line)
    medians = r"median base [\d.e+-]+ ms  change [\d.e+-]+ ms  ratio \d+\.\d{4}"
    assert re.fullmatch(f"  operation time: {medians} \\(change over base\\)", lines[at + 1])
    ranks = lines[at + 2:at + 4]
    assert lines[at + 5] == "  outputs identical"
    matches = [re.fullmatch(r"  rank (\d+): " + BREAKDOWN, line) for line in ranks]
    assert all(matches), ranks
    assert [int(m[1]) for m in matches] == [2, 3]
    total = int(lines[0].split(", ")[2].split()[0])
    assert sum(int(m[2]) for m in matches) == total * tool.REPS
    kind = re.fullmatch(r"  kind cyclic: " + BREAKDOWN, lines[at + 4])
    assert kind and int(kind[1]) == total * tool.REPS, lines[at + 4]


def test_report_by_kind_adds_up_to_the_pass():
    """gauss-certify runs six operation kinds on every module; after the
    rank lines comes one line per kind, in the workload's order, and
    their counts add up to the operations of all reps."""
    tool = tool_module()
    proc = run_tool(ROOT, workload="gauss-certify")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    kinds = [re.fullmatch(r"  kind ([\w. -]+): " + BREAKDOWN, line) for line in lines]
    kinds = [m for m in kinds if m]
    assert [m[1] for m in kinds] == [
        "prop2.3 sup", "prop2.5 rho-t", "prop2.8 rho-d",
        "lemma2.1 sup sup", "lemma2.1 rho-t rho-t", "lemma2.1 rho-d rho-d",
    ]
    total = int(lines[0].split(", ")[2].split()[0])
    assert sum(int(m[2]) for m in kinds) == total * tool.REPS
    assert len({int(m[2]) for m in kinds}) == 1
    assert lines[-1] == "  outputs identical"


def test_medians_are_each_sides_middle_time():
    """``medians`` prints each side's median operation time in ms and
    their ratio, change over base, so that a ratio below 1 is a gain."""
    tool = tool_module()
    line = tool.medians({"base": [0.004, 0.001, 0.002], "change": [0.001, 0.0015, 0.003, 0.002]})
    assert line == "median base 2 ms  change 1.75 ms  ratio 0.8750"


def test_rank_times_add_up_to_the_pass(tmp_path):
    """``run_pass`` records each operation's time under its module's rank
    and side, and under its kind and side, so that the ranks' times, and
    the kinds' times, sum to each side's total."""
    tool = tool_module()

    class Workload:
        def run(self, program, path, op):
            return 0, f"{program} {op}", None

    kinds = [("prop2.3", None, "sup"), ("lemma2.1", "rho-t", "rho-t"), ("prop2.3", None, "sup"),
             ("cyclic",)]
    ops = [(types.SimpleNamespace(n=n), str(tmp_path / f"m{k}"), op)
           for k, (n, op) in enumerate(zip([2, 3, 2, 5], kinds))]
    busy, by_rank, by_kind, mismatches = {"base": 0.0, "change": 0.0}, {}, {}, set()
    tool.run_pass(Workload(), {"base": "same", "change": "same"}, ops, busy, by_rank, by_kind,
                  mismatches)
    assert sorted(by_rank) == [2, 3, 5] and mismatches == set()
    assert list(by_kind) == ["prop2.3 sup", "lemma2.1 rho-t rho-t", "cyclic"]
    for side in busy:
        assert [len(by_rank[n][side]) for n in (2, 3, 5)] == [2, 1, 1]
        assert [len(times[side]) for times in by_kind.values()] == [2, 1, 1]
        for groups in (by_rank, by_kind):
            assert math.isclose(sum(sum(times[side]) for times in groups.values()), busy[side])


def test_seed_option_times_other_inputs(tmp_path):
    """``--seed N`` times the workload's groups of seed N, which are not
    those of the default seed."""
    tool = tool_module()
    proc = run_tool(ROOT, "--seed", "7")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("qx-cyclic: seed 7, 1 groups, ")
    assert "outputs identical" in proc.stdout
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "bench"))
    docs = {}
    for seed in (tool.DEFAULT_SEED, 7):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        ops = tool.write_inputs(WORKLOADS["qx-cyclic"], seed, 1, workdir)
        docs[seed] = [pathlib.Path(path).read_text(encoding="utf-8") for _, path, _ in ops]
    assert docs[tool.DEFAULT_SEED] != docs[7]


def test_a_base_with_other_output_fails(tmp_path):
    checkout = copy_checkout(tmp_path)
    cli = checkout / "src" / "katzcyclic" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert '_INDENT = " " * 2' in text
    cli.write_text(text.replace('_INDENT = " " * 2', '_INDENT = " " * 3'), encoding="utf-8")
    proc = run_tool(checkout)
    assert proc.returncode == 1, proc.stderr
    assert "outputs DIFFER on 3 operations" in proc.stdout


def test_unknown_workload_is_a_usage_error():
    needs_tool()
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--base", str(ROOT), "--workload", "nope"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "unknown workload 'nope'" in proc.stderr


def test_loads_two_copies_of_the_package(tmp_path):
    """Each side is its own set of module objects, read from its own
    checkout, under a name of its own."""
    tool = tool_module()
    checkout = copy_checkout(tmp_path)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        a = tool.load(ROOT, "katzcyclic_test_a")
        b = tool.load(checkout, "katzcyclic_test_b")
    finally:
        sys.dont_write_bytecode = saved
        for name in [m for m in sys.modules if m.startswith("katzcyclic_test_")]:
            del sys.modules[name]
    assert a.katz is not b.katz and a.katz.linalg is not b.katz.linalg
    assert a.cli.__name__ == "katzcyclic_test_a.cli"
    assert pathlib.Path(b.cli.__file__).is_relative_to(checkout)


def test_leaves_no_bytecode_in_the_checkout(tmp_path):
    checkout = copy_checkout(tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = run_tool(checkout, env=env)
    assert proc.returncode == 0, proc.stderr
    assert list(checkout.rglob("__pycache__")) == []
