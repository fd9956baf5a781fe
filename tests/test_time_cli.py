"""Tests of tools/time_cli.py: one round of a small command against this
checkout itself, the processes that a round starts, and the bytecode it
leaves (none, in the checkouts it times)."""

import compileall
import importlib.util
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "time_cli.py"


def run_tool(*args):
    if not TOOL.is_file():
        pytest.skip("needs the project checkout with tools/time_cli.py")
    return subprocess.run(
        [sys.executable, str(TOOL), "--base", str(ROOT), "--rounds", "1", *args],
        capture_output=True, text=True, timeout=120,
    )


def test_same_checkout_gives_identical_output():
    proc = run_tool("--", "tables", "-n", "2")
    assert proc.returncode == 0, proc.stderr
    assert "stdout identical" in proc.stdout
    assert proc.stdout.count("exit 0") == 2


def test_empty_command_is_a_usage_error():
    proc = run_tool("--")
    assert proc.returncode == 2
    assert "usage:" in proc.stderr and "no katzcyclic command given" in proc.stderr


def test_rounds_k_starts_2k_processes(monkeypatch):
    """Each side's sources are byte-compiled in this process, not by an
    untimed warm-up run, so one round starts exactly two processes."""
    if not TOOL.is_file():
        pytest.skip("needs the project checkout with tools/time_cli.py")
    spec = importlib.util.spec_from_file_location("time_cli", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    runs, compiled = [], []
    monkeypatch.setattr(tool, "run_once",
                        lambda checkout, argv: runs.append(argv) or (0.0, 0, "0"))
    monkeypatch.setattr(compileall, "compile_dir", lambda path, **kw: compiled.append(path))
    assert tool.main(["--base", str(ROOT), "--rounds", "1", "--", "tables", "-n", "2"]) == 0
    assert runs == [["tables", "-n", "2"]] * 2
    assert compiled == [ROOT / "src"] * 2


def test_leaves_no_bytecode_in_the_checkout(tmp_path):
    """Both sides compile into a temporary cache directory, so a run
    leaves no ``__pycache__`` under the checkout it times."""
    if not TOOL.is_file():
        pytest.skip("needs the project checkout with tools/time_cli.py")
    checkout = tmp_path / "checkout"
    shutil.copytree(ROOT / "src", checkout / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (checkout / "tools").mkdir()
    shutil.copy(TOOL, checkout / "tools" / TOOL.name)
    proc = subprocess.run(
        [sys.executable, str(checkout / "tools" / TOOL.name), "--base", str(checkout),
         "--rounds", "1", "--", "tables", "-n", "2"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stderr
    assert "stdout identical" in proc.stdout
    assert list(checkout.rglob("__pycache__")) == []
