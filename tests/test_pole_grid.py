"""Tests of tools/pole_grid.py: the entries of the pole grid against their
formula, the FOUND-49 module, and every printed module read back as a
module."""

import json
import pathlib
import subprocess
import sys

import pytest

from katzcyclic import RationalFunctionField, module_from_json

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "pole_grid.py"
QX = RationalFunctionField()


def run_tool(*args):
    if not TOOL.is_file():
        pytest.skip("needs the project checkout with tools/pole_grid.py")
    return subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=60
    )


def printed(*args):
    proc = run_tool(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_grid_entries_follow_the_formula():
    m = module_from_json(printed("2", "3"))
    assert m.n == 2 and m.ring.descriptor() == QX.descriptor()
    x = QX.t
    for i in range(2):
        for j in range(2):
            if (i + j) % 2 == 0:
                expected = QX.inv(QX.pow(QX.add(x, QX.from_int(i + 2 * j + 1)), 3))
            else:
                expected = QX.add(QX.mul(QX.from_int(i - j), x), QX.one)
            assert m.g1[i][j] == expected, (i, j)


@pytest.mark.parametrize("args", [("1", "1"), ("3", "8"), ("5", "2"), ("--found49",)])
def test_every_printed_module_loads(args):
    m = module_from_json(printed(*args))
    assert m.n == (2 if args == ("--found49",) else int(args[0]))
    assert any(len(a.D) > 1 for row in m.g1 for a in row)


def test_found49_is_the_named_module():
    m = module_from_json(printed("--found49"))
    assert [[QX.to_str(a) for a in row] for row in m.g1] == [
        [QX.to_str(QX.parse("1/((x+1)^256)")), QX.to_str(QX.parse("1/(x^255 + 3)"))],
        [QX.to_str(QX.parse("1/(2*x-1)^200")), "x"],
    ]


@pytest.mark.parametrize("args", [(), ("3",), ("0", "2"), ("2", "0"), ("--found49", "2", "2")])
def test_bad_arguments_are_usage_errors(args):
    proc = run_tool(*args)
    assert proc.returncode == 2
    assert "usage:" in proc.stderr and proc.stdout == ""
