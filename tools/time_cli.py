#!/usr/bin/env python3
"""Time one katzcyclic command line in fresh interpreters, base against this checkout.

    python3 tools/time_cli.py --base ../parent --rounds 7 -- \\
        certify -i module.json --criterion lemma2.1

Every run is a new ``python3`` process that imports katzcyclic from the
``src/`` of its checkout and calls the CLI with the arguments after
``--``; relative paths in them are read from the current directory.
Each side's ``src`` is first byte-compiled by :mod:`compileall` into a
temporary ``PYTHONPYCACHEPREFIX`` directory, which every run is given,
so that no timed run compiles the sources and no checkout is left with
a ``__pycache__``.  Then, for each of ``--rounds`` rounds, both sides
run once, and the side that goes first alternates from round to round:
``--rounds k`` starts 2k processes.  The wall time covers the whole process,
interpreter start included.

Prints each side's best and median wall time, its exit status and the
sha256 of its standard output.  Exits 1 if the two sides' outputs
differ or if one side's output changes from run to run, else 0.
Standard library only.
"""

import argparse
import compileall
import hashlib
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAUNCH = "import sys; from katzcyclic.cli import main; sys.exit(main(sys.argv[1:]))"


def run_once(checkout: Path, argv):
    """(wall seconds, exit status, stdout sha256) of one fresh process,
    which reads its bytecode under this process's ``sys.pycache_prefix``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    if sys.pycache_prefix:
        env["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCH, *argv], env=env, capture_output=True
    )
    wall = time.perf_counter() - start
    return wall, proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    ap.add_argument("--rounds", type=int, default=5, help="timed runs per side (default 5)")
    ap.add_argument("command", nargs=argparse.REMAINDER,
                    help="katzcyclic arguments, after --")
    args = ap.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        ap.error("no katzcyclic command given")
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    sides = {"base": args.base.resolve(), "change": ROOT}
    for name, checkout in sides.items():
        if not (checkout / "src" / "katzcyclic" / "__init__.py").is_file():
            ap.error(f"{name}: no src/katzcyclic in {checkout}")

    runs = {name: [] for name in sides}
    saved = sys.pycache_prefix
    with tempfile.TemporaryDirectory(prefix="time_cli-") as cache:
        sys.pycache_prefix = cache
        try:
            for checkout in sides.values():
                compileall.compile_dir(checkout / "src", quiet=1)
            order = list(sides)
            for k in range(args.rounds):
                for name in order[::-1] if k % 2 else order:
                    runs[name].append(run_once(sides[name], command))
        finally:
            sys.pycache_prefix = saved

    digests = {}
    print(f"katzcyclic {' '.join(command)}: {args.rounds} rounds")
    for name, rs in runs.items():
        walls = [r[0] for r in rs]
        codes = sorted({r[1] for r in rs})
        shas = {r[2] for r in rs}
        digests[name] = shas.pop() if len(shas) == 1 else None
        print(f"  {name:6s} best {min(walls):.4f} s  median {statistics.median(walls):.4f} s  "
              f"exit {','.join(map(str, codes))}  stdout sha256 {digests[name] or 'varies'}")
    same = digests["base"] is not None and digests["base"] == digests["change"]
    print(f"  stdout {'identical' if same else 'DIFFERS'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
