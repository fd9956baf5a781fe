#!/usr/bin/env python3
"""Print a Q(x) module with rational entries, as module JSON, for timing runs.

    python3 tools/pole_grid.py N D > grid.json
    python3 tools/pole_grid.py --found49 > found49.json

The pole grid (N, D) is the rank-N module whose entry (i, j), counted
from 0, is ``1/((x+i+2j+1)^D)`` when i + j is even and ``(i-j)*x + 1``
otherwise: its poles have order D and are shared along anti-diagonals,
so every iterate G_s with s >= 2 is formed on rational entries.
``--found49`` prints instead the rank-2 module with poles of order 200
to 256 on which a ``cyclic`` run takes tens of seconds.  Feed the output
to ``katzcyclic cyclic -i`` (or ``tools/time_cli.py``).  Standard
library only.
"""

import argparse
import json
import sys

RING = {"kind": "rational_function", "variable": "x"}
FOUND49 = [["1/((x+1)^256)", "1/(x^255 + 3)"], ["1/(2*x-1)^200", "x"]]


def entry(i: int, j: int, d: int) -> str:
    if (i + j) % 2 == 0:
        return f"1/((x+{i + 2 * j + 1})^{d})"
    return f"({i - j})*x + 1"


def grid(n: int, d: int) -> dict:
    return {"ring": RING, "n": n, "G1": [[entry(i, j, d) for j in range(n)] for i in range(n)]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int, nargs="?", help="rank N >= 1")
    ap.add_argument("d", type=int, nargs="?", help="pole order D >= 1")
    ap.add_argument("--found49", action="store_true", help="print the FOUND-49 module")
    args = ap.parse_args(argv)
    if args.found49:
        if args.n is not None:
            ap.error("--found49 takes no N or D")
        doc = {"ring": RING, "n": 2, "G1": FOUND49}
    elif args.n is None or args.d is None or args.n < 1 or args.d < 1:
        ap.error("give N >= 1 and D >= 1, or --found49")
    else:
        doc = grid(args.n, args.d)
    json.dump(doc, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
