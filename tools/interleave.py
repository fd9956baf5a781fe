#!/usr/bin/env python3
"""Time one benchmark workload on two checkouts in one process, operation by operation.

    python3 tools/interleave.py --base ../parent --workload qx-cyclic

Loads the ``src/katzcyclic`` of the base checkout and of this one into
one interpreter, under two package names, and generates the workload's
seeded input groups with this checkout's ``bench/workloads.py``.  Each
rep runs every operation of every group on both sides back to back; the
side that goes first alternates from operation to operation.  Both
sides thus see the same phases of a machine whose speed drifts, which
separate processes do not: the per-rep ratio of the two sides stays
steady where the ratio of two separate benchmark runs swings.  One
untimed pass over the first group comes first, so that each side's
lazy set-up and caches are filled before timing.  The inputs are the
workload's groups of seed 1, or of ``--seed N`` (to recheck a gain
measured on one seed on a held-out one), and there are five timed reps.

Prints each rep's operations per second on both sides and their ratio,
change over base, and the median ratio; then, over all reps, each
side's median operation time and their ratio, change over base, so that
a claim on the median latency can be checked in one process; then one
line per rank of the input modules with each side's operations per
second and their ratio, and each side's median operation time and their
ratio, so that a gain can be placed by rank; then the same line per
operation kind, the workload's op tuple such as ``prop2.5 rho-t``, so
that it can be placed by criterion.  Exits 1 if an
operation's output differs between the two sides, else 0.  No bytecode is written
into either checkout.  Standard library only.
"""

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import tempfile
import types
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_MODULES = ("cli", "diffmod", "katz", "xpoly", "ultranorm", "normvalue")
DEFAULT_SEED = 1
REPS = 5


def load(checkout: Path, name: str) -> types.SimpleNamespace:
    """The package under ``checkout/src/katzcyclic``, imported as ``name``,
    with its modules as attributes, as ``bench/workloads.py`` reads them.
    The package imports itself only relatively, so each name holds a copy
    of its own."""
    pkg_dir = checkout / "src" / "katzcyclic"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"{name}.{m}") for m in PROGRAM_MODULES}
    )


def write_inputs(workload, seed: int, groups: int, workdir: Path):
    """[(module, path, op)] for every operation of the first ``groups`` groups."""
    out = []
    for g in range(groups):
        for k, module in enumerate(workload.group(seed, g)):
            path = workdir / f"g{g}_{k}.json"
            path.write_text(json.dumps(module.doc), encoding="utf-8")
            out.extend((module, str(path), op) for op in workload.ops(module))
    return out


def kind(op) -> str:
    """An operation's kind: the parts of its op tuple that are set."""
    return " ".join(str(part) for part in op if part is not None)


def run_pass(workload, sides: dict, ops, busy: dict, by_rank: dict, by_kind: dict,
             mismatches: set, start: int = 0):
    """Every operation on both sides, the first side alternating; adds
    each side's operation time to ``busy`` and, for a module of rank n,
    appends it to the lists ``by_rank[n][side]`` and
    ``by_kind[kind(op)][side]``, and notes each operation whose outputs
    differ."""
    names = list(sides)
    for k, (module, path, op) in enumerate(ops, start):
        outs = {}
        for name in names[::-1] if k % 2 else names:
            t0 = perf_counter()
            rc, out, _ = workload.run(sides[name], path, op)
            elapsed = perf_counter() - t0
            busy[name] += elapsed
            by_rank.setdefault(module.n, {n: [] for n in names})[name].append(elapsed)
            by_kind.setdefault(kind(op), {n: [] for n in names})[name].append(elapsed)
            outs[name] = (rc, out)
        if len(set(outs.values())) > 1:
            mismatches.add(f"{Path(path).name} {op}")


def medians(times: dict) -> str:
    """Each side's median of its operation times ``times[side]`` and
    their ratio, change over base."""
    base, change = statistics.median(times["base"]), statistics.median(times["change"])
    return (f"median base {base * 1e3:.4g} ms  change {change * 1e3:.4g} ms  "
            f"ratio {change / base:.4f}")


def breakdown(label: str, times: dict) -> str:
    """One line for the operations under ``label``: their count, each
    side's operations per second and their ratio, and ``medians``."""
    count = len(times["base"])
    base, change = sum(times["base"]), sum(times["change"])
    return (f"  {label}: {count} operations  base {count / base:.4g} ops/s  "
            f"change {count / change:.4g} ops/s  ratio {base / change:.4f}  "
            f"{medians(times)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    ap.add_argument("--workload", required=True, help="a workload of bench/workloads.py")
    ap.add_argument("--groups", type=int, default=None,
                    help="input groups per rep (default: the workload's reference groups)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"seed of the input groups (default: {DEFAULT_SEED})")
    args = ap.parse_args(argv)
    sides = {"base": args.base.resolve(), "change": ROOT}
    for name, checkout in sides.items():
        if not (checkout / "src" / "katzcyclic" / "__init__.py").is_file():
            ap.error(f"{name}: no src/katzcyclic in {checkout}")

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(sorted(WORKLOADS))}")
    workload = WORKLOADS[args.workload]
    groups = workload.ref_groups if args.groups is None else args.groups
    if groups < 1:
        ap.error("--groups must be >= 1")
    programs = {name: load(checkout, f"katzcyclic_{name}") for name, checkout in sides.items()}

    mismatches = set()
    ratios = []
    by_rank, by_kind = {}, {}
    with tempfile.TemporaryDirectory(prefix="interleave-") as workdir:
        ops = write_inputs(workload, args.seed, groups, Path(workdir))
        warm = write_inputs(workload, args.seed, 1, Path(workdir))
        run_pass(workload, programs, warm, dict.fromkeys(sides, 0.0), {}, {}, mismatches)
        print(f"{workload.name}: seed {args.seed}, {groups} groups, "
              f"{len(ops)} operations per side per rep, {REPS} reps")
        for rep in range(REPS):
            busy = dict.fromkeys(sides, 0.0)
            run_pass(workload, programs, ops, busy, by_rank, by_kind, mismatches, start=rep)
            ratios.append(busy["base"] / busy["change"])
            print(f"  rep {rep + 1}: base {len(ops) / busy['base']:.4g} ops/s  "
                  f"change {len(ops) / busy['change']:.4g} ops/s  ratio {ratios[-1]:.4f}")
    print(f"  median ratio {statistics.median(ratios):.4f} (change ops/s over base ops/s)")
    overall = {name: [t for times in by_rank.values() for t in times[name]] for name in sides}
    print(f"  operation time: {medians(overall)} (change over base)")
    for n, times in sorted(by_rank.items()):
        print(breakdown(f"rank {n}", times))
    for name, times in by_kind.items():
        print(breakdown(f"kind {name}", times))
    if mismatches:
        print(f"  outputs DIFFER on {len(mismatches)} operations, first: {min(mismatches)}")
        return 1
    print("  outputs identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
