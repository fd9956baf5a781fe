#!/usr/bin/env python3
"""Compare the end-to-end benchmark of two checkouts and write BENCH_<tag>.json.

    python3 tools/bench_compare.py --base ../parent --tag 4

Runs ``bench/run.py --trace 0`` for the benchmark's ``run_seconds`` on
every workload of ``BENCHMARK.json`` and on seeds 1-10, once in the base
checkout and once in this one, as one pair per seed; the side that
runs first alternates from pair to pair, so that both sides see the same
phases of a noisy machine.  Then it runs ``bench/run.py --trace 1``
three times per side and workload on seed 0, alternating which side goes
first, and keeps each side's per-layer medians, so that no single moment
of the machine sets a ``self_s``; the counts of seed 0 repeat exactly,
and a count that differs between a side's traced runs is printed and
recorded (``count_mismatch``) and makes the exit status 1.  The JSON
written to the repository root holds every run's metrics, the
per-metric medians of each side, the change/base ratio of the medians,
both sides' quartile spreads, the number of pairs the change wins, the
end-to-end metrics whose change median is worse than the base median by
more than their bound (``worse_beyond_bound``, also printed), the
end-to-end metrics whose gain the runs settle (``settled_gains``, also
printed: the change wins at least 9 of 10 pairs and its median is better
by more than the base's quartile spread), the end-to-end metrics the
runs cannot settle (``unresolved``, also printed), both sides' per-layer
medians, and the machine and Python details.
Standard library only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = SPEC["run_seconds"]
SEEDS = range(1, 11)
HIGHER_IS_BETTER = {m["name"]: m["better"] == "higher" for m in SPEC["end_to_end"]}
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
TRACED_RUNS = 3
# A gain is settled when the change wins at least this share of the pairs.
SETTLED_WIN_SHARE = (9, 10)


def run_bench(checkout: Path, workload: str, seed: int, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def medians(runs):
    return {name: statistics.median(r[name] for r in runs) for name in runs[0]}


def count_mismatch(runs) -> list:
    """The per-layer counts that are not equal in every traced run of one
    side; on the fixed seed-0 input each must repeat exactly."""
    return [name for name in COUNTS
            if name in runs[0] and len({r[name] for r in runs}) > 1]


def alternating(k: int, sides: list) -> list:
    """The two sides in the order of pair k: as given for even k, swapped
    for odd k."""
    return sides[::-1] if k % 2 else sides


def quartile_spreads(runs):
    """Distance between the upper and lower quartile of each metric."""
    spreads = {}
    for name in runs[0]:
        q1, _, q3 = statistics.quantiles([r[name] for r in runs], n=4)
        spreads[name] = q3 - q1
    return spreads


def worse_beyond_bound(base: dict, change: dict) -> list:
    """End-to-end metrics whose change median is worse than the base
    median by more than the metric's bound, taken relative to the base
    median."""
    worse = []
    for name, bound in BOUNDS.items():
        if name not in base or name not in change:
            continue
        loss = base[name] - change[name] if HIGHER_IS_BETTER[name] else change[name] - base[name]
        if loss > bound * abs(base[name]):
            worse.append(name)
    return worse


def change_wins(base_runs, change_runs) -> dict:
    """Per metric, the number of pairs (base_runs[k], change_runs[k]) in
    which the change is better; a tie counts for neither side."""
    return {k: sum(c[k] > b[k] if HIGHER_IS_BETTER[k] else c[k] < b[k]
                   for b, c in zip(base_runs, change_runs))
            for k in base_runs[0]}


def settled_gains(base_runs, change_runs) -> list:
    """End-to-end metrics whose gain the runs settle: the change wins at
    least 9 of 10 pairs, and its median is better than the base median
    by more than the base runs' quartile spread.  A gain inside the
    base's own run-to-run spread is not settled, however many pairs it
    wins."""
    base, change = medians(base_runs), medians(change_runs)
    spread, wins = quartile_spreads(base_runs), change_wins(base_runs, change_runs)
    won, of = SETTLED_WIN_SHARE
    out = []
    for name in BOUNDS:
        if name not in base:
            continue
        gain = change[name] - base[name] if HIGHER_IS_BETTER[name] else base[name] - change[name]
        if wins[name] * of >= won * len(base_runs) and gain > spread[name]:
            out.append(name)
    return out


def unresolved(base_runs, change_runs) -> list:
    """End-to-end metrics the runs cannot settle: the base runs' quartile
    spread, relative to their median, is wider than the metric's bound,
    and not every change run is better than every base run."""
    base, spread = medians(base_runs), quartile_spreads(base_runs)
    out = []
    for name, bound in BOUNDS.items():
        if name not in base or spread[name] <= bound * abs(base[name]):
            continue
        b = [r[name] for r in base_runs]
        c = [r[name] for r in change_runs]
        if not (min(c) > max(b) if HIGHER_IS_BETTER[name] else max(c) < min(b)):
            out.append(name)
    return out


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    ap.add_argument("--tag", required=True, help="output is BENCH_<tag>.json")
    args = ap.parse_args(argv)

    doc = {
        "command": f"bench/run.py --trace 0 --seconds {SECONDS:g}",
        "per_layer_command": f"bench/run.py --trace 1 --seed 0, median of {TRACED_RUNS}",
        "seeds": list(SEEDS),
        "machine": machine_info(),
        "workloads": {},
    }
    mismatched = False
    for workload in WORKLOADS:
        base_runs, change_runs = [], []
        sides = [(base_runs, args.base.resolve()), (change_runs, ROOT)]
        for k, seed in enumerate(SEEDS):
            for runs, checkout in alternating(k, sides):
                runs.append(run_bench(checkout, workload, seed))
            print(f"{workload} seed {seed}: ops_per_s {base_runs[-1]['ops_per_s']:.2f} -> "
                  f"{change_runs[-1]['ops_per_s']:.2f}", file=sys.stderr)
        base, change = medians(base_runs), medians(change_runs)
        worse = worse_beyond_bound(base, change)
        settled = settled_gains(base_runs, change_runs)
        unsettled = unresolved(base_runs, change_runs)
        print(f"{workload}: worse beyond bound: {', '.join(worse) or 'none'}; "
              f"settled gains: {', '.join(settled) or 'none'}; "
              f"unresolved: {', '.join(unsettled) or 'none'}", file=sys.stderr)
        traced = {"base": [], "change": []}
        traced_sides = [(traced["base"], args.base.resolve()), (traced["change"], ROOT)]
        for k in range(TRACED_RUNS):
            for runs, checkout in alternating(k, traced_sides):
                runs.append(run_bench(checkout, workload, 0, trace=1))
        unequal = {side: count_mismatch(runs) for side, runs in traced.items()}
        if any(unequal.values()):
            mismatched = True
            print(f"{workload}: counts differ between traced runs: {unequal}", file=sys.stderr)
        doc["workloads"][workload] = {
            "base_median": base,
            "change_median": change,
            "ratio": {k: change[k] / base[k] if base[k] else None for k in base},
            "base_quartile_spread": quartile_spreads(base_runs),
            "change_quartile_spread": quartile_spreads(change_runs),
            "worse_beyond_bound": worse,
            "settled_gains": settled,
            "unresolved": unsettled,
            "change_wins": change_wins(base_runs, change_runs),
            "base_runs": base_runs,
            "change_runs": change_runs,
            "per_layer_seed_0": {side: medians(runs) for side, runs in traced.items()},
            "count_mismatch": unequal,
        }
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
