#!/usr/bin/env python3
"""katzcyclic benchmark: one client, closed loop, single process.

    python3 bench/run.py --workload qx-cyclic --seed 3 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from src/.
Each operation starts after the previous one has finished and turns one
seeded module file into the bytes a user would get.  Every answer is
checked after the operation, outside the timed region.

--trace 0 runs a fixed number of input groups, sized from --seconds,
and prints the end-to-end metrics.  Times are reported in
reference-machine seconds: each is scaled by the speed of a fixed
kernel timed next to it (see NOTES.md for why); the times as measured
are printed above the result.  --trace 1 runs the workload's fixed
reference groups twice, plain and then with every public function of
the program wrapped (see tracing.py), and prints the per-layer metrics;
its counts repeat exactly for a given seed, so it ignores --seconds.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit status 2 means the
program's sources were not found next to the benchmark.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import types
from itertools import accumulate
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 21
# Time of kernel_s() on the reference machine (see NOTES.md) when its CPU
# runs at full speed.  Every time the benchmark reports is scaled by
# REFERENCE_KERNEL_S over the mean kernel time measured around it, within
# WINDOW_S or the operation's own duration, whichever is longer.
REFERENCE_KERNEL_S = 0.0032
WINDOW_S = 1.0
PROGRAM_MODULES = ("cli", "diffmod", "katz", "xpoly", "ultranorm", "normvalue")


def import_program():
    """Import katzcyclic afresh from src/ and return its modules."""
    for name in [m for m in sys.modules if m == "katzcyclic" or m.startswith("katzcyclic.")]:
        del sys.modules[name]
    pkg = importlib.import_module("katzcyclic")
    if Path(pkg.__file__).resolve().parent != SRC / "katzcyclic":
        raise ImportError(f"katzcyclic imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"katzcyclic.{m}") for m in PROGRAM_MODULES}
    )


def write_group(workload, seed, index, workdir):
    """Generate group `index` and write one module file per input."""
    items = []
    for k, module in enumerate(workload.group(seed, index)):
        path = workdir / f"g{index}_{k}.json"
        path.write_text(json.dumps(module.doc), encoding="utf-8")
        items.append((module, str(path)))
    return items


def kernel_s():
    """Seconds taken by a fixed pure-Python kernel (exact rational
    arithmetic, like the program's, but sharing no code with it)."""
    t0 = perf_counter()
    x = Fraction(1)
    for i in range(1, 600):
        x = (x * 3 + Fraction(1, i)) / 2
        if x.denominator.bit_length() > 200:
            x = Fraction(1, i)
    return perf_counter() - t0


def sample_kernel(samples):
    """Run the kernel; record (midpoint, seconds)."""
    t0 = perf_counter()
    k = kernel_s()
    samples.append((t0 + k / 2, k))


class Tally:
    """Operations attempted and failed, their start times and latencies,
    the kernel samples taken between them, and the output digest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.starts = []
        self.latencies = []
        self.kernel = []
        self.ref_digest = hashlib.sha256()
        self.problems = []

    def scaled(self):
        """Latencies in reference-machine seconds."""
        times = [t for t, _ in self.kernel]
        total = list(accumulate((k for _, k in self.kernel), initial=0.0))
        out = []
        for t0, dt in zip(self.starts, self.latencies):
            w = max(WINDOW_S, dt)
            lo = bisect.bisect_left(times, t0 - w)
            hi = bisect.bisect_right(times, t0 + dt + w)
            out.append(dt * REFERENCE_KERNEL_S * (hi - lo) / (total[hi] - total[lo]))
        return out

    def fail(self, where, problems):
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"{where}: {'; '.join(problems)}")


def setup(workload, seed, workdir):
    """Import the program and write the reference groups' module files.

    Repeated SETUP_REPEATS times; returns the median time in
    reference-machine seconds and the last import with its files."""
    clock = Tally()
    for _ in range(SETUP_REPEATS):
        sample_kernel(clock.kernel)
        t0 = perf_counter()
        kz = import_program()
        groups = [write_group(workload, seed, g, workdir) for g in range(workload.ref_groups)]
        clock.starts.append(t0)
        clock.latencies.append(perf_counter() - t0)
    sample_kernel(clock.kernel)
    return statistics.median(clock.scaled()), kz, groups


def time_op(workload, kz, path, op, tracer=None):
    """One operation, timed; an operation that raises has failed."""
    if tracer is not None:
        tracer.on = True
    t0 = perf_counter()
    try:
        rc, out, err = workload.run(kz, path, op)
    except Exception as exc:
        rc, out, err = 1, b"", f"{type(exc).__name__}: {exc}"
    dt = perf_counter() - t0
    if tracer is not None:
        tracer.on = False
    return t0, dt, rc, out, err


def run_group(workload, kz, items, tally, in_ref, tracer=None, where=""):
    """Run every operation of one group, timing each; check each answer.
    The kernel runs before each module's operations and after the last."""
    for module, path in items:
        sample_kernel(tally.kernel)
        results = []
        bad = {}
        for i, op in enumerate(workload.ops(module)):
            t0, dt, rc, out, err = time_op(workload, kz, path, op, tracer)
            tally.attempted += 1
            tally.starts.append(t0)
            tally.latencies.append(dt)
            if in_ref:
                tally.ref_digest.update(out)
            results.append((rc, out))
            try:
                problems = workload.check(kz, module, op, rc, out) if out else [err.strip() or f"no output, exit code {rc}"]
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if problems:
                bad[i] = problems
        for i, problem in workload.check_module(kz, module, results):
            bad.setdefault(i, []).append(problem)
        for i, problems in sorted(bad.items()):
            tally.fail(f"{where}{path} op {i}", problems)
    sample_kernel(tally.kernel)


def tail(latencies):
    """(percentile, value, samples beyond) for the highest percentile that
    leaves at least 10 samples beyond it: the 11th largest latency."""
    ordered = sorted(latencies)
    rank = max(1, len(ordered) - 10)
    return 100.0 * rank / len(ordered), ordered[rank - 1], len(ordered) - rank


def check_digest(workload, seed, tally):
    digest = tally.ref_digest.hexdigest()
    print(f"reference output sha256 ({workload.name}, seed {seed}): {digest}")
    if seed != DEFAULT_SEED:
        return
    expected = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    if expected.get(workload.name) != digest:
        tally.fail("reference outputs", [f"sha256 {digest} != recorded {expected.get(workload.name)}"])


def measure(workload, kz, seed, seconds, ref_groups, workdir):
    """Closed loop over a fixed number of groups, sized so that they take
    about `seconds` of operation time on the reference machine; every
    run of a workload with the same --seconds measures the same work."""
    count = max(len(ref_groups), round(seconds / workload.group_s))
    tally = Tally()
    for g in range(count):
        items = ref_groups[g] if g < len(ref_groups) else write_group(workload, seed, g, workdir)
        run_group(workload, kz, items, tally, in_ref=g < len(ref_groups))
        if g + 1 == len(ref_groups):
            check_digest(workload, seed, tally)
    return tally, count


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def result_line(attempted, failed, metrics):
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def end_to_end(workload, seed, seconds, workdir):
    setup_s, kz, ref = setup(workload, seed, workdir)
    tally, groups = measure(workload, kz, seed, seconds, ref, workdir)
    latencies = tally.scaled()
    busy = sum(latencies)
    pct, tail_s, beyond = tail(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(latencies) / busy, "1/s"),
        "op_s.p50": (statistics.median(latencies), "s"),
        "op_s.tail": (tail_s, "s"),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw = tally.latencies
    print(f"{workload.name}: {len(raw)} ops in {groups} groups; as measured: "
          f"{len(raw) / sum(raw):.4g} ops/s, p50 {statistics.median(raw):.4g} s, "
          f"tail {tail(raw)[1]:.4g} s; reference machine: {busy:.3f} s busy")
    print(f"op_s.tail is p{pct:.4g} of {len(latencies)} samples ({beyond} beyond it)")
    print(f"failed_frac = {tally.failed}/{tally.attempted}")
    for line in tally.problems:
        print(f"FAILED {line}")
    return result_line(tally.attempted, tally.failed, metrics)


def traced(workload, seed, workdir):
    _, kz, ref = setup(workload, seed, workdir)
    plain = Tally()
    for items in ref:
        run_group(workload, kz, items, plain, in_ref=True)
    tracer = Tracer()
    tracer.install()
    with_trace = Tally()
    for items in ref:
        run_group(workload, kz, items, with_trace, in_ref=True, tracer=tracer, where="traced ")
    if plain.ref_digest.digest() != with_trace.ref_digest.digest():
        with_trace.fail("traced run", ["outputs differ from the plain run"])
    check_digest(workload, seed, plain)
    metrics = tracer.layer_metrics()
    base, slow = sum(plain.scaled()), sum(with_trace.scaled())
    metrics["trace.overhead_frac"] = ((slow - base) / base, "ratio")
    print(f"{workload.name}: {plain.attempted} ops per pass, {base:.3f} s plain, "
          f"{slow:.3f} s traced (reference-machine seconds)")
    top = sorted(tracer.stats.items(), key=lambda kv: -kv[1][1])[:15]
    for key, (calls, self_s) in top:
        print(f"  {key:40s} {calls:10d} calls {self_s:9.4f} s self")
    for line in plain.problems + with_trace.problems:
        print(f"FAILED {line}")
    attempted = plain.attempted + with_trace.attempted
    failed = plain.failed + with_trace.failed
    return result_line(attempted, failed, metrics)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "katzcyclic" / "__init__.py").is_file():
        print(f"error: program sources not found at {SRC / 'katzcyclic'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            line = traced(workload, args.seed, workdir)
        else:
            line = end_to_end(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still has its directory there
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
