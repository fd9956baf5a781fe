"""The pure parts of tools/bench_compare.py on hand-made runs: medians,
quartile spreads, the metrics worse than their bound, the gains the
runs settle, the metrics the runs leave unresolved, the counts that differ between traced runs and
the order in which the sides alternate."""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"


@pytest.fixture(scope="module")
def tool():
    if not TOOL.is_file() or not (TOOL.parent.parent / "BENCHMARK.json").is_file():
        pytest.skip("needs the project checkout with tools/bench_compare.py")
    spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(**series):
    """One run per position: runs(a=[1, 2]) == [{"a": 1}, {"a": 2}]."""
    return [dict(zip(series, values)) for values in zip(*series.values())]


def test_medians_and_spreads(tool):
    sample = runs(ops_per_s=[1.0, 2.0, 3.0, 4.0, 5.0])
    assert tool.medians(sample) == {"ops_per_s": 3.0}
    assert tool.quartile_spreads(sample) == {"ops_per_s": 3.0}


def test_worse_beyond_bound_reads_direction_and_bound(tool):
    base = {"ops_per_s": 100.0, "op_s.p50": 1.0, "ok_frac": 1.0, "peak_rss_mb": 30.0}
    # inside every bound (25 %, 25 %, 1 % and 10 %)
    same = {"ops_per_s": 76.0, "op_s.p50": 1.24, "ok_frac": 0.995, "peak_rss_mb": 32.9}
    assert tool.worse_beyond_bound(base, same) == []
    # just past each bound
    worse = {"ops_per_s": 74.0, "op_s.p50": 1.26, "ok_frac": 0.98, "peak_rss_mb": 33.1}
    assert tool.worse_beyond_bound(base, worse) == [
        "ops_per_s", "op_s.p50", "ok_frac", "peak_rss_mb"]
    # better by any amount is never worse
    better = {"ops_per_s": 1000.0, "op_s.p50": 0.1, "ok_frac": 1.0, "peak_rss_mb": 1.0}
    assert tool.worse_beyond_bound(base, better) == []


def test_worse_beyond_bound_on_medians_of_runs(tool):
    base = runs(**{"op_s.tail": [1.0, 1.0, 1.1], "setup_s": [0.5, 0.5, 0.5]})
    change = runs(**{"op_s.tail": [2.0, 1.0, 2.0], "setup_s": [0.5, 0.9, 0.6]})
    assert tool.worse_beyond_bound(tool.medians(base), tool.medians(change)) == ["op_s.tail"]


def test_metrics_outside_the_benchmark_are_ignored(tool):
    assert tool.worse_beyond_bound({"linalg.det.calls": 1}, {"linalg.det.calls": 9}) == []


def test_unresolved_when_the_base_spread_is_wider_than_the_bound(tool):
    # base op_s.p50: median 1.0, quartile spread 0.5 > 25 % of 1.0
    base = runs(**{"op_s.p50": [0.6, 0.8, 1.0, 1.2, 1.4], "ops_per_s": [100.0] * 5})
    change = runs(**{"op_s.p50": [0.7, 0.9, 1.0, 1.1, 1.3], "ops_per_s": [90.0] * 5})
    assert tool.unresolved(base, change) == ["op_s.p50"]


def test_narrow_base_spread_is_resolved(tool):
    # spread 0.2 is within 25 % of the median 1.0, whatever the change reads
    base = runs(**{"op_s.p50": [0.9, 0.95, 1.0, 1.05, 1.1]})
    change = runs(**{"op_s.p50": [0.5, 2.0, 1.0, 3.0, 0.1]})
    assert tool.unresolved(base, change) == []


def test_change_beating_every_base_run_is_resolved(tool):
    base = runs(**{"op_s.p50": [0.6, 0.8, 1.0, 1.2, 1.4], "ops_per_s": [60, 80, 100, 120, 140]})
    # lower is better for op_s.p50, higher for ops_per_s
    change = runs(**{"op_s.p50": [0.5, 0.55, 0.45, 0.58, 0.59],
                     "ops_per_s": [141, 150, 160, 170, 200]})
    assert tool.unresolved(base, change) == []
    # one change run no better than the best base run leaves it unresolved
    change[0] = {"op_s.p50": 0.6, "ops_per_s": 140}
    assert tool.unresolved(base, change) == ["ops_per_s", "op_s.p50"]


def test_a_gain_inside_the_base_spread_is_not_settled(tool):
    """About 10 % more ops_per_s, won in 9 of 10 pairs, inside a base
    quartile spread of about 12.5 %: the medians 970 and 1064 differ by
    94, less than the spread 121.5."""
    base = [880, 900, 930, 950, 965, 975, 1010, 1040, 1056, 1060]
    change = [1010, 1040, 1050, 1062, 1066, 1068, 1070, 1080, 1090, 1055]
    b, c = runs(ops_per_s=base), runs(ops_per_s=change)
    assert tool.medians(b) == {"ops_per_s": 970} and tool.medians(c) == {"ops_per_s": 1064}
    assert tool.quartile_spreads(b)["ops_per_s"] == pytest.approx(121.5)
    assert tool.change_wins(b, c) == {"ops_per_s": 9}
    assert tool.settled_gains(b, c) == []


def test_a_clear_gain_is_settled(tool):
    """15 % more ops_per_s and a lower op_s.tail in 10 of 10 pairs, beyond
    a narrow base spread; op_s.p50 holds, and equal ok_frac is no gain."""
    base = runs(ops_per_s=[993, 1031, 967, 996, 992, 994, 985, 990, 1000, 980],
                **{"op_s.tail": [2.73] * 10, "op_s.p50": [0.312] * 10, "ok_frac": [1.0] * 10})
    change = runs(ops_per_s=[1170, 1168, 1084, 1142, 1111, 1132, 1150, 1140, 1145, 1139],
                  **{"op_s.tail": [2.52] * 10, "op_s.p50": [0.312] * 10, "ok_frac": [1.0] * 10})
    assert tool.settled_gains(base, change) == ["ops_per_s", "op_s.tail"]
    assert tool.change_wins(base, change)["ok_frac"] == 0


def test_ties_count_for_neither_side(tool):
    """A large gain that wins only 8 pairs, the other two tied, is not
    settled."""
    base = runs(ops_per_s=[100.0] * 10)
    change = runs(ops_per_s=[100.0, 100.0] + [150.0] * 8)
    assert tool.change_wins(base, change) == {"ops_per_s": 8}
    assert tool.settled_gains(base, change) == []
    change[0] = {"ops_per_s": 150.0}
    assert tool.settled_gains(base, change) == ["ops_per_s"]


def test_traced_runs_are_summarised_by_their_medians(tool):
    # three traced runs of one side: seconds move, counts repeat
    traced = runs(**{"polys.mul.calls": [465, 465, 465],
                     "polys.mul.self_s": [0.030, 0.012, 0.020]})
    assert tool.medians(traced) == {"polys.mul.calls": 465, "polys.mul.self_s": 0.020}
    assert tool.count_mismatch(traced) == []


def test_count_mismatch_names_counts_only(tool):
    traced = runs(**{"polys.gcd.calls": [10, 10, 11], "linalg.det.calls": [4, 4, 4],
                     "linalg.det.self_s": [0.1, 0.2, 0.3]})
    # seconds differ too, but only an exact count that differs is named
    assert tool.count_mismatch(traced) == ["polys.gcd.calls"]
    assert "linalg.det.self_s" not in tool.COUNTS


def test_sides_alternate_which_goes_first(tool):
    sides = ["base", "change"]
    order = [tool.alternating(k, sides) for k in range(tool.TRACED_RUNS)]
    assert order == [["base", "change"], ["change", "base"], ["base", "change"]]
