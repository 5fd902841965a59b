"""Every committed BENCH_*.json agrees with its own runs.

A BENCH file at the repository root holds, per workload, the raw end-to-end
metrics of alternating parent/change runs of `perfbench/run.py` and a
summary of them. The summary is recomputed here from the runs: each side's
quartiles (inclusive method), the median ratio, the parent's IQR and whether
the median gap exceeds it, the pairs won by the change split by which side
ran first, and the operation counts. The pairs alternate which side runs
first, and there are at least 10 of them.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")
BETTER = {
    metric["name"]: metric["better"]
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}


def close(value):
    return pytest.approx(value, rel=1e-12, abs=0)


def workloads():
    for path in BENCH_FILES:
        for name, workload in json.loads(path.read_text())["workloads"].items():
            yield pytest.param(workload, id=f"{path.name}:{name}")


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("workload", workloads())
def test_pairs_alternate_and_match_their_seeds(workload):
    runs = workload["runs"]
    assert workload["pairs"] == len(runs) >= 10
    assert workload["seeds"] == [run["seed"] for run in runs]
    firsts = [run["first"] for run in runs]
    assert set(firsts) <= set(SIDES)
    assert all(a != b for a, b in zip(firsts, firsts[1:]))


@pytest.mark.parametrize("workload", workloads())
def test_operation_counts_sum_the_runs(workload):
    runs = workload["runs"]
    for side in SIDES:
        assert workload["attempted"][side] == sum(run[side]["attempted"] for run in runs)
        assert workload["failed"][side] == sum(run[side]["failed"] for run in runs)
        assert workload["correct"][side] == all(run[side]["correct"] for run in runs)


@pytest.mark.parametrize("workload", workloads())
def test_metric_summaries_recompute_from_the_runs(workload):
    runs = workload["runs"]
    assert set(workload["metrics"]) == set(BETTER)
    for metric, summary in workload["metrics"].items():
        values = {side: [run[side]["metrics"][metric] for run in runs] for side in SIDES}
        for side in SIDES:
            q1, median, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
            assert summary[side] == {"q1": close(q1), "median": close(median), "q3": close(q3)}
        parent, change = summary["parent"], summary["change"]
        assert summary["median_ratio"] == close(change["median"] / parent["median"])
        iqr = parent["q3"] - parent["q1"]
        assert summary["parent_iqr"] == close(iqr)
        gap = abs(change["median"] - parent["median"])
        assert summary["median_gap_exceeds_parent_iqr"] == (gap > iqr)
        sign = 1 if BETTER[metric] == "lower" else -1
        won = [sign * (run["change"]["metrics"][metric] - run["parent"]["metrics"][metric]) < 0
               for run in runs]
        assert summary["pairs_won_by_change"] == sum(won)
        for first in SIDES:
            assert summary[f"pairs_won_by_change_{first}_first"] == sum(
                w for w, run in zip(won, runs) if run["first"] == first
            )
