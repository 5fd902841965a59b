"""Self-test of the benchmark: every workload at minimum size.

Run from the repository root: python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = run_benchmark(ROOT, workload, trace)
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in summary["metrics"].values())


def test_known_defect_is_counted_as_a_failure():
    result = run_benchmark(ROOT, "cli_cold", 0)
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["failed"] >= 1
    assert "known defect nan-directions" in result.stdout


def test_wrong_expected_value_counts_in_error_rate(monkeypatch, capsys):
    true_value = checks.quantum_max_closed
    monkeypatch.setattr(checks, "quantum_max_closed", lambda n: true_value(n) + 1.0)
    run.main(["--workload", "warm_mixed", "--seed", "5", "--seconds", "1", "--quick"])
    lines = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["failed"] > 0
    assert summary["correct"] is False
    (rate,) = [line for line in lines if line.startswith("error_rate")]
    assert float(rate.split()[1]) > 0


def test_refuses_to_run_without_the_package():
    bare = ROOT / "perfbench" / "out" / "bare"  # holds only the benchmark's own files
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        result = run_benchmark(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout
