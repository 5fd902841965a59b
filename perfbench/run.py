"""Benchmark for `shimony`: one workload per run, every output checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload {cli_cold,enum_large,warm_mixed}
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

The run builds its inputs from --seed, serves them for about --seconds in a
closed loop (one client, one request at a time), checks every output against
an independent reference outside the timed span, and prints one metric per
line followed by a JSON summary as the last line. --trace 0 reports the
end-to-end metrics; --trace 1 repeats the same passes with spans recorded
around the public `shimony` functions and reports per-layer metrics. Full
results (every computed value and witness index, the environment and the
spans) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
# Stop starting passes once this many times --seconds have gone: it bounds a
# run on a slow host, and so the time all runs of the benchmark take.
OVERRUN = 1.25

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "request_p50_s": "s",
    "request_tail_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("cli_cold", "enum_large", "warm_mixed", "all")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="minimum-size inputs (self-test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def require_checkout() -> None:
    """Refuse to run without the package sources and the golden tables."""
    missing = [
        str(p.relative_to(ROOT))
        for p in (ROOT / "src" / "shimony" / "__init__.py", ROOT / "tests" / "golden" / "table1.csv")
        if not p.is_file()
    ]
    if missing:
        sys.exit(f"error: not a shimony checkout, missing {', '.join(missing)}")
    sys.path.insert(0, str(ROOT / "src"))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# set-up


def prepare(args, scratch: Path):
    """Everything before the first request: imports, inputs and warm-up."""
    from workloads import WORKLOADS, Context

    workload = WORKLOADS[args.workload](Context(ROOT, scratch, child_env(), quick=args.quick))
    phase_seconds = args.seconds / 2 if args.trace else args.seconds
    plans = [workload.requests(args.seed, p) for p in range(workload.passes(phase_seconds))]
    origin = importlib.util.find_spec("shimony").origin  # locates without importing
    if not Path(origin).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"error: shimony resolves to {origin}, not to this checkout")
    workload.setup()
    return workload, plans


def setup_probe(args) -> None:
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        prepare(args, Path(scratch))
        print("ready", flush=True)


def measure_setup(args) -> list[float]:
    """Benchmark process start to first request ready, in fresh processes."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        argv.append("--quick")
    samples = []
    for _ in range(1 if args.quick else SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env()) as probe:
            line = probe.stdout.readline()
            samples.append(time.perf_counter() - start)
            probe.communicate()
        if line.strip() != "ready" or probe.returncode != 0:
            sys.exit(f"error: set-up probe failed with exit code {probe.returncode}")
    return samples


# ---------------------------------------------------------------------------
# measurement


class Phase:
    """Pass wall times, request outcomes and check entries of one mode."""

    def __init__(self):
        self.walls: list[float] = []
        self.outcomes: list = []
        self.entries: list[dict] = []


def serve(workload, plans, seconds: float, tracer=None) -> tuple[Phase, Phase | None]:
    """Run every pass and check its outputs afterwards, outside the timed span.

    With a tracer, each pass is served a second time with spans recorded, so
    traced and untraced passes alternate over the same inputs.
    """
    from workloads import check_outcome, run_pass

    plain, traced = Phase(), (Phase() if tracer is not None else None)
    start = time.perf_counter()
    for pass_index, requests in enumerate(plans):
        if pass_index and time.perf_counter() - start > OVERRUN * seconds:
            break
        for phase in (plain, traced):
            if phase is None:
                continue
            if phase is plain:
                wall, outcomes = run_pass(workload, requests)
            else:
                wall, outcomes = workload.run_traced(requests, tracer)
            phase.walls.append(wall)
            phase.outcomes += outcomes
            for request, outcome in zip(requests, outcomes):
                entry = check_outcome(workload, request, outcome)
                entry["pass"] = pass_index
                phase.entries.append(entry)
    return plain, traced


def tail(latencies: list[float]) -> dict:
    """Latency at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    beyond = 10 if len(ordered) > 10 else 0  # too few samples: the maximum
    rank = len(ordered) - 1 - beyond
    return {
        "value": ordered[rank],
        "percentile": 100.0 * (rank + 1) / len(ordered),
        "samples": len(ordered),
        "beyond": beyond,
    }


def child_cost(code: str) -> tuple[float, float, int]:
    """(seconds, peak RSS in MB, modules loaded) of `python -c code`."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=child_env(), cwd=ROOT) as child:
        _pid, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        output = child.stdout.read()
    if child.returncode != 0:
        sys.exit(f"error: python -c {code!r} exited with {child.returncode}")
    return seconds, usage.ru_maxrss / 1024.0, int(output)


def import_cost(samples: int) -> dict:
    """Fresh `import shimony.cli` minus a bare interpreter."""
    bare = [child_cost("import sys; print(len(sys.modules))") for _ in range(samples)]
    full = [child_cost("import sys, shimony.cli; print(len(sys.modules))") for _ in range(samples)]

    def median(rows, k):
        return statistics.median(row[k] for row in rows)

    return {
        "import.self_s": median(full, 0) - median(bare, 0),
        "import.rss_mb": median(full, 1) - median(bare, 1),
        "import.modules": int(median(full, 2) - median(bare, 2)),
    }


# ---------------------------------------------------------------------------
# environment and report


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(load_before, load_after) -> dict:
    from shimony import _kernels

    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "kernel_backend": _kernels.backend_name(),
        "numba_imports": numba_imports,
    }


def run_all(args) -> int:
    """Every workload, untraced then traced, one process after another."""
    status = 0
    for workload in ("cli_cold", "enum_large", "warm_mixed"):
        for trace in (0, 1):
            print(f"== {workload} --trace {trace}", flush=True)
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            status |= subprocess.run(argv + (["--quick"] if args.quick else []), cwd=ROOT).returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    require_checkout()
    OUT.mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        setup_probe(args)
        return 0

    # Children are started while this process is still small: a child's peak
    # RSS includes the RSS of the process that started it.
    load_before = os.getloadavg()
    imports = import_cost(1 if args.quick else IMPORT_SAMPLES) if args.trace else {}
    setup_samples = measure_setup(args)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        workload, plans = prepare(args, Path(scratch))
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        plain, traced = serve(workload, plans, args.seconds, tracer)
        peak_rss_mb = workload.peak_rss_mb(plain.outcomes)
    load_after = os.getloadavg()

    latencies = [o.latency for o in plain.outcomes]
    request_tail = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.fmean(plain.walls),  # serving time / passes
        "request_p50_s": statistics.median(latencies),
        "request_tail_s": request_tail["value"],
        "peak_rss_mb": peak_rss_mb,
    }
    checked = plain.entries + (traced.entries if traced else [])
    failures = [e for e in checked if not e["ok"]]
    known = [e for e in failures if "known_defect" in e]
    error_rate = len(failures) / len(checked)

    from tracer import LAYER_METRICS, layer_metrics

    layers = None
    if tracer is not None:
        layers = layer_metrics(tracer.dumps())
        layers.update(imports)
        layers["trace.overhead_frac"] = statistics.fmean(traced.walls) / metrics["wall_s"] - 1.0
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        reported = {k: {"value": layers[k], "unit": units[k]} for k in units}
    else:
        reported = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}

    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(plain.walls),
        "environment": environment(load_before, load_after),
        "metrics": metrics,
        "error_rate": error_rate,
        "request_tail": request_tail,
        "setup_samples": setup_samples,
        "pass_walls": plain.walls,
        "traced_pass_walls": traced.walls if traced else None,
        "known_defects": sorted({e["known_defect"] for e in known}),
        "failures": failures,
        "layers": layers,
        "layer_targets": {name: moves for name, _, moves in LAYER_METRICS},
        "requests": plain.entries,
        "traced_requests": traced.entries if traced else None,
        "spans": tracer.dumps() if tracer else None,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(results, default=_plain), encoding="utf-8")

    print(f"environment: {json.dumps(results['environment'])}")
    for name, metric in reported.items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'error_rate':40s} {error_rate:.6g} ({len(failures)} of {len(checked)} requests)")
    print(
        f"{'request_tail_s percentile':40s} p{request_tail['percentile']:.1f} of "
        f"{request_tail['samples']} samples, {request_tail['beyond']} beyond"
    )
    for entry in failures:
        tag = f"known defect {entry['known_defect']}" if "known_defect" in entry else "FAILED"
        print(f"{tag}: {entry['request']}: {entry['failure']}")
    print(f"results: {path.relative_to(ROOT)}")
    summary = {
        "correct": len(known) == len(failures),
        "attempted": len(checked),
        "failed": len(failures),
        "metrics": reported,
    }
    print(json.dumps(summary))
    return 0


def _plain(value):
    """JSON fallback for numpy scalars in the results file."""
    return value.item() if hasattr(value, "item") else str(value)


if __name__ == "__main__":
    sys.exit(main())
