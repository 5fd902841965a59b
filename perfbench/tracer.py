"""Span tracer installed around the public functions of `shimony`.

`Tracer.install()` replaces each traced function, wherever a `shimony` module
holds a reference to it, with a wrapper that records a span: layer name,
start, end, parent span and request. A layer's self time is its span's
duration minus the time covered by its child spans. Spans stay in memory
until the run ends. Nothing in `shimony` itself is edited.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Per-layer metrics: name, unit, and the end-to-end metric and workload each
# one should move.
LAYER_METRICS = [
    ("import.self_s", "s", "request_p50_s, request_tail_s on cli_cold; setup_s elsewhere"),
    ("import.modules", "count", "request_p50_s, request_tail_s on cli_cold; setup_s elsewhere"),
    ("import.rss_mb", "MB", "peak_rss_mb on cli_cold"),
    ("matrices.lhv_bruteforce.self_s", "s", "wall_s, request_tail_s on enum_large"),
    ("matrices.lhv_bruteforce.calls", "count", "wall_s, request_tail_s on enum_large"),
    ("matrices.lhv_bruteforce.assign_per_s", "1/s", "wall_s, request_tail_s, peak_rss_mb on enum_large"),
    ("steering.lhs_bound.self_s", "s", "wall_s, request_tail_s on enum_large"),
    ("steering.lhs_bound.calls", "count", "wall_s, request_tail_s on enum_large"),
    ("steering.lhs_bound.assign_per_s", "1/s", "wall_s, request_tail_s, peak_rss_mb on enum_large"),
    ("seesaw.multistart.self_s", "s", "wall_s, request_tail_s on warm_mixed"),
    ("seesaw.runs", "count", "wall_s, request_tail_s on warm_mixed"),
    ("seesaw.iterations", "count", "wall_s, request_tail_s on warm_mixed"),
    ("seesaw.hit_frac", "frac", "wall_s, request_tail_s on warm_mixed"),
    ("steering.oracle.self_s", "s", "request_tail_s on warm_mixed"),
    ("steering.oracle.calls", "count", "request_tail_s on warm_mixed"),
    ("cli.main.self_s", "s", "request_p50_s on warm_mixed"),
    ("output.render.self_s", "s", "request_p50_s on warm_mixed"),
    ("output.render.calls", "count", "request_p50_s on warm_mixed"),
    ("output.render.bytes", "bytes", "request_p50_s on warm_mixed"),
    ("catalog.lookup.self_s", "s", "request_p50_s on warm_mixed"),
    ("catalog.verify.self_s", "s", "request_p50_s on warm_mixed"),
    ("catalog.verify.calls", "count", "request_p50_s on warm_mixed"),
    ("quantum.validate.self_s", "s", "request_p50_s on warm_mixed"),
    ("quantum.validate.calls", "count", "request_p50_s on warm_mixed"),
    ("trace.overhead_frac", "frac", "none: traced wall_s over untraced wall_s, minus 1"),
]

# Layer -> (module, attribute path) of the functions whose calls are spans.
SPAN_TARGETS = {
    "cli.main": [("shimony.cli", "main")],
    "output.render": [("shimony.output", "OutputDocument.render")],
    "catalog.lookup": [
        ("shimony.catalog", "catalog_directions"),
        ("shimony.catalog", "load_directions_file"),
    ],
    "catalog.verify": [("shimony.catalog", "verify_directions")],
    "quantum.validate": [
        ("shimony.quantum", "as_measurement_set"),
        ("shimony.quantum", "as_bloch_vector"),
    ],
    "matrices.lhv_bruteforce": [("shimony.matrices", "lhv_bound_bruteforce")],
    "steering.lhs_bound": [("shimony.steering", "steering_lhs_bound")],
    "steering.oracle": [("shimony.steering", "steering_lhs_bound_oracle")],
    "seesaw.multistart": [("shimony.seesaw", "multistart_seesaw")],
}

# A multistart restart "hits" when it ends this close to the best restart.
HIT_TOL = 1e-9


class Tracer:
    """Records spans and per-layer counters for one process."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, parent, request, start, end, self)
        self.counters: dict[str, float] = defaultdict(float)
        self.request: int | None = None  # id of the request being served
        self.requests: list[str] = []  # request labels, by id
        self._stack: list[list] = []  # open spans: [id, start, child_time]
        self._multistart_values: list[list[float]] = []
        self._patches: list[tuple] = []
        self.children: list[dict] = []  # dumps written by traced child processes

    def begin_request(self, label: str) -> None:
        self.request = len(self.requests)
        self.requests.append(label)

    # -- spans ---------------------------------------------------------------

    def _span(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, start = len(self.spans) + len(self._stack), time.perf_counter()
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, start, 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][2] += end - start
                self_time = end - start - frame[2]
                self.spans.append((span_id, name, parent, self.request, start, end, self_time))
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _count_assignments(self, layer):
        def on_result(args, result):
            self.counters[layer + ".assignments"] += 2 ** len(result.alice_witness)

        return on_result

    def _on_render(self, args, result):
        self.counters["output.render.bytes"] += len(result.encode("utf-8"))

    def _multistart(self, fn):
        traced = self._span("seesaw.multistart", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._multistart_values.append([])
            try:
                result = traced(*args, **kwargs)
            finally:
                values = self._multistart_values.pop()
            self.counters["seesaw.restarts"] += len(values)
            self.counters["seesaw.hits"] += sum(abs(v - result.value) <= HIT_TOL for v in values)
            return result

        return wrapper

    def _seesaw_run(self, fn):
        """Counts see-saw runs and iterations; the time stays with the caller."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counters["seesaw.runs"] += 1
            self.counters["seesaw.iterations"] += result.iterations
            if self._multistart_values:
                self._multistart_values[-1].append(result.value)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every loaded `shimony` module."""
        import shimony.cli  # noqa: F401  (loads every submodule)

        hooks = {
            "output.render": self._on_render,
            "matrices.lhv_bruteforce": self._count_assignments("matrices.lhv_bruteforce"),
            "steering.lhs_bound": self._count_assignments("steering.lhs_bound"),
        }
        replacements = []
        for layer, targets in SPAN_TARGETS.items():
            for module_name, path in targets:
                owner, attr, original = _resolve(module_name, path)
                if layer == "seesaw.multistart":
                    wrapper = self._multistart(original)
                else:
                    wrapper = self._span(layer, original, hooks.get(layer))
                replacements.append((original, wrapper))
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
        original = _resolve("shimony.seesaw", "seesaw")[2]
        replacements.append((original, self._seesaw_run(original)))
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "shimony"]:
            for attr, value in list(vars(module).items()):
                for original, wrapper in replacements:
                    if value is original:
                        self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def dump(self) -> dict:
        return {"requests": self.requests, "spans": self.spans, "counters": dict(self.counters)}

    def dumps(self) -> list[dict]:
        """This process's record and those of traced children."""
        return [self.dump()] + self.children


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer self time, calls and counters merged over tracer dumps."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counters: dict[str, float] = defaultdict(float)
    for dump in dumps:
        for span in dump["spans"]:
            self_s[span[1]] += span[6]
            calls[span[1]] += 1
        for key, value in dump["counters"].items():
            counters[key] += value

    def per_second(layer):
        busy = self_s[layer]
        return counters[layer + ".assignments"] / busy if busy > 0 else 0.0

    restarts = counters["seesaw.restarts"]
    return {
        "matrices.lhv_bruteforce.self_s": self_s["matrices.lhv_bruteforce"],
        "matrices.lhv_bruteforce.calls": calls["matrices.lhv_bruteforce"],
        "matrices.lhv_bruteforce.assign_per_s": per_second("matrices.lhv_bruteforce"),
        "steering.lhs_bound.self_s": self_s["steering.lhs_bound"],
        "steering.lhs_bound.calls": calls["steering.lhs_bound"],
        "steering.lhs_bound.assign_per_s": per_second("steering.lhs_bound"),
        "seesaw.multistart.self_s": self_s["seesaw.multistart"],
        "seesaw.runs": int(counters["seesaw.runs"]),
        "seesaw.iterations": int(counters["seesaw.iterations"]),
        "seesaw.hit_frac": counters["seesaw.hits"] / restarts if restarts else 0.0,
        "steering.oracle.self_s": self_s["steering.oracle"],
        "steering.oracle.calls": calls["steering.oracle"],
        "cli.main.self_s": self_s["cli.main"],
        "output.render.self_s": self_s["output.render"],
        "output.render.calls": calls["output.render"],
        "output.render.bytes": int(counters["output.render.bytes"]),
        "catalog.lookup.self_s": self_s["catalog.lookup"],
        "catalog.verify.self_s": self_s["catalog.verify"],
        "catalog.verify.calls": calls["catalog.verify"],
        "quantum.validate.self_s": self_s["quantum.validate"],
        "quantum.validate.calls": calls["quantum.validate"],
    }
