"""The functions the benchmark wraps or imports still resolve in `shimony`.

`perfbench/tracer.py` wraps each `(module, path)` of `SPAN_TARGETS`, and
`shimony.seesaw.seesaw`, after `import shimony.cli`; `perfbench/run.py`
imports `shimony._kernels.backend_name`. `perfbench/workloads.py` calls
`enum_large`'s functions as `getattr(shimony, name)` and in its setup, and
the setups of `warm_mixed` and `cli_cold` call
`shimony.catalog.catalog_directions`. Renaming or deleting any of them
breaks the benchmark, so it fails here too.
"""

import importlib.util
from pathlib import Path

import pytest

import shimony.cli  # noqa: F401  (loads every submodule, as the tracer does)

_TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

TRACED = [target for targets in tracer.SPAN_TARGETS.values() for target in targets]
CALLED = [
    ("shimony.seesaw", "seesaw"),
    ("shimony._kernels", "backend_name"),
    ("shimony", "build_as_matrix"),
    ("shimony", "lhv_bound_bruteforce"),
    ("shimony", "steering_lhs_bound"),
    ("shimony", "werner_thresholds"),
    ("shimony.catalog", "catalog_directions"),
]
# The tracer also wraps catalog_directions; each target is tested once.
TARGETS = list(dict.fromkeys(TRACED + CALLED))


@pytest.mark.parametrize("module_name, path", TARGETS, ids=[f"{m}.{p}" for m, p in TARGETS])
def test_benchmark_target_resolves(module_name, path):
    _, _, function = tracer._resolve(module_name, path)
    assert callable(function)
