"""The three workloads: their seeded inputs, how a request runs, how it is checked.

Each workload builds one request list per pass from (seed, pass index). The
composition and order of a pass are fixed; the seed only changes the formats,
the orders n given to each command and the random inputs, so every seed costs
about the same and allocates memory in the same sequence. Requests are served
one at a time (a closed loop with one client).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import (
    CheckFailed,
    CliChecker,
    Goldens,
    as_matrix,
    c_lhv_closed,
    check_lhv_witness,
    check_steering_witness,
    index_of,
    local_search_steering,
    quantum_max_closed,
    require,
)

FORMATS = ("pretty", "json", "csv")
CATALOG_ORDERS = (2, 4, 6, 8, 10)

# The known NaN-directions defect: non-finite directions pass the unit-norm
# check, and the enumeration then dies instead of refusing the input.
NAN_DEFECT = "nan-directions"
NAN_SYMPTOM = "AssertionError: maximum vanished between passes"


@dataclass
class Request:
    label: str
    argv: list[str] | None = None  # CLI requests
    call: tuple | None = None  # library requests: (function name, args)
    expect_rc: int = 0
    bob: np.ndarray | None = None  # Bob directions given by a --directions file
    known_defect: str | None = None


@dataclass
class Outcome:
    latency: float
    rc: int = 0
    out: str = ""
    err: str = ""
    result: object = None
    rss_kb: int = 0


@dataclass
class Context:
    """Where a run reads its references and writes its generated inputs."""

    root: Path  # the checkout
    scratch: Path  # per-run directory for generated input files
    env: dict  # environment of child processes: imports shimony from root/src
    quick: bool = False  # minimum size, for the self-test
    goldens: Goldens = field(init=False)

    def __post_init__(self):
        self.goldens = Goldens(self.root / "tests" / "golden")


def unit_rows(rng, n: int) -> np.ndarray:
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def pass_rng(seed: int, pass_index: int, stream: int = 0):
    return np.random.default_rng([seed, pass_index, stream])


class Workload:
    name = ""
    # Seconds one pass takes on a 2-core x86 host; a run makes --seconds /
    # this many passes, so the sample count, and with it the rank of the
    # tail latency, does not depend on the host's speed.
    nominal_pass_s: float

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def passes(self, seconds: float) -> int:
        return max(1, int(seconds / self.nominal_pass_s))

    def setup(self) -> None:
        """Imports and warm-up, before the first timed request."""

    def requests(self, seed: int, pass_index: int) -> list[Request]:
        raise NotImplementedError

    def execute(self, request: Request) -> Outcome:
        raise NotImplementedError

    def check(self, request: Request, outcome: Outcome) -> dict:
        raise NotImplementedError

    def run_traced(self, requests: list[Request], tracer) -> tuple[float, list[Outcome]]:
        """One pass with the tracer's spans around the `shimony` functions."""
        tracer.install()
        try:
            return run_pass(self, requests, tracer)
        finally:
            tracer.uninstall()

    def peak_rss_mb(self, outcomes: list[Outcome]) -> float:
        """Peak RSS of the process that served the requests."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# CLI workloads


class CliWorkload(Workload):
    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.catalog: dict[int, np.ndarray] = {}
        self.checker = CliChecker(ctx.goldens, self.catalog_bob)

    def catalog_bob(self, n: int) -> np.ndarray:
        """The catalog's Bob directions, an input of the checks; loaded on first use."""
        if not self.catalog:
            self.catalog.update(self.load_catalog())
        return self.catalog[n]

    def load_catalog(self) -> dict[int, np.ndarray]:
        from shimony.catalog import catalog_directions

        return {n: catalog_directions(n).bob_directions for n in CATALOG_ORDERS}

    def check(self, request: Request, outcome: Outcome) -> dict:
        return self.checker.check(
            request.argv, request.bob, request.expect_rc, outcome.rc, outcome.out, outcome.err
        )

    def _input_file(self, name: str, text: str) -> str:
        path = self.ctx.scratch / name
        path.write_text(text, encoding="utf-8")
        return str(path)


def _formatted(requests: list[Request], offset: int) -> list[Request]:
    """Give the requests formats rotating through all three, from `offset`."""
    for i, request in enumerate(requests):
        fmt = FORMATS[(i + offset) % len(FORMATS)]
        request.argv += ["--format", fmt]
        request.label += f" --format {fmt}"
    return requests


class ColdCli(CliWorkload):
    """Each request is a fresh `python -m shimony.cli` process."""

    name = "cli_cold"
    nominal_pass_s = 7.5
    malformed_kinds = ("odd-n", "cap", "bad-directions")

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.tracer = None

    def setup(self) -> None:
        # Warm the file cache the way a user's previous command would.
        self.execute(Request("warm-up", argv=["matrix", "2"]))

    def load_catalog(self) -> dict[int, np.ndarray]:
        # Read in a child so that this process stays small: a child's peak RSS
        # counts the RSS of the process that started it.
        code = (
            "import json; from shimony.catalog import catalog_directions as c; "
            f"print(json.dumps({{n: c(n).bob_directions.tolist() for n in {CATALOG_ORDERS}}}))"
        )
        listing = subprocess.run(
            [sys.executable, "-c", code], env=self.ctx.env, cwd=self.ctx.root,
            capture_output=True, text=True, check=True,
        )
        return {int(n): np.array(b) for n, b in json.loads(listing.stdout).items()}

    def requests(self, seed: int, pass_index: int) -> list[Request]:
        rng = pass_rng(seed, pass_index)
        orders = [int(n) for n in rng.permutation(CATALOG_ORDERS)]
        reqs = [
            Request(f"matrix {orders[0]}", ["matrix", str(orders[0])]),
            Request(f"bounds {orders[1]} --bruteforce", ["bounds", str(orders[1]), "--bruteforce"]),
            Request(f"lhs {orders[2]} --oracle", ["lhs", str(orders[2]), "--oracle"]),
            Request(f"thresholds {orders[3]}", ["thresholds", str(orders[3])]),
            Request(
                f"verify-directions {orders[4]}",
                ["verify-directions", str(orders[4])],
                expect_rc=3 if orders[4] in (2, 4) else 0,
            ),
            Request("tables", ["tables"]),
            Request("seesaw 12", ["seesaw", "12", "--seed", str(int(rng.integers(1 << 31)))]),
            self._nan_request(rng, seed, pass_index),
            self._malformed(rng, seed, pass_index),
        ]
        if self.ctx.quick:
            reqs = [reqs[0], reqs[7], reqs[8]]
        return _formatted(reqs, seed + pass_index)

    def _nan_request(self, rng, seed: int, pass_index: int) -> Request:
        n = int(rng.choice(CATALOG_ORDERS))
        bob = unit_rows(rng, n).tolist()
        bob[int(rng.integers(n))][int(rng.integers(3))] = float("nan")
        path = self._input_file(f"nan-{seed}-{pass_index}.json", json.dumps({"n": n, "bob": bob}))
        return Request(
            f"lhs {n} --directions <NaN>",
            ["lhs", str(n), "--directions", path],
            expect_rc=2,
            known_defect=NAN_DEFECT,
        )

    def _malformed(self, rng, seed: int, pass_index: int) -> Request:
        kind = self.malformed_kinds[(seed + pass_index) % len(self.malformed_kinds)]
        if kind == "odd-n":
            n = str(int(rng.choice((3, 5, 7, 9))))
            command = str(rng.choice(("matrix", "bounds", "lhs", "thresholds", "seesaw", "verify-directions")))
            return Request(f"{command} {n}", [command, n], expect_rc=2)
        if kind == "cap":
            return Request("bounds 26 --bruteforce", ["bounds", "26", "--bruteforce"], expect_rc=4)
        n = int(rng.choice(CATALOG_ORDERS))
        bob = unit_rows(rng, n).tolist()
        flaw = int(rng.integers(3))
        if flaw == 0:
            bob[int(rng.integers(n))] = [1.5 * x for x in bob[0]]
            text = json.dumps({"n": n, "bob": bob})
        elif flaw == 1:
            text = json.dumps({"n": n + 2, "bob": bob})
        else:
            text = json.dumps({"n": n, "bob": bob})[:-3]
        path = self._input_file(f"bad-{seed}-{pass_index}.json", text)
        command = str(rng.choice(("lhs", "thresholds")))
        return Request(
            f"{command} {n} --directions <bad:{flaw}>",
            [command, str(n), "--directions", path],
            expect_rc=2,
        )

    def execute(self, request: Request) -> Outcome:
        out_path = self.ctx.scratch / "stdout"
        err_path = self.ctx.scratch / "stderr"
        if self.tracer is not None:
            spans_path = self.ctx.scratch / "spans.json"
            argv = [sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(spans_path)]
        else:
            argv = [sys.executable, "-m", "shimony.cli"]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(
                argv + request.argv, stdout=out, stderr=err, env=self.ctx.env, cwd=self.ctx.root
            )
            _pid, status, usage = os.wait4(child.pid, 0)
            latency = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        if self.tracer is not None:
            dump = json.loads(spans_path.read_text(encoding="utf-8"))
            dump["request"] = self.tracer.request
            self.tracer.children.append(dump)
        return Outcome(
            latency=latency,
            rc=child.returncode,
            out=out_path.read_text(encoding="utf-8"),
            err=err_path.read_text(encoding="utf-8"),
            rss_kb=usage.ru_maxrss,
        )

    def run_traced(self, requests: list[Request], tracer) -> tuple[float, list[Outcome]]:
        self.tracer = tracer
        try:
            return run_pass(self, requests, tracer)
        finally:
            self.tracer = None

    def peak_rss_mb(self, outcomes: list[Outcome]) -> float:
        """Median over the request processes of each one's peak RSS."""
        return float(np.median([o.rss_kb for o in outcomes])) / 1024.0


class WarmCli(CliWorkload):
    """In-process `shimony.cli.main(argv)` calls with stdout captured."""

    name = "warm_mixed"
    nominal_pass_s = 0.6

    def setup(self) -> None:
        bob = unit_rows(np.random.default_rng(0), 8).tolist()
        warm = self._input_file("warm-up.json", json.dumps({"n": 8, "bob": bob}))
        for argv in (
            ["seesaw", "10", "--restarts", "2"],
            ["lhs", "8", "--oracle", "--directions", warm],
            ["thresholds", "2", "--quantum-max", "seesaw", "--restarts", "2"],
            ["verify-directions", "6"],
            ["tables"],
        ):
            for fmt in FORMATS:
                self.execute(Request("warm-up", argv=argv + ["--format", fmt]))

    def requests(self, seed: int, pass_index: int) -> list[Request]:
        rng = pass_rng(seed, pass_index)
        seesaw_orders = (10,) if self.ctx.quick else (10, 20, 40, 80)
        oracle_orders = (8,) if self.ctx.quick else (8, 10)
        reqs = []
        for n in seesaw_orders:
            seed_arg = str(int(rng.integers(1 << 31)))
            reqs.append(Request(f"seesaw {n}", ["seesaw", str(n), "--restarts", "128", "--seed", seed_arg]))
        for n in oracle_orders:
            reqs.append(Request(f"lhs {n} --oracle", ["lhs", str(n), "--oracle"]))
        n = 8 if self.ctx.quick else 12
        bob = unit_rows(rng, n)
        path = self._input_file(f"oracle-{seed}-{pass_index}.json", json.dumps({"n": n, "bob": bob.tolist()}))
        reqs.append(Request(f"lhs {n} --oracle --directions <random>", ["lhs", str(n), "--oracle", "--directions", path], bob=bob))
        n = int(rng.choice(CATALOG_ORDERS))
        seed_arg = str(int(rng.integers(1 << 31)))
        reqs.append(
            Request(
                f"thresholds {n} --quantum-max seesaw",
                ["thresholds", str(n), "--quantum-max", "seesaw", "--restarts", "64", "--seed", seed_arg],
            )
        )
        for n in CATALOG_ORDERS:
            reqs.append(
                Request(f"verify-directions {n}", ["verify-directions", str(n)], expect_rc=3 if n in (2, 4) else 0)
            )
        reqs.append(Request("tables", ["tables"]))
        reqs = _formatted(reqs, seed + pass_index)
        for n in CATALOG_ORDERS:
            for fmt in FORMATS:
                reqs.append(Request(f"thresholds {n} --format {fmt}", ["thresholds", str(n), "--format", fmt]))
        return reqs

    def execute(self, request: Request) -> Outcome:
        from shimony import cli

        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(request.argv)
            except SystemExit as exc:  # argparse refusals
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error exits 1 with a traceback
                traceback.print_exc()
                rc = 1
        latency = time.perf_counter() - start
        return Outcome(latency=latency, rc=rc, out=out.getvalue(), err=err.getvalue())


# ---------------------------------------------------------------------------
# library enumeration workload


class Enumeration(Workload):
    """Warm library calls that enumerate 2**n assignments, n = 16..22."""

    name = "enum_large"
    nominal_pass_s = 7.5

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.checked_lhs: dict[tuple[bytes, bytes], float] = {}  # verified C_LHS by input

    def setup(self) -> None:
        import shimony

        m = shimony.build_as_matrix(16)
        bob = unit_rows(np.random.default_rng(0), 16)
        shimony.lhv_bound_bruteforce(m)
        shimony.steering_lhs_bound(m, bob)

    def requests(self, seed: int, pass_index: int) -> list[Request]:
        rng = pass_rng(seed, pass_index)
        reqs = []
        orders = (16,) if self.ctx.quick else (16, 18, 20, 22)
        for n in orders:
            m = as_matrix(n)
            q = quantum_max_closed(n)
            sets = [unit_rows(rng, n) for _ in range(2)]
            reqs.append(Request(f"lhv AS_{n}", call=("lhv_bound_bruteforce", m)))
            for k, bob in enumerate(sets):
                reqs.append(Request(f"lhs AS_{n} bob{k}", call=("steering_lhs_bound", m, bob)))
            reqs.append(Request(f"werner AS_{n} bob1", call=("werner_thresholds", m, sets[1], q)))
        n = 16 if self.ctx.quick else 18
        degenerate = self._degenerate_bob(rng, n, pass_index)
        reqs.append(Request(f"lhs AS_{n} {degenerate[0]}", call=("steering_lhs_bound", as_matrix(n), degenerate[1])))
        for n in (16,) if self.ctx.quick else (16, 18):
            m = rng.integers(-2, 3, size=(n, n))
            reqs.append(Request(f"lhv R_{n}", call=("lhv_bound_bruteforce", m)))
            reqs.append(Request(f"lhs R_{n}", call=("steering_lhs_bound", m, unit_rows(rng, n))))
        return reqs

    @staticmethod
    def _degenerate_bob(rng, n: int, pass_index: int):
        """A coplanar Bob set, or one whose directions repeat, by pass parity."""
        if pass_index % 2 == 0:
            normal = unit_rows(rng, 1)[0]
            v = unit_rows(rng, n)
            v -= np.outer(v @ normal, normal)
            return "coplanar", v / np.linalg.norm(v, axis=1, keepdims=True)
        base = unit_rows(rng, n // 2)
        return "repeated", base[rng.integers(n // 2, size=n)]

    def execute(self, request: Request) -> Outcome:
        import shimony

        name, *args = request.call
        function = getattr(shimony, name)
        start = time.perf_counter()
        try:
            result = function(*args)
        except Exception:
            return Outcome(latency=time.perf_counter() - start, rc=1, err=traceback.format_exc())
        return Outcome(latency=time.perf_counter() - start, result=result)

    def check(self, request: Request, outcome: Outcome) -> dict:
        if outcome.rc != 0:
            raise CheckFailed(f"raised: {outcome.err.strip().splitlines()[-1]}")
        name, m, *rest = request.call
        n = m.shape[0]
        as_n = np.array_equal(m, as_matrix(n))
        result = outcome.result
        if name == "lhv_bound_bruteforce":
            if as_n:
                require(result.value == c_lhv_closed(n), f"C_LHV {result.value} != {c_lhv_closed(n)}")
            check_lhv_witness(m, result.value, result.alice_witness, result.bob_witness)
            return {"value": result.value, "witness_index": index_of(result.alice_witness)}
        if name == "steering_lhs_bound":
            (bob,) = rest
            check_steering_witness(m, bob, result.value, result.alice_witness)
            require(np.array_equal(result.column_sums, result.alice_witness @ m), "column sums differ")
            if as_n:
                require(result.value <= c_lhv_closed(n) + 1e-9, "C_LHS above C_LHV")
            self.checked_lhs[m.tobytes(), bob.tobytes()] = result.value
            return {"value": result.value, "witness_index": index_of(result.alice_witness)}
        bob, q = rest
        require(abs(result.v_lhv * q - c_lhv_closed(n)) <= 1e-9 * q, f"v_lhv {result.v_lhv} off the closed form")
        c_lhs = result.v_lhs * q
        lower = local_search_steering(m, bob, np.random.default_rng(n))
        require(lower <= c_lhs + 1e-9, f"local search reaches {lower}, above C_LHS {c_lhs}")
        require(c_lhs <= c_lhv_closed(n) + 1e-9, "C_LHS above C_LHV")
        verified = self.checked_lhs.get((m.tobytes(), bob.tobytes()))
        if verified is not None:
            require(abs(c_lhs - verified) <= 1e-9 * verified, f"C_LHS {c_lhs} != checked {verified}")
        return {"v_lhv": result.v_lhv, "v_lhs": result.v_lhs}


WORKLOADS = {w.name: w for w in (ColdCli, Enumeration, WarmCli)}


def run_pass(workload: Workload, requests: list[Request], tracer=None) -> tuple[float, list[Outcome]]:
    """Serve the requests one after another; return the pass wall time."""
    outcomes = []
    start = time.perf_counter()
    for request in requests:
        if tracer is not None:
            tracer.begin_request(request.label)
        outcomes.append(workload.execute(request))
    return time.perf_counter() - start, outcomes


def check_outcome(workload: Workload, request: Request, outcome: Outcome) -> dict:
    """Entry for the results: computed values, or why the request failed."""
    entry = {"request": request.label, "latency_s": outcome.latency}
    try:
        entry.update(workload.check(request, outcome))
        entry["ok"] = True
    except Exception as exc:  # a malformed output fails its check too
        entry["ok"] = False
        entry["failure"] = str(exc) if isinstance(exc, CheckFailed) else f"unreadable output: {exc!r}"
        if request.known_defect == NAN_DEFECT and outcome.rc == 1 and NAN_SYMPTOM in outcome.err:
            entry["known_defect"] = NAN_DEFECT
    return entry

