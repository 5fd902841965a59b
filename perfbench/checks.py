"""Independent references for every benchmark request.

Nothing here calls into `shimony`: the AS_n matrix, the closed forms and the
brute-force maxima are re-derived from their definitions, and the reference
tables are read from the golden CSV files. Each check returns a small record
of what the request computed (values and witness indices) and raises
`CheckFailed` when the output disagrees with the reference.
"""

from __future__ import annotations

import csv
import io
import json
from functools import lru_cache
from itertools import product
from math import sqrt
from pathlib import Path

import numpy as np

# Tie tolerance of the steering witness (smallest index within it wins).
STEERING_TIE_TOL = 1e-12
# Largest order the itertools.product brute force is used for.
BRUTE_FORCE_MAX_N = 12


class CheckFailed(Exception):
    """An output disagrees with its independent reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# closed forms and the AS_n definition


def as_matrix(n: int) -> np.ndarray:
    """AS_n from the three-zone rule, built entry by entry."""
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i + j <= n + 1:
                m[i - 1, j - 1] = 1
            elif i + j == n + 2:
                m[i - 1, j - 1] = -(min(i, j) - 1)
    return m


def c_lhv_closed(n: int) -> int:
    return (n // 2) * (n // 2 + 1)


def quantum_max_closed(n: int) -> float:
    return (n + 1) * sqrt(n * (n + 2)) / 3.0


# ---------------------------------------------------------------------------
# golden tables


class Goldens:
    """The reference CSV tables, keyed by table name and then by n."""

    def __init__(self, directory: Path):
        self.tables: dict[str, dict[int, dict[str, str]]] = {}
        self.columns: dict[str, list[str]] = {}
        for name in ("table1", "table2", "figure2", "figure3"):
            with open(directory / f"{name}.csv", newline="", encoding="utf-8") as handle:
                rows = list(csv.DictReader(handle))
            self.columns[name] = list(rows[0].keys())
            self.tables[name] = {int(row["n"]): row for row in rows}

    def value(self, table: str, n: int, column: str) -> float:
        return float(self.tables[table][n][column])


# ---------------------------------------------------------------------------
# assignments, witnesses and brute force


def index_of(assignment) -> int:
    """Enumeration index of a +-1 assignment (bit n-1-i set when A_i = +1)."""
    index = 0
    for value in assignment:
        index = (index << 1) | (1 if int(value) > 0 else 0)
    return index


@lru_cache(maxsize=None)
def _all_assignments(n: int) -> np.ndarray:
    # itertools.product yields -1 before +1, i.e. ascending enumeration index.
    return np.array(list(product((-1, 1), repeat=n)), dtype=np.int64)


def brute_force_lhv(m: np.ndarray) -> tuple[int, int]:
    """(max of sum_j |column sum|, smallest maximizing index) for n <= 12."""
    n = m.shape[0]
    require(n <= BRUTE_FORCE_MAX_N, f"brute force reference asked for n={n}")
    values = np.abs(_all_assignments(n) @ m).sum(axis=1)
    k = int(np.argmax(values))
    return int(values[k]), k


def brute_force_steering(m: np.ndarray, bob: np.ndarray) -> tuple[float, int]:
    """(max resultant norm, smallest index within the tie tolerance) for n <= 12."""
    n = m.shape[0]
    require(n <= BRUTE_FORCE_MAX_N, f"brute force reference asked for n={n}")
    norms = np.linalg.norm((_all_assignments(n) @ m).astype(np.float64) @ bob, axis=1)
    best = float(norms.max())
    k = int(np.nonzero(norms >= best - STEERING_TIE_TOL)[0][0])
    return float(norms[k]), k


def lhv_score(m: np.ndarray, alice: np.ndarray) -> int:
    return int(np.abs(alice @ m).sum())


def steering_score(m: np.ndarray, bob: np.ndarray, alice: np.ndarray) -> float:
    return float(np.linalg.norm((alice @ m).astype(np.float64) @ bob))


def best_single_flip(score, alice: np.ndarray) -> float:
    """Best score among the assignments one flip away from `alice`."""
    best = -np.inf
    for i in range(alice.shape[0]):
        flipped = alice.copy()
        flipped[i] = -flipped[i]
        best = max(best, score(flipped))
    return best


def local_search_steering(m: np.ndarray, bob: np.ndarray, rng, starts: int = 3) -> float:
    """Lower bound on the steering maximum by greedy single-flip ascent."""
    n = m.shape[0]
    best = 0.0
    for _ in range(starts):
        alice = rng.choice(np.array([-1, 1]), size=n)
        value = steering_score(m, bob, alice)
        improved = True
        while improved:
            improved = False
            for i in range(n):
                alice[i] = -alice[i]
                candidate = steering_score(m, bob, alice)
                if candidate > value + 1e-12:
                    value, improved = candidate, True
                else:
                    alice[i] = -alice[i]
        best = max(best, value)
    return best


def require_smaller_of_pair(alice: np.ndarray) -> None:
    """A and -A score the same, so the smallest maximizing index has A_1 = -1."""
    require(alice[0] == -1, "witness is the larger index of its +-A pair")


def check_lhv_witness(m: np.ndarray, value: int, alice: np.ndarray, bob: np.ndarray) -> None:
    """Witness pair attains the value exactly; no single flip beats it."""
    require_smaller_of_pair(alice)
    require(int(alice @ m @ bob) == value, "witness pair does not attain the reported value")
    sums = alice @ m
    require(
        np.array_equal(bob, np.where(sums > 0, 1, -1)),
        "bob witness is not the sign of alice's column sums",
    )
    require(
        best_single_flip(lambda a: lhv_score(m, a), alice) <= value,
        "a single flip of the alice witness beats the reported maximum",
    )


def check_steering_witness(m: np.ndarray, bob: np.ndarray, value: float, alice: np.ndarray) -> None:
    """Witness resultant norm equals the value; no single flip beats it."""
    require_smaller_of_pair(alice)
    recomputed = steering_score(m, bob, alice)
    require(
        abs(recomputed - value) <= 1e-9 * max(1.0, value),
        f"witness resultant norm {recomputed!r} differs from the value {value!r}",
    )
    require(
        best_single_flip(lambda a: steering_score(m, bob, a), alice) <= value + 1e-9,
        "a single flip of the witness beats the reported steering maximum",
    )


# ---------------------------------------------------------------------------
# CLI output parsing


def _cell(text):
    if text is None or text == "":
        return None
    if isinstance(text, (bool, int, float)):
        return text
    if text in ("true", "false"):
        return text == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_output(fmt: str, command: str, text: str) -> tuple[dict[str, list[dict]], list[str], dict]:
    """Tables (name -> rows as dicts), notes and JSON extras of one CLI output."""
    if fmt == "json":
        body = json.loads(text)
        tables = {
            t["name"]: [dict(zip(t["columns"], map(_cell, row))) for row in t["rows"]]
            for t in body["tables"]
        }
        return tables, list(body["notes"]), body
    if fmt == "csv":
        return _parse_csv(command, text)
    return _parse_pretty(command, text)


def _parse_csv(command: str, text: str):
    tables: dict[str, list[dict]] = {}
    notes: list[str] = []
    blocks: list[tuple[str, list[str]]] = []
    name = command
    for line in text.splitlines():
        if line.startswith("# note: "):
            notes.append(line[len("# note: "):])
        elif line.startswith("# "):
            name = line[2:]
            blocks.append((name, []))
        elif line:
            if not blocks:
                blocks.append((name, []))
            blocks[-1][1].append(line)
    for name, lines in blocks:
        rows = list(csv.reader(io.StringIO("\n".join(lines))))
        header = rows[0]
        tables[name] = [dict(zip(header, map(_cell, row))) for row in rows[1:]]
    return tables, notes, {}


def _parse_pretty(command: str, text: str):
    tables: dict[str, list[dict]] = {}
    notes: list[str] = []
    lines = text.splitlines()
    name = command
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("note: "):
            notes.append(line[len("note: "):])
            i += 1
        elif line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            i += 1
        elif line and i + 1 < len(lines) and lines[i + 1] and set(lines[i + 1]) <= {"-", " "}:
            spans, start = [], 0
            for width in (len(dashes) for dashes in lines[i + 1].split("  ")):
                spans.append((start, start + width))
                start += width + 2
            header = [line[a:b].strip() for a, b in spans]
            rows = []
            i += 2
            while i < len(lines) and lines[i]:
                rows.append({h: _cell(lines[i][a:b].strip()) for h, (a, b) in zip(header, spans)})
                i += 1
            tables[name] = rows
        else:
            i += 1
    return tables, notes, {}


def close(fmt: str, got, expected: float, what: str, extra: float = 0.0) -> None:
    """Compare a rendered float with a reference at the format's precision."""
    require(got is not None, f"{what}: missing")
    if fmt == "pretty":
        tol = 5.0001e-5
    else:
        tol = 6e-10 * max(1.0, abs(expected))
    require(
        abs(float(got) - expected) <= tol + extra,
        f"{what}: got {got!r}, expected {expected!r}",
    )


def witness_from_text(text, n: int) -> np.ndarray:
    values = [int(v) for v in str(text).split()]
    require(len(values) == n and set(values) <= {-1, 1}, f"malformed witness {text!r}")
    return np.array(values, dtype=np.int64)


# ---------------------------------------------------------------------------
# CLI request checks


# Table name of each single-table command, where it differs from the command.
TABLE_NAMES = {"verify-directions": "evaluations"}


class CliChecker:
    """Checks one `shimony` CLI output against the references.

    `catalog_bob(n)` supplies the catalog's Bob directions, the input of the
    catalog requests; every expected output is computed here or read from
    the goldens.
    """

    def __init__(self, goldens: Goldens, catalog_bob):
        self.goldens = goldens
        self.catalog_bob = catalog_bob
        self._cache: dict = {}

    def check(self, argv: list[str], bob, expect_rc: int, rc: int, out: str, err: str) -> dict:
        """Record of the computed values; raises CheckFailed on any mismatch."""
        require("Traceback (most recent call last)" not in err, f"traceback: {_last_line(err)}")
        require(rc == expect_rc, f"exit code {rc}, expected {expect_rc}: {_last_line(err)}")
        if expect_rc in (2, 4):
            require(err.startswith("error: "), f"no error message on stderr: {err!r}")
            require(out == "", "output printed for a refused request")
            return {"exit": rc}
        command = argv[0]
        fmt = argv[argv.index("--format") + 1]
        key = (tuple(argv), None if bob is None else bob.tobytes(), out)
        if key not in self._cache:
            tables, notes, extra = parse_output(fmt, command, out)
            if len(tables) == 1:  # a lone CSV table carries no name of its own
                tables = {TABLE_NAMES.get(command, command): next(iter(tables.values()))}
            handler = getattr(self, "_" + command.replace("-", "_"))
            self._cache[key] = {"exit": rc, **handler(argv, fmt, bob, tables, notes, extra)}
        return self._cache[key]

    def _bob(self, n: int, bob):
        return self.catalog_bob(n) if bob is None else bob

    def _brute(self, kind: str, n: int, m: np.ndarray, bob=None):
        key = (kind, n, None if bob is None else bob.tobytes())
        if key not in self._cache:
            self._cache[key] = brute_force_lhv(m) if bob is None else brute_force_steering(m, bob)
        return self._cache[key]

    def _matrix(self, argv, fmt, bob, tables, notes, extra):
        n = int(argv[1])
        rows = tables["matrix"]
        got = np.array([[row[f"c{j}"] for j in range(1, n + 1)] for row in rows], dtype=np.int64)
        require(np.array_equal(got, as_matrix(n)), f"matrix {n} differs from AS_{n}")
        return {"value": int(got.sum())}

    def _bounds(self, argv, fmt, bob, tables, notes, extra):
        n = int(argv[1])
        m = as_matrix(n)
        (row,) = tables["bounds"]
        require(row["c_lhv"] == c_lhv_closed(n), f"c_lhv {row['c_lhv']} != {c_lhv_closed(n)}")
        value, index = self._brute("lhv", n, m)
        require(row["c_lhv_bruteforce"] == value, f"c_lhv_bruteforce {row['c_lhv_bruteforce']} != {value}")
        alice = witness_from_text(row["alice_witness"], n)
        require(index_of(alice) == index, f"alice witness index {index_of(alice)} != {index}")
        check_lhv_witness(m, value, alice, witness_from_text(row["bob_witness"], n))
        return {"value": value, "witness_index": index}

    def _steering_row(self, fmt, n, m, bob, row, catalog: bool) -> dict:
        value, index = self._brute("steering", n, m, bob)
        close(fmt, row["c_lhs"], value, "c_lhs")
        if catalog:
            close(fmt, row["c_lhs"], self.goldens.value("figure2", n, "c_lhs"), "c_lhs vs golden")
        alice = witness_from_text(row["witness"], n)
        require(index_of(alice) == index, f"witness index {index_of(alice)} != {index}")
        check_steering_witness(m, bob, value, alice)
        resultant = (alice @ m).astype(np.float64) @ bob
        direction = resultant / np.linalg.norm(resultant)
        for k, axis in enumerate("xyz"):
            close(fmt, row[f"bob_state_{axis}"], float(direction[k]), f"bob_state_{axis}", 1e-9)
        return {"value": value, "witness_index": index}

    def _lhs(self, argv, fmt, bob, tables, notes, extra):
        n = int(argv[1])
        m = as_matrix(n)
        (row,) = tables["lhs"]
        record = self._steering_row(fmt, n, m, self._bob(n, bob), row, catalog=bob is None)
        if bob is None:
            reference = self.goldens.value("table1", n, "c_lhs_reference")
            close(fmt, row["c_lhs_reference"], reference, "c_lhs_reference")
        if "--oracle" in argv:
            close(fmt, row["c_lhs_oracle"], record["value"], "c_lhs_oracle", 1e-7 * record["value"])
            require(float(row["oracle_delta"]) <= 1e-7 * record["value"], "oracle_delta too large")
            record["oracle_value"] = row["c_lhs_oracle"]
        return record

    def _thresholds(self, argv, fmt, bob, tables, notes, extra):
        n = int(argv[1])
        m = as_matrix(n)
        (row,) = tables["thresholds"]
        q = quantum_max_closed(n)
        seesaw = "seesaw" in argv
        close(fmt, row["quantum_max"], q, "quantum_max", 1e-7 * q if seesaw else 0.0)
        require(row["c_lhv"] == c_lhv_closed(n), f"c_lhv {row['c_lhv']} != {c_lhv_closed(n)}")
        close(fmt, row["v_lhv"], c_lhv_closed(n) / q, "v_lhv", 1e-7 if seesaw else 0.0)
        record = self._steering_row(fmt, n, m, self._bob(n, bob), row, catalog=bob is None)
        close(fmt, row["v_lhs"], record["value"] / q, "v_lhs", 1e-7 if seesaw else 0.0)
        if bob is None and not seesaw:
            close(fmt, row["v_lhs"], self.goldens.value("table2", n, "v_lhs"), "v_lhs vs golden")
            close(
                fmt,
                row["v_lhs_reference"],
                self.goldens.value("table2", n, "v_lhs_reference"),
                "v_lhs_reference",
            )
        record["quantum_max"] = row["quantum_max"]
        return record

    def _seesaw(self, argv, fmt, bob, tables, notes, extra):
        n = int(argv[1])
        q = quantum_max_closed(n)
        row = tables["seesaw"][0]
        close(fmt, row["value"], q, "see-saw value vs closed form", 1e-7 * q)
        close(fmt, row["closed_form"], q, "closed_form")
        require(float(row["deviation"]) <= 1e-7 * q, f"deviation {row['deviation']} too large")
        require(row["converged"] is True, "see-saw did not converge")
        return {
            "value": row["value"],
            "iterations": row["iterations"],
            "restart_index": row["restart_index"],
        }

    def _verify_directions(self, argv, fmt, bob, tables, notes, extra):
        n = int(argv[1])
        q = quantum_max_closed(n)
        rows = tables["evaluations"]
        for row in rows:
            close(fmt, row["target"], q, "target")
        (best,) = [r for r in rows if (r["directions"], r["alice"]) == ("catalog", "best-response")]
        require(best["passed"] is True, "catalog best-response evaluation failed")
        close(fmt, best["value"], q, "best-response value", 1e-3 if n == 10 else 1e-6)
        anomalies = [note for note in notes if note.startswith("anomaly: ")]
        all_passed = all(r["passed"] for r in rows) and not anomalies
        require(all_passed == (n not in (2, 4)), f"verification passed={all_passed} for n={n}")
        if fmt == "json":
            close(fmt, extra["witness_value"], q, "witness_value", 1e-6)
        return {"value": best["value"], "anomalies": len(anomalies)}

    def _tables(self, argv, fmt, bob, tables, notes, extra):
        for name, golden_rows in self.goldens.tables.items():
            rows = tables[name]
            require([r["n"] for r in rows] == sorted(golden_rows), f"{name}: orders differ")
            for row in rows:
                golden = golden_rows[row["n"]]
                for column in self.goldens.columns[name]:
                    if column == "note":
                        require((row[column] or "") == golden[column], f"{name} note differs")
                    else:
                        close(fmt, row[column], float(golden[column]), f"{name} n={row['n']} {column}")
        return {"value": sum(float(r["c_lhs"]) for r in tables["table1"])}


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""
