"""Command line front end.

Subcommands expose the coefficient matrices, classical and steering bounds,
Werner visibility thresholds, the see-saw optimizer, direction verification,
and the combined reference tables. Exit codes: 0 success, 2 invalid input,
3 verification anomaly, 4 resource cap exceeded or out of memory.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__, _kernels, catalog, matrices, quantum, steering
from .output import FORMATS, OutputDocument, Table
from .seesaw import DEFAULT_MAX_ITER, DEFAULT_RESTARTS, DEFAULT_TOL, multistart_seesaw

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_ANOMALY = 3
EXIT_RESOURCE = 4

# What a command returns: its document (None when it wrote files) and exit code.
Outcome = tuple[OutputDocument | None, int]


def _metadata(**extra) -> dict:
    meta = {"tool": "shimony", "version": __version__, "backend": _kernels.backend_name()}
    meta.update(extra)
    return meta


def _signed_text(values) -> str:
    return " ".join(f"{int(v):+d}" for v in values)


def _resolve_bob(args, n: int) -> tuple[np.ndarray, str]:
    """Bob's directions for order n from --directions JSON or the built-in catalog."""
    if args.directions is not None:
        try:
            loaded = catalog.load_directions_file(args.directions)
        except ValueError as exc:
            raise ValueError(f"{args.directions}: {exc}") from exc
        if loaded["n"] != n:
            raise ValueError(
                f"{args.directions}: file is for n={loaded['n']}, command asked for n={n}"
            )
        return loaded["bob"], "file"
    return catalog.catalog_directions(n).bob_directions, "catalog"


_NO_FIGURES = steering.PaperFigures(None, None, None, None, None)


def _steering_report(n: int, source: str, lhs, quantum_max: float):
    """Paper figures (none for a directions file), Bob-state and witness cells, JSON extras."""
    figures = _NO_FIGURES
    if source == "catalog":
        figures = steering.paper_figures(n, lhs.value, quantum_max)
    state = lhs.bob_state_direction.tolist()
    cells = dict(zip(["bob_state_x", "bob_state_y", "bob_state_z"], state))
    cells["witness"] = _signed_text(lhs.alice_witness)
    return figures, cells, {"witness": lhs.alice_witness.tolist(), "bob_state": state}


def _order_cells(n: int, pair, figures) -> dict:
    """One order's thresholds and tabulated figures, in the columns of thresholds."""
    return {
        "n": n,
        "c_lhv": pair.c_lhv,
        "c_lhs": pair.lhs.value,
        "quantum_max": pair.quantum_max,
        "v_lhv": pair.v_lhv,
        "v_lhs": pair.v_lhs_fixed_bob,
        "v_lhs_reference": figures.v_lhs,
        "v_lhs_from_reference_bound": figures.v_lhs_from_c_lhs,
    }


def cmd_matrix(args) -> Outcome:
    m = matrices.build_as_matrix(args.n)
    table = Table(
        name="matrix",
        columns=[f"c{j}" for j in range(1, args.n + 1)],
        rows=[[int(x) for x in row] for row in m],
    )
    return OutputDocument("matrix", [table], metadata=_metadata(n=args.n)), EXIT_OK


def cmd_bounds(args) -> Outcome:
    n = matrices.require_even_settings(args.n)
    columns = ["n", "c_lhv"]
    row: list = [n, matrices.lhv_bound_closed_form(n)]
    if args.bruteforce:
        matrices.require_enumerable(n)
        result = matrices.lhv_bound_bruteforce(matrices.build_as_matrix(n))
        columns += ["c_lhv_bruteforce", "alice_witness", "bob_witness"]
        row += [
            result.value,
            _signed_text(result.alice_witness),
            _signed_text(result.bob_witness),
        ]
    doc = OutputDocument("bounds", [Table("bounds", columns, [row])], metadata=_metadata(n=n))
    return doc, EXIT_OK


def cmd_lhs(args) -> Outcome:
    n = matrices.require_even_settings(args.n)
    matrices.require_steering_size(n)
    bob, source = _resolve_bob(args, n)
    m = matrices.build_as_matrix(n)
    result = steering.steering_lhs_bound(m, bob)
    figures, steering_cells, extra = _steering_report(
        n, source, result, quantum.max_quantum_closed_form(n)
    )
    cells = {"n": n, "c_lhs": result.value, "c_lhs_reference": figures.c_lhs} | steering_cells
    metadata = _metadata(n=n, directions_source=source)
    if figures.c_lhs_label is not None:
        metadata["reference"] = figures.c_lhs_label
    if args.oracle:
        oracle_value = steering.steering_lhs_bound_oracle(m, bob)
        cells.update(c_lhs_oracle=oracle_value, oracle_delta=abs(oracle_value - result.value))
    table = Table("lhs", list(cells), [list(cells.values())])
    return OutputDocument("lhs", [table], list(figures.notes), metadata, extra), EXIT_OK


def cmd_thresholds(args) -> Outcome:
    n = matrices.require_even_settings(args.n)
    matrices.require_steering_size(n)
    bob, source = _resolve_bob(args, n)
    m = matrices.build_as_matrix(n)
    metadata = _metadata(n=n, directions_source=source, quantum_max_source=args.quantum_max)
    if args.quantum_max == "seesaw":
        quantum_max = multistart_seesaw(m, restarts=args.restarts, seed=args.seed).value
        metadata.update(restarts=args.restarts, seed=args.seed)
    else:
        quantum_max = quantum.max_quantum_closed_form(n)
    pair = steering.werner_thresholds(m, bob, quantum_max)
    figures, steering_cells, extra = _steering_report(n, source, pair.lhs, quantum_max)
    cells = _order_cells(n, pair, figures)
    if figures.v_lhs_label is not None:
        metadata.update(v_lhs_reference=figures.v_lhs_label, c_lhs_reference=figures.c_lhs_label)
    notes = list(figures.notes)
    extra = {key: cells[key] for key in ("n", "c_lhs", "c_lhv", "v_lhs", "v_lhv")} | extra
    if pair.below_quantum_max:
        metadata["v_lhs_denominator"] = "quantum_value_directions"
        extra["quantum_value_directions"] = pair.lhs.quantum_value
        notes.append(
            f"the directions reach the quantum value {pair.lhs.quantum_value:.6f}, below the "
            f"quantum maximum {quantum_max:.6f}; v_lhs is c_lhs divided by the former"
        )
    cells |= steering_cells
    table = Table("thresholds", list(cells), [list(cells.values())])
    return OutputDocument("thresholds", [table], notes, metadata, extra), EXIT_OK


def cmd_seesaw(args) -> Outcome:
    n = matrices.require_even_settings(args.n)
    m = matrices.build_as_matrix(n)
    result = multistart_seesaw(
        m,
        restarts=args.restarts,
        seed=args.seed,
        tol=args.tol,
        max_iter=args.max_iter,
        record_trajectory=args.trajectory,
    )
    closed = quantum.max_quantum_closed_form(n)
    tables = [
        Table(
            "seesaw",
            ["n", "value", "closed_form", "deviation", "iterations", "converged", "restart_index"],
            [[n, result.value, closed, abs(result.value - closed), result.iterations,
              result.converged, result.restart_index]],
        )
    ]
    if args.trajectory and result.trajectory is not None:
        tables.append(
            Table(
                "trajectory",
                ["half_step", "value"],
                [[i, v] for i, v in enumerate(result.trajectory)],
            )
        )
    doc = OutputDocument(
        "seesaw",
        tables,
        metadata=_metadata(
            n=n, restarts=args.restarts, seed=args.seed, tol=args.tol, max_iter=args.max_iter
        ),
        extra={
            "alice": result.alice,
            "bob": result.bob,
        },
    )
    return doc, EXIT_OK


# The columns of each table, and the note cell each gives an order whose
# tabulated figures disagree.
_TABLES = {
    "table1": ["n", "c_lhv", "c_lhs", "c_lhs_reference", "note"],
    "table2": ["n", "v_lhv", "v_lhs", "v_lhs_reference", "v_lhs_from_reference_bound", "note"],
    "figure2": ["n", "c_lhv", "c_lhs"],
    "figure3": ["n", "v_lhv", "v_lhs"],
}
_TABLE_NOTES = {
    "table1": "inconsistent tabulated reference",
    "table2": "reference figures mutually inconsistent",
}


def cmd_tables(args) -> Outcome:
    rows = {name: [] for name in _TABLES}
    notes = []
    for n in catalog.SUPPORTED_SETTINGS:
        quantum_max = quantum.max_quantum_closed_form(n)
        bob = catalog.catalog_directions(n).bob_directions
        pair = steering.werner_thresholds(matrices.build_as_matrix(n), bob, quantum_max)
        figures = steering.paper_figures(n, pair.lhs.value, quantum_max)
        notes += figures.notes
        cells = _order_cells(n, pair, figures) | {"c_lhs_reference": figures.c_lhs}
        for name, columns in _TABLES.items():
            cells["note"] = _TABLE_NOTES.get(name, "") if figures.notes else ""
            rows[name].append([cells[column] for column in columns])
    tables = [Table(name, columns, rows[name]) for name, columns in _TABLES.items()]
    metadata = _metadata(orders=list(catalog.SUPPORTED_SETTINGS))
    doc = OutputDocument("tables", tables, notes, metadata)
    if args.outdir is not None:
        for path in doc.write_csv_files(args.outdir):
            print(f"wrote {path}")
        return None, EXIT_OK
    return doc, EXIT_OK


def cmd_verify_directions(args) -> Outcome:
    report = catalog.verify_directions(args.n)
    rows = [
        [e.label, e.alice_source, e.value, report.target, e.deviation, report.tolerance, e.passed]
        for e in report.evaluations
    ]
    notes = [f"anomaly: {a}" for a in report.anomalies]
    entry = catalog.catalog_directions(args.n)
    notes.append(entry.notes)
    doc = OutputDocument(
        "verify-directions",
        [
            Table(
                "evaluations",
                ["directions", "alice", "value", "target", "deviation", "tolerance", "passed"],
                rows,
            )
        ],
        notes=notes,
        metadata=_metadata(n=report.n, passed=report.passed, witness_value=report.witness_value),
        extra={
            "anomalies": list(report.anomalies),
            "witness_value": report.witness_value,
            "witness_alice": report.witness_alice,
            "witness_bob": report.witness_bob,
        },
    )
    return doc, EXIT_OK if report.passed else EXIT_ANOMALY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shimony",
        description=(
            "Abner-Shimony Bell inequalities: coefficient matrices, classical and "
            "steering bounds, quantum maxima, and Werner visibility thresholds."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str, handler, with_n: bool = True):
        p = sub.add_parser(name, help=help_text, description=help_text)
        if with_n:
            p.add_argument("n", type=int, help="number of settings per party (even, >= 2)")
        p.add_argument("--format", choices=FORMATS, default="pretty", help="output format")
        p.set_defaults(handler=handler)
        return p

    add_command("matrix", "print the AS_n coefficient matrix", cmd_matrix)

    p = add_command("bounds", "local hidden variable bound of AS_n", cmd_bounds)
    p.add_argument(
        "--bruteforce",
        action="store_true",
        help="also enumerate all deterministic assignments and report witnesses",
    )

    p = add_command("lhs", "steering (local hidden state) bound over Bob's directions", cmd_lhs)
    p.add_argument(
        "--directions",
        type=Path,
        help="JSON directions file {n, bob, alice?, notes?}; default is the built-in catalog",
    )
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check with the independent grid+refinement oracle",
    )

    p = add_command("thresholds", "Werner visibility thresholds for AS_n", cmd_thresholds)
    p.add_argument("--directions", type=Path, help="JSON directions file (default: catalog)")
    p.add_argument(
        "--quantum-max",
        choices=("closed-form", "seesaw"),
        default="closed-form",
        help="source of the quantum maximum used as denominator",
    )
    p.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    p.add_argument("--seed", type=int, default=0)

    p = add_command("seesaw", "multistart see-saw maximization of the quantum value", cmd_seesaw)
    p.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    p.add_argument("--trajectory", action="store_true", help="include per-half-step values")

    p = add_command("tables", "reproduce the reference tables and figure data", cmd_tables, with_n=False)
    p.add_argument("--outdir", type=Path, help="write one CSV file per table into this directory")

    add_command(
        "verify-directions",
        "evaluate a catalog entry against the closed-form quantum maximum",
        cmd_verify_directions,
    )
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reuses; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        doc, code = args.handler(args)
        if doc is not None:
            sys.stdout.write(doc.render(args.format))
        return code
    except (matrices.ResourceLimitError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
