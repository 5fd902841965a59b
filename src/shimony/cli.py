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


def _metadata(**extra) -> dict:
    meta = {"tool": "shimony", "version": __version__, "backend": _kernels.backend_name()}
    meta.update(extra)
    return meta


def _signed_text(values) -> str:
    return " ".join(f"{int(v):+d}" for v in values)


def _emit(doc: OutputDocument, fmt: str) -> None:
    sys.stdout.write(doc.render(fmt))


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


def _n10_discrepancy_note(computed: float, quantum_max: float) -> str:
    ref = steering.LHS_BOUND_REFERENCES[10][1]
    tab = steering.VISIBILITY_LHS_REFERENCES[10][1]
    return (
        f"computed bound {computed:.6f} disagrees with the tabulated reference "
        f"{ref:.4f}; the computed quotient {computed / quantum_max:.6f} matches "
        f"the tabulated visibility threshold {tab:.4f}, while the reference "
        f"bound would imply {ref / quantum_max:.6f}; the two tabulated figures "
        f"are mutually inconsistent and both are reported"
    )


def cmd_matrix(args) -> int:
    m = matrices.build_as_matrix(args.n)
    table = Table(
        name="matrix",
        columns=[f"c{j}" for j in range(1, args.n + 1)],
        rows=[[int(x) for x in row] for row in m],
    )
    _emit(OutputDocument("matrix", [table], metadata=_metadata(n=args.n)), args.format)
    return EXIT_OK


def cmd_bounds(args) -> int:
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
    _emit(doc, args.format)
    return EXIT_OK


def cmd_lhs(args) -> int:
    n = matrices.require_even_settings(args.n)
    matrices.require_steering_size(n)
    bob, source = _resolve_bob(args, n)
    m = matrices.build_as_matrix(n)
    result = steering.steering_lhs_bound(m, bob)

    reference = steering.LHS_BOUND_REFERENCES.get(n) if source == "catalog" else None
    columns = ["n", "c_lhs", "c_lhs_reference", "bob_state_x", "bob_state_y", "bob_state_z", "witness"]
    row: list = [
        n,
        result.value,
        None if reference is None else reference[1],
        result.bob_state_direction[0],
        result.bob_state_direction[1],
        result.bob_state_direction[2],
        _signed_text(result.alice_witness),
    ]
    notes = []
    metadata = _metadata(n=n, directions_source=source)
    if reference is not None:
        metadata["reference"] = reference[0]
    if args.oracle:
        oracle_value = steering.steering_lhs_bound_oracle(m, bob)
        columns += ["c_lhs_oracle", "oracle_delta"]
        row += [oracle_value, abs(oracle_value - result.value)]
    if source == "catalog" and n == 10:
        notes.append(_n10_discrepancy_note(result.value, quantum.max_quantum_closed_form(10)))
    doc = OutputDocument(
        "lhs",
        [Table("lhs", columns, [row])],
        notes=notes,
        metadata=metadata,
        extra={
            "witness": [int(v) for v in result.alice_witness],
            "bob_state": [float(v) for v in result.bob_state_direction],
        },
    )
    _emit(doc, args.format)
    return EXIT_OK


def cmd_thresholds(args) -> int:
    n = matrices.require_even_settings(args.n)
    matrices.require_enumerable(n)  # C_LHV is a 2**n scan: its cap is the lower one
    bob, source = _resolve_bob(args, n)
    m = matrices.build_as_matrix(n)
    if args.quantum_max == "seesaw":
        quantum_max = multistart_seesaw(m, restarts=args.restarts, seed=args.seed).value
    else:
        quantum_max = quantum.max_quantum_closed_form(n)
    lhv = matrices.lhv_bound_bruteforce(m)
    lhs = steering.steering_lhs_bound(m, bob)
    v_lhv = lhv.value / quantum_max
    v_lhs = lhs.value / quantum_max

    reference = steering.VISIBILITY_LHS_REFERENCES.get(n) if source == "catalog" else None
    bound_reference = steering.LHS_BOUND_REFERENCES.get(n) if source == "catalog" else None
    columns = [
        "n",
        "c_lhv",
        "c_lhs",
        "quantum_max",
        "v_lhv",
        "v_lhs",
        "v_lhs_reference",
        "v_lhs_from_reference_bound",
        "bob_state_x",
        "bob_state_y",
        "bob_state_z",
        "witness",
    ]
    row: list = [
        n,
        lhv.value,
        lhs.value,
        quantum_max,
        v_lhv,
        v_lhs,
        None if reference is None else reference[1],
        None if bound_reference is None else bound_reference[1] / quantum_max,
        lhs.bob_state_direction[0],
        lhs.bob_state_direction[1],
        lhs.bob_state_direction[2],
        _signed_text(lhs.alice_witness),
    ]
    notes = []
    metadata = _metadata(n=n, directions_source=source, quantum_max_source=args.quantum_max)
    if args.quantum_max == "seesaw":
        metadata.update(restarts=args.restarts, seed=args.seed)
    if reference is not None:
        metadata["v_lhs_reference"] = reference[0]
    if bound_reference is not None:
        metadata["c_lhs_reference"] = bound_reference[0]
    if source == "catalog" and n == 10:
        notes.append(_n10_discrepancy_note(lhs.value, quantum_max))
    doc = OutputDocument(
        "thresholds",
        [Table("thresholds", columns, [row])],
        notes=notes,
        metadata=metadata,
        extra={
            "n": n,
            "c_lhs": lhs.value,
            "c_lhv": lhv.value,
            "v_lhs": v_lhs,
            "v_lhv": v_lhv,
            "witness": [int(v) for v in lhs.alice_witness],
            "bob_state": [float(v) for v in lhs.bob_state_direction],
        },
    )
    _emit(doc, args.format)
    return EXIT_OK


def cmd_seesaw(args) -> int:
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
    _emit(doc, args.format)
    return EXIT_OK


def cmd_tables(args) -> int:
    rows1, rows2, rows_f2, rows_f3 = [], [], [], []
    notes = []
    for n in catalog.SUPPORTED_SETTINGS:
        m = matrices.build_as_matrix(n)
        entry = catalog.catalog_directions(n)
        lhv = matrices.lhv_bound_bruteforce(m).value
        lhs = steering.steering_lhs_bound(m, entry.bob_directions).value
        quantum_max = quantum.max_quantum_closed_form(n)
        v_lhv = lhv / quantum_max
        v_lhs = lhs / quantum_max
        bound_ref = steering.LHS_BOUND_REFERENCES[n][1]
        visibility_ref = steering.VISIBILITY_LHS_REFERENCES[n][1]
        note1 = "inconsistent tabulated reference" if n == 10 else ""
        note2 = "reference figures mutually inconsistent" if n == 10 else ""
        rows1.append([n, lhv, lhs, bound_ref, note1])
        rows2.append([n, v_lhv, v_lhs, visibility_ref, bound_ref / quantum_max, note2])
        rows_f2.append([n, lhv, lhs])
        rows_f3.append([n, v_lhv, v_lhs])
        if n == 10:
            notes.append(_n10_discrepancy_note(lhs, quantum_max))

    doc = OutputDocument(
        "tables",
        [
            Table("table1", ["n", "c_lhv", "c_lhs", "c_lhs_reference", "note"], rows1),
            Table(
                "table2",
                ["n", "v_lhv", "v_lhs", "v_lhs_reference", "v_lhs_from_reference_bound", "note"],
                rows2,
            ),
            Table("figure2", ["n", "c_lhv", "c_lhs"], rows_f2),
            Table("figure3", ["n", "v_lhv", "v_lhs"], rows_f3),
        ],
        notes=notes,
        metadata=_metadata(orders=list(catalog.SUPPORTED_SETTINGS)),
    )
    if args.outdir is not None:
        for path in doc.write_csv_files(args.outdir):
            print(f"wrote {path}")
        return EXIT_OK
    _emit(doc, args.format)
    return EXIT_OK


def cmd_verify_directions(args) -> int:
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
    _emit(doc, args.format)
    return EXIT_OK if report.passed else EXIT_ANOMALY


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
        return args.handler(args)
    except (matrices.ResourceLimitError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
