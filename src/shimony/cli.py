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


def _steering_request(args) -> tuple[catalog.DirectionCatalogEntry, dict]:
    """The request's direction entry and metadata: catalog order n, or the --directions file's set.

    n must be even and within the steering cap, checked before a file is read.
    """
    n = matrices.require_even_settings(args.n)
    matrices.require_steering_size(n)
    if args.directions is None:
        return catalog.catalog_directions(n), _metadata(n=n, directions_source="catalog")
    try:
        entry = catalog.load_directions_file(args.directions)
    except ValueError as exc:
        raise ValueError(f"{args.directions}: {exc}") from exc
    if entry.n != n:
        raise ValueError(f"{args.directions}: file is for n={entry.n}, command asked for n={n}")
    return entry, _metadata(n=n, directions_source="file")


def _evaluate(entry: catalog.DirectionCatalogEntry, quantum_max: float):
    """The per-order evaluation: thresholds, a fresh list of notes and named cells.

    A file's entry has no tabulated figures, so its reference cells are None.
    """
    n, lhs = entry.n, entry.steering_bound
    pair = steering._threshold_pair(matrices.lhv_bound_closed_form(n), lhs, quantum_max)
    c_ref = v_ref = v_from_ref = None
    notes = []
    if entry.c_lhs_reference is not None:
        c_ref, v_ref = entry.c_lhs_reference[1], entry.v_lhs_reference[1]
        v_from_ref = c_ref / quantum_max
        if n == 10:  # the tabulated C_LHS and V_LHS disagree; the note sets both out
            notes.append(
                f"computed bound {lhs.value:.6f} disagrees with the tabulated reference "
                f"{c_ref:.4f}; the computed quotient {pair.v_lhs:.6f} matches "
                f"the tabulated visibility threshold {v_ref:.4f}, while the reference "
                f"bound would imply {v_from_ref:.6f}; the two tabulated figures "
                f"are mutually inconsistent and both are reported"
            )
    state = pair.lhs.bob_state_direction.tolist()
    cells = {
        "n": n,
        "c_lhv": pair.c_lhv,
        "c_lhs": pair.lhs.value,
        "c_lhs_reference": c_ref,
        "quantum_max": pair.quantum_max,
        "v_lhv": pair.v_lhv,
        "v_lhs": pair.v_lhs_fixed_bob,
        "v_lhs_reference": v_ref,
        "v_lhs_from_reference_bound": v_from_ref,
        **dict(zip(["bob_state_x", "bob_state_y", "bob_state_z"], state)),
        "witness": _signed_text(pair.lhs.alice_witness),
    }
    return pair, notes, cells


def _one_row(name: str, cells: dict, columns=None) -> Table:
    """A one-row table of cells in the given columns, by default all of them."""
    columns = list(cells) if columns is None else columns
    return Table(name, columns, [[cells[column] for column in columns]])


# The columns each command or table projects from the evaluation's cells.
_STATE = ["bob_state_x", "bob_state_y", "bob_state_z", "witness"]
_TABLES = {
    "lhs": ["n", "c_lhs", "c_lhs_reference", *_STATE],
    "thresholds": ["n", "c_lhv", "c_lhs", "quantum_max", "v_lhv", "v_lhs", "v_lhs_reference",
                   "v_lhs_from_reference_bound", *_STATE],
    "table1": ["n", "c_lhv", "c_lhs", "c_lhs_reference", "note"],
    "table2": ["n", "v_lhv", "v_lhs", "v_lhs_reference", "v_lhs_from_reference_bound", "note"],
    "figure2": ["n", "c_lhv", "c_lhs"],
    "figure3": ["n", "v_lhv", "v_lhs"],
}
_PAPER_TABLES = ("table1", "table2", "figure2", "figure3")
# The note cell each paper table gives an order whose tabulated figures disagree.
_TABLE_NOTES = {
    "table1": "inconsistent tabulated reference",
    "table2": "reference figures mutually inconsistent",
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
    cells = {"n": n, "c_lhv": matrices.lhv_bound_closed_form(n)}
    if args.bruteforce:
        matrices.require_enumerable(n)
        result = matrices.lhv_bound_bruteforce(matrices.build_as_matrix(n))
        cells.update(
            c_lhv_bruteforce=result.value,
            alice_witness=_signed_text(result.alice_witness),
            bob_witness=_signed_text(result.bob_witness),
        )
    return OutputDocument("bounds", [_one_row("bounds", cells)], metadata=_metadata(n=n)), EXIT_OK


def cmd_lhs(args) -> Outcome:
    entry, metadata = _steering_request(args)
    pair, notes, cells = _evaluate(entry, quantum.max_quantum_closed_form(entry.n))
    if entry.c_lhs_reference is not None:
        metadata["reference"] = entry.c_lhs_reference[0]
    columns = _TABLES["lhs"]
    if args.oracle:
        oracle_value = entry.oracle_bound.lower
        cells.update(c_lhs_oracle=oracle_value, oracle_delta=abs(oracle_value - pair.lhs.value))
        columns = columns + ["c_lhs_oracle", "oracle_delta"]
    extra = {"witness": pair.lhs.alice_witness, "bob_state": pair.lhs.bob_state_direction}
    table = _one_row("lhs", cells, columns)
    return OutputDocument("lhs", [table], notes, metadata, extra), EXIT_OK


def cmd_thresholds(args) -> Outcome:
    entry, metadata = _steering_request(args)
    metadata["quantum_max_source"] = args.quantum_max
    if args.quantum_max == "seesaw":
        m = matrices.build_as_matrix(entry.n)
        quantum_max = multistart_seesaw(m, restarts=args.restarts, seed=args.seed).value
        metadata.update(restarts=args.restarts, seed=args.seed)
    else:
        quantum_max = quantum.max_quantum_closed_form(entry.n)
    pair, notes, cells = _evaluate(entry, quantum_max)
    if entry.c_lhs_reference is not None:
        metadata.update(
            v_lhs_reference=entry.v_lhs_reference[0], c_lhs_reference=entry.c_lhs_reference[0]
        )
    extra = {key: cells[key] for key in ("n", "c_lhs", "c_lhv", "v_lhs", "v_lhv")}
    extra.update(witness=pair.lhs.alice_witness, bob_state=pair.lhs.bob_state_direction)
    if pair.below_quantum_max:
        metadata["v_lhs_denominator"] = "quantum_value_directions"
        extra["quantum_value_directions"] = pair.lhs.quantum_value
        notes.append(
            f"the directions reach the quantum value {pair.lhs.quantum_value:.6f}, below the "
            f"quantum maximum {quantum_max:.6f}; v_lhs is c_lhs divided by the former"
        )
    table = _one_row("thresholds", cells, _TABLES["thresholds"])
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
    cells = dict(
        n=n, value=result.value, closed_form=closed, deviation=abs(result.value - closed),
        iterations=result.iterations, converged=result.converged,
        restart_index=result.restart_index,
    )
    tables = [_one_row("seesaw", cells)]
    if args.trajectory:
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


def cmd_tables(args) -> Outcome:
    rows = {name: [] for name in _PAPER_TABLES}
    notes = []
    for n in catalog.SUPPORTED_SETTINGS:
        quantum_max = quantum.max_quantum_closed_form(n)
        _, order_notes, cells = _evaluate(catalog.catalog_directions(n), quantum_max)
        notes += order_notes
        for name in _PAPER_TABLES:
            cells["note"] = _TABLE_NOTES.get(name, "") if order_notes else ""
            rows[name].append([cells[column] for column in _TABLES[name]])
    tables = [Table(name, _TABLES[name], rows[name]) for name in _PAPER_TABLES]
    metadata = _metadata(orders=list(catalog.SUPPORTED_SETTINGS))
    doc = OutputDocument("tables", tables, notes, metadata)
    if args.outdir is not None:
        for path in doc.write_csv_files(args.outdir):
            print(f"wrote {path}")
        return None, EXIT_OK
    return doc, EXIT_OK


def cmd_verify_directions(args) -> Outcome:
    entry = catalog.catalog_directions(args.n)
    report = entry.report
    rows = [
        [e.label, e.alice_source, e.value, report.target, e.deviation, report.tolerance, e.passed]
        for e in report.evaluations
    ]
    notes = [f"anomaly: {a}" for a in report.anomalies]
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

    def add_directions(p):
        help_text = "JSON directions file {n, bob, alice?, notes?}; default is the built-in catalog"
        p.add_argument("--directions", type=Path, help=help_text)

    def add_restarts_and_seed(p):
        p.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
        p.add_argument("--seed", type=int, default=0)

    add_command("matrix", "print the AS_n coefficient matrix", cmd_matrix)

    p = add_command("bounds", "local hidden variable bound of AS_n", cmd_bounds)
    p.add_argument(
        "--bruteforce",
        action="store_true",
        help="also enumerate all deterministic assignments and report witnesses",
    )

    p = add_command("lhs", "steering (local hidden state) bound over Bob's directions", cmd_lhs)
    add_directions(p)
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check with the independent branch-and-bound oracle",
    )

    p = add_command("thresholds", "Werner visibility thresholds for AS_n", cmd_thresholds)
    add_directions(p)
    p.add_argument(
        "--quantum-max",
        choices=("closed-form", "seesaw"),
        default="closed-form",
        help="source of the quantum maximum used as denominator",
    )
    add_restarts_and_seed(p)

    p = add_command("seesaw", "multistart see-saw maximization of the quantum value", cmd_seesaw)
    add_restarts_and_seed(p)
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


# The answers of the file-free command lines one process keeps: at most this
# many lines, the least recently used dropped first, and each answer at most
# this many characters, so the memo holds at most 8 MiB.
_ANSWER_MEMO_SIZE = 128
_ANSWER_MAX_CHARS = 65536
_answers: dict[tuple, tuple[str, int]] = {}


def main(argv=None) -> int:
    """Run one command line, answering a repeated file-free line from memory.

    A line that reads and writes no file gets the same stdout text and exit
    code every time in one process (catalog entries are shared and read-only,
    the see-saw is seeded), so that answer is kept. Never kept: a --directions
    line (the file can change), a line that writes files, a handler failure
    and an answer over _ANSWER_MAX_CHARS. argparse refusals, --help and
    --version exit inside the parse on every call.
    """
    key = tuple(sys.argv[1:] if argv is None else argv)
    try:
        if key in _answers:
            text, code = _answers[key] = _answers.pop(key)  # now the most recent
            sys.stdout.write(text)
            return code
        args = _parser().parse_args(key)
        doc, code = args.handler(args)
        if doc is None:  # it wrote files
            return code
        text = doc.render(args.format)
        sys.stdout.write(text)
        if getattr(args, "directions", None) is None and len(text) <= _ANSWER_MAX_CHARS:
            _answers[key] = text, code
            if len(_answers) > _ANSWER_MEMO_SIZE:
                del _answers[next(iter(_answers))]
        return code
    except (matrices.ResourceLimitError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
