"""Result documents rendered as pretty text, JSON, or CSV.

A document is a list of named tables plus free-form notes, metadata, and
optional JSON-only extras (arrays that do not fit a flat table). Floats are
written with 10 significant digits in CSV and carried through JSON as the
same rounded values, so both machine encodings hold identical numbers; the
pretty renderer uses 4 decimals.

JSON is written by one recursive function, `json_text`, in one walk that picks
each value's text by its exact type. Floats are rounded as in CSV as they are
visited, with no rounded copy made first, and the text is byte for byte what
`json.dumps(..., indent=2)` wrote for that copy. Strings use `json`'s C escaper.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

FORMATS = ("pretty", "json", "csv")

_FLOAT_SPEC = ".10g"
_PRETTY_SPEC = ".4f"


def round_sig(value: float) -> float:
    """Round a float to 10 significant digits (the CSV precision)."""
    return float(format(float(value), _FLOAT_SPEC))


def _cell_text(value, spec: str) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), spec)
    return str(value)


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# Exact types, so a subclass is refused; bound here so no call looks up `np.X`.
_FLOATS = {float, np.float64}
_INTS = {int, np.int64}
_BOOLS = {bool, np.bool_}
_SEQUENCES = {list, tuple}


def _text(value, indent: str) -> str:
    kind = type(value)
    if kind in _FLOATS:
        text = float.__repr__(round_sig(value))
        return _NONFINITE.get(text, text)
    if kind is str:
        return _quote(value)
    if kind in _INTS:
        return int.__repr__(int(value))
    if kind in _SEQUENCES:
        if not value:
            return "[]"
        inner = indent + "  "
        # Not a comprehension: before Python 3.12 that makes `inner` a cell on every call.
        items = []
        for v in value:
            items.append(_text(v, inner))
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        items = []
        for key, v in value.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
            items.append(_quote(key) + ": " + _text(v, inner))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if kind in _BOOLS:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is np.ndarray:
        return _text(value.tolist(), indent)
    # Numpy scalar types other than the exact ones above (float32, int32, ...).
    if isinstance(value, np.integer):
        return _text(int(value), indent)
    if isinstance(value, np.floating):
        return _text(float(value), indent)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def json_text(value) -> str:
    """A document as indent-2 JSON text, written in one walk.

    Arrays are written as their `tolist()`, numpy scalars as the Python
    scalars they hold, and floats rounded by `round_sig` as in CSV, with NaN
    and infinities as `NaN`, `Infinity` and `-Infinity`. The bytes are those
    of `json.dumps(..., indent=2)` on the rounded copy. A dict key that is not
    a str, or a value of any other type, raises TypeError.
    """
    return _text(value, "")


@dataclass
class Table:
    name: str
    columns: list[str]
    rows: list[list]


@dataclass
class OutputDocument:
    command: str
    tables: list[Table] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)  # JSON-only payload

    def to_json(self) -> str:
        body = {
            "command": self.command,
            "metadata": self.metadata,
            "tables": [{"name": t.name, "columns": t.columns, "rows": t.rows} for t in self.tables],
            "notes": self.notes,
            **self.extra,
        }
        return json_text(body)

    def _table_csv(self, table: Table) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([_cell_text(v, _FLOAT_SPEC) for v in row])
        return buffer.getvalue()

    def to_csv(self) -> str:
        parts = []
        for table in self.tables:
            if len(self.tables) > 1:
                parts.append(f"# {table.name}\n")
            parts.append(self._table_csv(table))
        for note in self.notes:
            parts.append(f"# note: {note}\n")
        return "".join(parts)

    def write_csv_files(self, outdir) -> list[Path]:
        """One pure CSV file per table, named <table>.csv."""
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        paths = []
        for table in self.tables:
            path = outdir / f"{table.name}.csv"
            path.write_text(self._table_csv(table), encoding="utf-8")
            paths.append(path)
        return paths

    def to_pretty(self) -> str:
        lines = []
        for table in self.tables:
            if len(self.tables) > 1 or table.name != self.command:
                lines.append(f"[{table.name}]")
            texts = [list(table.columns)] + [
                [_cell_text(v, _PRETTY_SPEC) for v in row] for row in table.rows
            ]
            widths = [max(len(r[c]) for r in texts) for c in range(len(table.columns))]
            for r, row in enumerate(texts):
                lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
                if r == 0:
                    lines.append("  ".join("-" * w for w in widths))
            lines.append("")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines).rstrip("\n") + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json() + "\n"
        if fmt == "csv":
            return self.to_csv()
        if fmt == "pretty":
            return self.to_pretty()
        raise ValueError(f"unknown format {fmt!r}; choose from {', '.join(FORMATS)}")
