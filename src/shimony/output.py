"""Result documents rendered as pretty text, JSON, or CSV.

A document is a list of named tables plus free-form notes, metadata, and
optional JSON-only extras (arrays that do not fit a flat table). Floats are
written with 10 significant digits in CSV and carried through JSON as the
same rounded values, so both machine encodings hold identical numbers; the
pretty renderer uses 4 decimals.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
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


def _rounded(value):
    """A copy of value that `json.dumps` can write, floats rounded as in CSV.

    Dispatch is on exact types, so a subclass of a type written here (a
    namedtuple, an OrderedDict, an IntEnum member, an array view) is refused.
    """
    kind = type(value)
    if kind is float or isinstance(value, np.floating):
        return round_sig(value)
    if kind is int or isinstance(value, np.integer):
        return int(value)
    if kind is bool or kind is np.bool_:
        return bool(value)
    if kind is str or value is None:
        return value
    if kind is list or kind is tuple:
        return [_rounded(v) for v in value]
    if kind is np.ndarray:
        return _rounded(value.tolist())
    if kind is dict:
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
        return {key: _rounded(v) for key, v in value.items()}
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def json_text(value) -> str:
    """A document as `json.dumps(..., indent=2)` text of its rounded copy.

    Arrays are written as their `tolist()`, numpy scalars as the Python
    scalars they hold, and floats rounded by `round_sig` as in CSV, with NaN
    and infinities as `NaN`, `Infinity` and `-Infinity`. A dict key that is
    not a str, or a value of any other type, raises TypeError.
    """
    return json.dumps(_rounded(value), indent=2)


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
