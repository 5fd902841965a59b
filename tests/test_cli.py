"""CLI behavior: formats, exit codes, direction files, golden tables."""

import dataclasses
import hashlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    bracketed,
    entry_to_dict,
    pretty_cells,
    random_unit_rows,
    regular_polygon_set,
    underflow_bob_set,
    visibility_lhv_closed_form,
)
from shimony import catalog, cli
from shimony.catalog import SUPPORTED_SETTINGS, catalog_directions, verify_directions
from shimony.matrices import build_as_matrix
from shimony.output import OutputDocument, round_sig
from shimony.seesaw import DEFAULT_RESTARTS, random_measurement_set
from shimony.steering import steering_lhs_bound, steering_lhs_bound_oracle

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(autouse=True)
def empty_answer_memo():
    # Tests monkeypatch a layer and then call main on a line that an earlier
    # test may have answered; an empty memo makes each such call reach it.
    cli._answers.clear()


def test_matrix_csv(capsys):
    code, out, _ = run_cli(capsys, "matrix", "4", "--format", "csv")
    assert code == 0
    assert out == "c1,c2,c3,c4\n1,1,1,1\n1,1,1,-1\n1,1,-2,0\n1,-1,0,0\n"


def test_matrix_json(capsys):
    code, out, _ = run_cli(capsys, "matrix", "8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["n"] == 8
    rows = doc["tables"][0]["rows"]
    assert rows[3] == [1, 1, 1, 1, 1, -3, 0, 0]


def test_invalid_n_exits_2(capsys):
    code, _, err = run_cli(capsys, "matrix", "3")
    assert code == 2
    assert "even integer" in err


@pytest.mark.filterwarnings("error")
def test_bounds(capsys):
    code, out, _ = run_cli(capsys, "bounds", "6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    row = doc["tables"][0]["rows"][0]
    assert row[:2] == [6, 12]

    code, out, _ = run_cli(capsys, "bounds", "6", "--bruteforce", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    columns = doc["tables"][0]["columns"]
    row = dict(zip(columns, doc["tables"][0]["rows"][0]))
    assert row["c_lhv_bruteforce"] == 12
    assert row["alice_witness"] == "-1 -1 -1 -1 -1 -1"

    # The largest scan under the cap, 2**24 assignments.
    code, out, _ = run_cli(capsys, "bounds", "24", "--bruteforce", "--format", "csv")
    assert code == 0
    witness = " ".join(["-1"] * 24)
    assert out.splitlines()[1] == f"24,156,156,{witness},{witness}"


def test_bounds_resource_cap_exits_4(capsys):
    code, _, err = run_cli(capsys, "bounds", "26", "--bruteforce")
    assert code == 4
    assert "cap" in err


@pytest.mark.parametrize(
    "command, exc, message",
    [
        ("matrix", MemoryError("Unable to allocate 6.71 GiB"), "Unable to allocate 6.71 GiB"),
        ("seesaw", MemoryError(), "out of memory"),
    ],
)
def test_out_of_memory_exits_4(capsys, monkeypatch, command, exc, message):
    def fail(n):
        raise exc

    monkeypatch.setattr(cli.matrices, "build_as_matrix", fail)
    code, out, err = run_cli(capsys, command, "30000")
    assert code == 4
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bounds", "30000", "--bruteforce"], "2**30000 assignments exceeds the cap of 24"),
        (["lhs", "30000"], "steering bound over 30000 settings exceeds the cap of 300"),
        (["lhs", "302", "--oracle"], "steering bound over 302 settings exceeds the cap of 300"),
        (["thresholds", "302"], "steering bound over 302 settings exceeds the cap of 300"),
        (["thresholds", "30000", "--quantum-max", "seesaw"], "exceeds the cap of 300"),
    ],
)
def test_caps_refuse_before_the_matrix_is_built(tmp_path, capsys, monkeypatch, argv, message):
    def refuse(n):
        raise AssertionError(f"built the {n} x {n} matrix")

    monkeypatch.setattr(cli.matrices, "build_as_matrix", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (4, "")
    assert message in err
    # The cap comes before the directions file is read: a malformed one
    # would exit 2.
    path = tmp_path / "large.json"
    path.write_text("{not json")
    if argv[0] != "bounds":
        code, _, err = run_cli(capsys, *argv, "--directions", str(path))
        assert code == 4 and message in err


def test_lhs_beyond_the_enumeration_cap(tmp_path, capsys):
    # The steering bound is polynomial: n = 40 runs, and agrees with the oracle.
    n = 40
    bob = random_unit_rows(np.random.default_rng(n), n)
    path = tmp_path / "bob40.json"
    path.write_text(json.dumps({"n": n, "bob": bob.tolist()}))
    argv = ["lhs", str(n), "--directions", str(path), "--oracle", "--format", "json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    row = dict(zip(doc["tables"][0]["columns"], doc["tables"][0]["rows"][0]))
    assert row["oracle_delta"] <= 1e-12 * row["c_lhs"]
    assert len(doc["witness"]) == n and doc["witness"][0] == -1


def _threshold_cells(out: str, fmt: str) -> dict:
    """The one table row of a thresholds or lhs output, cell by column name."""
    if fmt == "json":
        table = json.loads(out)["tables"][0]
        return dict(zip(table["columns"], table["rows"][0]))
    lines = out.splitlines()
    if fmt == "csv":
        return dict(zip(lines[0].split(","), lines[1].split(",")))
    return pretty_cells(lines[:3])


@pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
@pytest.mark.parametrize(
    "n", [26, 40, pytest.param(300, marks=pytest.mark.filterwarnings("error"))]
)
def test_thresholds_beyond_the_enumeration_cap(tmp_path, capsys, n, fmt):
    # C_LHV of AS_n is the closed form at any order, so thresholds runs up to
    # the steering cap (C_LHV = 22650 at n = 300); its c_lhs is the lhs
    # command's, cell for cell.
    bob = random_unit_rows(np.random.default_rng(n), n)
    path = tmp_path / f"bob{n}.json"
    path.write_text(json.dumps({"n": n, "bob": bob.tolist()}))
    code, out, _ = run_cli(capsys, "thresholds", str(n), "--directions", str(path), "--format", fmt)
    assert code == 0
    row = _threshold_cells(out, fmt)
    code, lhs_out, _ = run_cli(capsys, "lhs", str(n), "--directions", str(path), "--format", fmt)
    assert code == 0
    assert row["c_lhs"] == _threshold_cells(lhs_out, fmt)["c_lhs"]
    v_lhv = visibility_lhv_closed_form(n)
    if fmt == "pretty":
        assert row["c_lhv"] == str((n // 2) * (n // 2 + 1))
        assert row["v_lhv"] == f"{v_lhv:.4f}"
        return
    assert int(row["c_lhv"]) == (n // 2) * (n // 2 + 1)
    assert float(row["v_lhv"]) == pytest.approx(round_sig(v_lhv), rel=1e-15, abs=0)


def test_unknown_output_format_is_refused():
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        OutputDocument("matrix").render("xml")


def run_main(capsys, argv):
    """main's exit code, stdout and stderr, with a SystemExit's code as the exit code."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_reuses_one_parser(capsys):
    # Outputs, refusals and exit codes of a run of main() calls on the cached
    # parser and answer memo are byte-identical to the same calls each on a
    # fresh parser with an empty memo.
    sequence = [
        ["thresholds", "4"],
        ["matrix", "3"],
        ["lhs", "2", "--format", "csv"],
        ["nonsense"],
        ["bounds", "6", "--format", "json"],
        ["--version"],
        ["seesaw", "4", "--restarts", "3", "--format", "csv"],
        ["lhs", "4", "--format", "bad"],
        ["thresholds", "4"],
    ]

    cached = [run_main(capsys, argv) for argv in sequence]
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        cli._answers.clear()
        fresh.append(run_main(capsys, argv))
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 2, 0, 2, 0, 0, 0, 2, 0]
    assert cached[5][1].startswith("shimony ")


def test_a_handler_that_changes_its_args_leaves_the_next_call_unchanged(capsys, monkeypatch):
    # A handler that returns no document wrote files, so its line is never
    # kept; each call parses again and gets its own namespace.
    seen = []

    def mutating(args):
        seen.append(dict(vars(args)))
        args.n, args.format, args.added = -1, "csv", True
        return None, cli.EXIT_OK

    monkeypatch.setattr(cli, "cmd_matrix", mutating)
    cli._parser.cache_clear()
    try:
        assert [cli.main(["matrix", "3"]) for _ in range(3)] == [0, 0, 0]
        assert not cli._answers
    finally:
        cli._parser.cache_clear()
    assert len(seen) == 3
    assert seen[0] == seen[1] == seen[2]
    assert (seen[0]["n"], seen[0]["format"], "added" in seen[0]) == (3, "pretty", False)


@pytest.mark.parametrize(
    "argv, parsed",
    [
        (["nonsense"], False),
        (["matrix", "3"], True),
        (["lhs", "4", "--format", "bad"], False),
        (["--help"], False),
        (["lhs", "--help"], False),
        (["--version"], False),
    ],
)
def test_refused_lines_print_and_exit_the_same_every_call(capsys, argv, parsed):
    # Argument errors, --help and --version exit inside the parse, and a line
    # that parses and then fails in its handler is a failure, so none is kept:
    # each call prints and exits again.
    first = run_main(capsys, argv)
    second = run_main(capsys, argv)
    assert first == second
    assert not cli._answers
    assert first[0] == (0 if "--help" in argv or "--version" in argv else 2)
    assert first[1] or first[2]
    assert first[2].startswith("error: ") == parsed


def test_the_answer_memo_stays_at_its_bound(capsys):
    bound = cli._ANSWER_MEMO_SIZE
    assert bound == 128
    lines = [["bounds", str(n), "--format", "csv"] for n in range(2, 2 * bound + 22, 2)]
    for argv in lines:
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.startswith(f"n,c_lhv\n{argv[1]},")
        assert len(cli._answers) <= bound
    assert list(cli._answers) == [tuple(argv) for argv in lines[-bound:]]
    # A hit becomes the most recent answer, so the next line drops the one after it.
    oldest, next_oldest = lines[-bound], lines[-bound + 1]
    assert cli.main(oldest) == 0
    assert cli.main(["bounds", "400", "--format", "csv"]) == 0
    assert len(cli._answers) == bound
    assert tuple(oldest) in cli._answers and tuple(next_oldest) not in cli._answers


def test_a_rewritten_directions_file_is_read_again(tmp_path, capsys):
    path = tmp_path / "bob4.json"
    outputs = []
    for seed in (1, 2):
        bob = random_unit_rows(np.random.default_rng(seed), 4)
        path.write_text(json.dumps({"n": 4, "bob": bob.tolist()}))
        outputs.append(run_cli(capsys, "lhs", "4", "--directions", str(path), "--format", "csv"))
    assert [code for code, _, _ in outputs] == [0, 0]
    assert outputs[0][1] != outputs[1][1]
    assert not cli._answers


def test_tables_outdir_writes_its_files_on_every_call(tmp_path, capsys):
    outdir = tmp_path / "tables"
    for _ in range(2):
        code, out, _ = run_cli(capsys, "tables", "--outdir", str(outdir))
        assert code == 0 and out.count("wrote ") == 4
        for path in sorted(outdir.iterdir()):
            assert path.read_text() == (GOLDEN / path.name).read_text()
            path.unlink()
    assert not cli._answers


def test_an_answer_over_the_size_bound_is_not_kept(capsys):
    argv = ["matrix", "300", "--format", "json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and len(out) > cli._ANSWER_MAX_CHARS
    assert not cli._answers
    assert run_cli(capsys, *argv) == (code, out, "")


def test_a_handler_failure_is_computed_again(capsys, monkeypatch):
    # An out-of-memory failure need not repeat, so the next call computes.
    build, calls = cli.matrices.build_as_matrix, []

    def fail_once(n):
        calls.append(n)
        if len(calls) == 1:
            raise MemoryError()
        return build(n)

    monkeypatch.setattr(cli.matrices, "build_as_matrix", fail_once)
    assert run_cli(capsys, "matrix", "4") == (4, "", "error: out of memory\n")
    code, out, _ = run_cli(capsys, "matrix", "4")
    assert (code, out.splitlines()[0].split()) == (0, ["c1", "c2", "c3", "c4"])
    assert calls == [4, 4]


def test_an_anomaly_exit_code_is_answered_from_memory(capsys, monkeypatch):
    first = run_cli(capsys, "verify-directions", "2")
    assert first[0] == 3 and first[1]

    def unreachable(n):
        raise AssertionError("the kept answer was computed again")

    monkeypatch.setattr(cli.catalog, "catalog_directions", unreachable)
    assert run_cli(capsys, "verify-directions", "2") == first


class FullStream:
    def write(self, text):
        raise OSError(28, "No space left on device")


def test_a_failed_write_exits_2_on_a_hit_and_keeps_nothing_on_a_miss(capsys, monkeypatch):
    kept = run_cli(capsys, "matrix", "4")
    message = "error: [Errno 28] No space left on device\n"
    monkeypatch.setattr(sys, "stdout", FullStream())
    for argv in (["matrix", "4"], ["matrix", "6"]):  # a hit, then a miss
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == message
    assert list(cli._answers) == [("matrix", "4")]
    monkeypatch.undo()
    assert run_cli(capsys, "matrix", "4") == kept


def help_entry(capsys, command, option):
    """The help text of command's option, with its whitespace collapsed."""
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    (entry,) = re.findall(rf"\n  {option}\b[^\n]*?(?:  |\n)(.*?)(?=\n  -|\Z)", out, re.S)
    return " ".join(entry.split())


def test_shared_options_match_across_commands(capsys):
    # Each option that two commands share is defined once, so its help text,
    # type and default cannot drift apart between them.
    lhs = help_entry(capsys, "lhs", "--directions")
    assert lhs == help_entry(capsys, "thresholds", "--directions")
    assert "{n, bob, alice?, notes?}" in lhs
    parser = cli.build_parser()
    for given, expected in [([], (DEFAULT_RESTARTS, 0)), (["--restarts", "3", "--seed", "7"], (3, 7))]:
        for command in ("thresholds", "seesaw"):
            args = parser.parse_args([command, "4", *given])
            assert (args.restarts, args.seed) == expected


# The values a shared catalog entry computes on first use and then keeps.
CACHED = ("oracle_bound", "report", "steering_bound")
# Every catalog-backed command; each runs as "<command> n <flags>".
CATALOG_COMMANDS = [
    ["lhs"],
    ["lhs", "--oracle"],
    ["thresholds"],
    ["thresholds", "--quantum-max", "seesaw", "--restarts", "4", "--seed", "3"],
    ["verify-directions"],
]


def cached_values(entries) -> list[list[str]]:
    """The names of the values each entry holds, read without computing any."""
    return [sorted(set(vars(entry)) & set(CACHED)) for entry in entries]


def entries_present() -> int:
    return catalog._catalog_entry.cache_info().currsize


@pytest.mark.parametrize("n", SUPPORTED_SETTINGS)
def test_cached_bound_and_report_are_shared_and_read_only(n):
    entry = catalog_directions(n)
    bound, report, oracle = entry.steering_bound, entry.report, entry.oracle_bound
    shared = catalog_directions(n)
    assert shared.steering_bound is bound and shared.report is report
    assert shared.oracle_bound is oracle
    arrays = [bound.alice_witness, bound.bob_state_direction, bound.column_sums,
              report.witness_alice, report.witness_bob]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0


def test_a_replaced_entry_computes_its_own_bound_and_report():
    # dataclasses.replace builds a new entry from the fields alone, so it
    # takes none of the shared entry's values, even those already computed.
    entry = catalog_directions(4)
    shared = [getattr(entry, name) for name in CACHED]
    other = random_unit_rows(np.random.default_rng(5), 4)
    replaced = dataclasses.replace(entry, bob_directions=other)
    assert cached_values([replaced]) == [[]]
    m = build_as_matrix(4)
    fresh = steering_lhs_bound(m, other)
    assert replaced.steering_bound is not entry.steering_bound
    assert replaced.steering_bound.value == fresh.value != entry.steering_bound.value
    assert np.array_equal(replaced.steering_bound.alice_witness, fresh.alice_witness)
    assert replaced.oracle_bound == steering_lhs_bound_oracle(m, other) != entry.oracle_bound
    report = verify_directions(replaced)
    assert replaced.report is not entry.report
    assert replaced.report.evaluations == report.evaluations != entry.report.evaluations
    assert np.array_equal(replaced.report.witness_bob, report.witness_bob)
    # The shared entry keeps its own values.
    assert catalog_directions(4) is entry
    assert [getattr(entry, name) for name in CACHED] == shared


@pytest.mark.parametrize("fmt", ["pretty", "csv", "json"])
def test_catalog_outputs_warm_equal_cold_and_files_stay_out(tmp_path, capsys, fmt):
    # Each catalog-backed output and exit code is byte-identical on a first
    # call, a second call and a call after the entry cache is cleared, and file
    # requests on other Bob sets between the calls add no entry and no value
    # to one.
    rng = np.random.default_rng(11)
    files = {}
    for n in SUPPORTED_SETTINGS:
        files[n] = tmp_path / f"bob{n}.json"
        files[n].write_text(json.dumps({"n": n, "bob": random_unit_rows(rng, n).tolist()}))

    def run(argv):
        code = cli.main([*argv, "--format", fmt])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    requests = [[command, str(n), *flags] for n in SUPPORTED_SETTINGS
                for command, *flags in CATALOG_COMMANDS]
    catalog._catalog_entry.cache_clear()
    cli._answers.clear()
    present = set()  # the orders whose entries the cache holds
    for argv in [*requests, ["tables"]]:
        orders = SUPPORTED_SETTINGS if argv == ["tables"] else [int(argv[1])]
        file_requests = [[command, str(n), "--directions", str(files[n])]
                         for n in orders for command in ("lhs", "thresholds")]
        first = run(argv)
        present |= set(orders)
        assert entries_present() == len(present)
        entries = [catalog_directions(n) for n in orders]
        filled = cached_values(entries)
        warm_files = [run(request) for request in file_requests]
        assert entries_present() == len(present) and cached_values(entries) == filled
        second = run(argv)
        catalog._catalog_entry.cache_clear()
        cli._answers.clear()
        cold_files = [run(request) for request in file_requests]
        assert entries_present() == 0 and cached_values(entries) == filled
        assert first == second == run(argv)
        present = set(orders)
        assert warm_files == cold_files
        assert {code for code, _, _ in cold_files} == {0}

    # With every entry refilled, refused orders reach none, so the cache's
    # keys are exactly the catalog orders, and each entry holds every value,
    # which later reads return as they are.
    for argv in requests:
        run(argv)
    for argv in (["lhs", "12"], ["thresholds", "3"], ["verify-directions", "12"]):
        assert run(argv)[0] == 2
    assert entries_present() == len(SUPPORTED_SETTINGS)
    hits = catalog._catalog_entry.cache_info().hits
    entries = [catalog_directions(n) for n in SUPPORTED_SETTINGS]
    assert catalog._catalog_entry.cache_info().hits == hits + len(SUPPORTED_SETTINGS)
    assert cached_values(entries) == [list(CACHED)] * len(SUPPORTED_SETTINGS)
    for entry in entries:
        assert all(getattr(entry, name) is vars(entry)[name] for name in CACHED)


def test_lhs_catalog(capsys):
    code, out, _ = run_cli(capsys, "lhs", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    row = dict(zip(doc["tables"][0]["columns"], doc["tables"][0]["rows"][0]))
    assert row["c_lhs"] == pytest.approx(2 * math.sqrt(23 / 3), abs=1e-6)
    assert doc["metadata"]["reference"] == "2*sqrt(23/3)"
    assert doc["witness"] == [-1, -1, -1, -1]
    assert len(doc["bob_state"]) == 3


def test_lhs_10_reports_both_reference_figures(capsys):
    code, out, _ = run_cli(capsys, "lhs", "10", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    note = doc["notes"][0]
    for fragment in ("27.0955", "0.6779", "0.67458", "inconsistent"):
        assert fragment in note
    row = dict(zip(doc["tables"][0]["columns"], doc["tables"][0]["rows"][0]))
    assert row["c_lhs"] == pytest.approx(27.232058090823607, abs=1e-6)
    assert row["c_lhs_reference"] == 27.0955


def test_lhs_oracle_flag(capsys):
    code, out, _ = run_cli(capsys, "lhs", "2", "--oracle", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    row = dict(zip(doc["tables"][0]["columns"], doc["tables"][0]["rows"][0]))
    assert row["oracle_delta"] <= 1e-6


def test_lhs_directions_file(tmp_path, capsys):
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(entry_to_dict(catalog_directions(2))))
    code, out, _ = run_cli(capsys, "lhs", "2", "--directions", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    row = dict(zip(doc["tables"][0]["columns"], doc["tables"][0]["rows"][0]))
    assert row["c_lhs"] == 2.0
    assert row["c_lhs_reference"] is None  # no reference for file-supplied sets
    assert doc["metadata"]["directions_source"] == "file"


def test_lhs_directions_schema_error_names_path(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"n": 4, "bob": [[1, 0, 0], [0, 1, 0], [0, 0, "x"], [0, 0, 1]]}))
    code, _, err = run_cli(capsys, "lhs", "4", "--directions", str(path))
    assert code == 2
    assert "bob[2][2] must be a number" in err
    assert "broken.json" in err


_BOB_WITH = '{"n": 4, "bob": [[0, 0, 1], [1, 0, 0], [%s, 0, 0], [0, 1, 0]]}'


@pytest.mark.parametrize(
    "n, text, fragment",
    [
        pytest.param(4, _BOB_WITH % "NaN", "bob[2]", id="NaN"),
        pytest.param(4, _BOB_WITH % "Infinity", "bob[2]", id="Infinity"),
        pytest.param(4, _BOB_WITH % "1e308", "bob[2]", id="1e308"),
        pytest.param(4, "[" * 5000 + "]" * 5000, "invalid JSON", id="nested"),
        pytest.param(
            2,
            '{"n": 2, "bob": [[1' + "0" * 400 + ', 0, 0], [0, 0, 1]]}',
            "bob[0][0] is too large for a float",
            id="bigint",
        ),
        pytest.param(
            2,
            '{"n": 2, "bob": [[1e308, 1e308, 0], [0, 0, 1]]}',
            "bob[0] must be unit length within 1e-09, got norm inf",
            id="huge",
        ),
    ],
)
def test_lhs_directions_non_finite_exits_2(tmp_path, n, text, fragment):
    path = tmp_path / "nonfinite.json"
    path.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "shimony.cli", "lhs", str(n), "--directions", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {path}: ")
    assert fragment in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr


def test_lhs_oracle_with_warnings_as_errors_on_a_row_whose_squares_underflow(tmp_path):
    # AS_40's last row of m @ bob is (0, 1e-300, 0), whose norm is 0.
    path = tmp_path / "under40.json"
    bob = underflow_bob_set(np.random.default_rng(40), 40)
    path.write_text(json.dumps({"n": 40, "bob": bob.tolist()}))
    argv = ["lhs", "40", "--directions", str(path), "--oracle", "--format", "csv"]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "shimony.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    header, row = [line.split(",") for line in proc.stdout.splitlines() if not line.startswith("#")]
    cells = dict(zip(header, row))
    c_lhs, oracle = float(cells["c_lhs"]), float(cells["c_lhs_oracle"])
    assert abs(c_lhs - oracle) <= 1e-9 * c_lhs
    assert cells["witness"].split()[-1] == "-1"
    m = build_as_matrix(40)
    assert bracketed(steering_lhs_bound_oracle(m, bob), steering_lhs_bound(m, bob))


def test_lhs_directions_wrong_order(tmp_path, capsys):
    path = tmp_path / "two.json"
    path.write_text(json.dumps(entry_to_dict(catalog_directions(2))))
    code, _, err = run_cli(capsys, "lhs", "4", "--directions", str(path))
    assert code == 2
    assert "n=2" in err and "n=4" in err


def test_lhs_directions_missing_file(capsys):
    code, _, err = run_cli(capsys, "lhs", "4", "--directions", "/nonexistent/d.json")
    assert code == 2
    assert "d.json" in err


def test_thresholds_json_schema(capsys):
    code, out, _ = run_cli(capsys, "thresholds", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4
    assert doc["c_lhv"] == 6
    assert doc["c_lhs"] == pytest.approx(2 * math.sqrt(23 / 3), abs=1e-6)
    assert doc["v_lhv"] == pytest.approx(3 * math.sqrt(6) / 10, abs=1e-6)
    assert doc["v_lhs"] == pytest.approx(math.sqrt(23) / (5 * math.sqrt(2)), abs=1e-6)
    assert doc["witness"] == [-1, -1, -1, -1]
    assert len(doc["bob_state"]) == 3
    assert all(isinstance(x, float) for x in doc["bob_state"])


def test_thresholds_csv_json_numeric_parity(capsys):
    code, csv_out, _ = run_cli(capsys, "thresholds", "4", "--format", "csv")
    assert code == 0
    code, json_out, _ = run_cli(capsys, "thresholds", "4", "--format", "json")
    assert code == 0
    lines = [l for l in csv_out.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    cells = lines[1].split(",")
    doc = json.loads(json_out)
    json_row = dict(zip(doc["tables"][0]["columns"], doc["tables"][0]["rows"][0]))
    for name, cell in zip(header, cells):
        if name == "witness":
            continue
        assert float(cell) == json_row[name], name


def test_thresholds_10_emits_quotient_and_references(capsys):
    code, out, _ = run_cli(capsys, "thresholds", "10", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    row = dict(zip(doc["tables"][0]["columns"], doc["tables"][0]["rows"][0]))
    assert row["v_lhs"] == pytest.approx(0.6779823865, abs=1e-6)
    assert row["v_lhs_reference"] == 0.6779
    assert row["v_lhs_from_reference_bound"] == pytest.approx(0.6745825708, abs=1e-6)
    assert doc["notes"]


# The paper's tabulated C_LHS and V_LHS of each catalog order, as (label, value),
# and the tolerance verify-directions checks the order's angles to.
PAPER_FIGURES = {
    2: (("2", 2.0), ("1/sqrt(2)", 1 / math.sqrt(2)), 1e-6),
    4: (
        ("2*sqrt(23/3)", 2 * math.sqrt(23 / 3)),
        ("sqrt(23)/(5*sqrt(2))", math.sqrt(23) / (5 * math.sqrt(2))),
        1e-6,
    ),
    6: (
        ("sqrt(358/3)", math.sqrt(358 / 3)),
        ("sqrt(179)/(14*sqrt(2))", math.sqrt(179) / (14 * math.sqrt(2))),
        1e-6,
    ),
    8: (
        ("sqrt(2*(10444 + sqrt(20305))/65)", math.sqrt(2 * (10444 + math.sqrt(20305)) / 65)),
        ("0.6726 (tabulated decimal)", 0.6726),
        1e-6,
    ),
    10: (
        ("27.0955 (tabulated decimal, inconsistent with the directions)", 27.0955),
        ("0.6779 (tabulated decimal)", 0.6779),
        1e-3,
    ),
}


@pytest.mark.parametrize("n", sorted(PAPER_FIGURES))
def test_paper_figures_pinned(capsys, n):
    (c_label, c_value), (v_label, v_value), tolerance = PAPER_FIGURES[n]
    docs = {}
    for command in ("lhs", "thresholds"):
        code, out, _ = run_cli(capsys, command, str(n), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        table = doc["tables"][0]
        docs[command] = doc["metadata"], dict(zip(table["columns"], table["rows"][0]))
    (lhs_meta, lhs_row), (thresholds_meta, thresholds_row) = docs["lhs"], docs["thresholds"]
    assert lhs_meta["reference"] == thresholds_meta["c_lhs_reference"] == c_label
    assert thresholds_meta["v_lhs_reference"] == v_label
    assert lhs_row["c_lhs_reference"] == round_sig(c_value)
    assert thresholds_row["v_lhs_reference"] == round_sig(v_value)
    assert verify_directions(catalog_directions(n)).tolerance == tolerance


@pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
@pytest.mark.parametrize("quantum_max", ["closed-form", "seesaw"])
def test_thresholds_of_a_set_below_the_maximum(tmp_path, capsys, fmt, quantum_max):
    # This Bob set reaches Q(b) = 8.074378447 < q_max = 8.164965809, so it
    # steers only above C_LHS / Q(b) = 5.722062136 / 8.074378447, whichever
    # quantum maximum v_lhv divides by.
    path = tmp_path / "bob4.json"
    path.write_text(json.dumps({"n": 4, "bob": random_measurement_set(4, 9).tolist()}))
    argv = ["thresholds", "4", "--directions", str(path), "--quantum-max", quantum_max]
    code, out, _ = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0
    note = "the directions reach the quantum value 8.074378, below the quantum maximum 8.164966"
    if fmt == "pretty":
        assert "0.7087" in out.splitlines()[2].split()
        assert f"note: {note}" in out
        return
    if fmt == "csv":
        header, cells, note_line = out.splitlines()
        row = dict(zip(header.split(","), cells.split(",")))
        assert float(row["v_lhs"]) == 0.708669054
        assert note_line.startswith(f"# note: {note}")
        return
    doc = json.loads(out)
    row = dict(zip(doc["tables"][0]["columns"], doc["tables"][0]["rows"][0]))
    assert row["v_lhs"] == doc["v_lhs"] == 0.708669054
    assert row["c_lhs"] == 5.722062136
    assert row["v_lhv"] == pytest.approx(6 / 8.164965809, abs=1e-9)
    assert doc["quantum_value_directions"] == 8.074378447
    assert doc["metadata"]["v_lhs_denominator"] == "quantum_value_directions"
    assert doc["notes"][0].startswith(note)


def test_thresholds_of_the_catalog_set_from_a_file(tmp_path, capsys):
    # The catalog sets reach the maximum within the guard: a file holding the
    # n=10 set gives the golden v_lhs and no denominator note.
    path = tmp_path / "bob10.json"
    path.write_text(json.dumps(entry_to_dict(catalog_directions(10))))
    argv = ["thresholds", "10", "--directions", str(path), "--format", "json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    row = dict(zip(doc["tables"][0]["columns"], doc["tables"][0]["rows"][0]))
    assert row["v_lhs"] == doc["v_lhs"] == 0.6779823865
    assert doc["notes"] == []
    assert "v_lhs_denominator" not in doc["metadata"]
    assert "quantum_value_directions" not in doc


@pytest.mark.parametrize("n", SUPPORTED_SETTINGS)
def test_the_n10_note_divides_by_the_requests_quantum_maximum(n):
    # Only order 10 gets the note on its tabulated figures, and both its
    # quotients divide by the quantum maximum given, here not the closed form.
    _, notes, cells = cli._evaluate(catalog_directions(n), 50.0)
    if n != 10:
        assert notes == []
        return
    (note,) = notes
    quotients = [f"{cells['c_lhs'] / 50:.6f}", f"{cells['v_lhs_from_reference_bound']:.6f}"]
    assert quotients == ["0.544641", "0.541910"]
    assert all(quotient in note for quotient in quotients)


def test_thresholds_seesaw_quantum_max(capsys):
    code, out, _ = run_cli(
        capsys, "thresholds", "2", "--quantum-max", "seesaw",
        "--restarts", "4", "--seed", "0", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    row = dict(zip(doc["tables"][0]["columns"], doc["tables"][0]["rows"][0]))
    assert row["quantum_max"] == pytest.approx(2 * math.sqrt(2), abs=1e-6)


def test_seesaw_command_deterministic(capsys):
    args = ("seesaw", "4", "--restarts", "4", "--seed", "7", "--format", "json")
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    doc = json.loads(out_a)
    row = dict(zip(doc["tables"][0]["columns"], doc["tables"][0]["rows"][0]))
    assert row["value"] == pytest.approx(10 * math.sqrt(2 / 3), abs=1e-6)
    assert row["converged"] is True
    assert len(doc["alice"]) == 4 and len(doc["bob"]) == 4


def test_seesaw_trajectory_table(capsys):
    code, out, _ = run_cli(
        capsys, "seesaw", "2", "--restarts", "2", "--seed", "0",
        "--trajectory", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    names = [t["name"] for t in doc["tables"]]
    assert names == ["seesaw", "trajectory"]
    values = [row[1] for row in doc["tables"][1]["rows"]]
    assert all(b - a >= -1e-9 for a, b in zip(values, values[1:]))


# See-saw outputs pinned byte for byte, as the per-restart loop produced
# them. The JSON documents are pinned by digest; their result row is spelled
# out so that a mismatch shows which number moved.
SEESAW_CSV_PINS = [
    (
        ("seesaw", "10", "--restarts", "128", "--seed", "5", "--format", "csv"),
        "n,value,closed_form,deviation,iterations,converged,restart_index\n"
        "10,40.16632088,40.16632088,7.105427358e-15,16,true,25\n",
    ),
    (
        ("thresholds", "8", "--quantum-max", "seesaw", "--restarts", "64", "--seed", "3",
         "--format", "csv"),
        "n,c_lhv,c_lhs,quantum_max,v_lhv,v_lhs,v_lhs_reference,v_lhs_from_reference_bound,"
        "bob_state_x,bob_state_y,bob_state_z,witness\n"
        "8,20,18.04822226,26.83281573,0.7453559925,0.6726175306,0.6726,0.6726175306,"
        "-0.02477881695,0.70183122,0.7119121778,-1 -1 -1 -1 -1 -1 +1 -1\n",
    ),
]
SEESAW_JSON_PINS = [
    (
        ("seesaw", "6", "--restarts", "8", "--seed", "1", "--trajectory", "--format", "json"),
        [6, 16.16580754, 16.16580754, 1.065814104e-14, 13, True, 3],
        "609e539d97b92946af8a272f63bda264fad8fd2639f91f51c7abea85107b97ad",
    ),
    (
        ("seesaw", "20", "--max-iter", "3", "--restarts", "16", "--format", "json"),
        [20, 146.8119386, 146.8332387, 0.02130019097, 3, False, 8],
        "9cd2e48803249b62e26c2f848961da4efaf6e6d1776cdbfb6ec11991869ef008",
    ),
    # The benchmark's warm see-saw requests, past the serial reference's n = 30.
    (
        ("seesaw", "80", "--restarts", "128", "--seed", "5", "--format", "json"),
        [80, 2186.833327, 2186.833327, 0.0, 21, True, 0],
        "9923da1182668b7bc26e7bf2dc35308598681951f027d7f6799b6b1d0494e6d8",
    ),
    (
        ("seesaw", "40", "--restarts", "128", "--seed", "5", "--format", "json"),
        [40, 560.1666419, 560.1666419, 0.0, 21, True, 2],
        "46c1149d2907d9b79c2a427c2941ea82aff28d5e3e163fb5eb5ac3fbddae87ec",
    ),
]


@pytest.mark.parametrize("argv, expected", SEESAW_CSV_PINS)
def test_seesaw_csv_bytes_pinned(capsys, argv, expected):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("argv, row, digest", SEESAW_JSON_PINS)
def test_seesaw_json_bytes_pinned(capsys, argv, row, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["tables"][0]["rows"][0] == row
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# Catalog outputs whose JSON bytes, key order included, are part of the
# contract; pinned by digest.
JSON_PINS = [
    (("thresholds", "4"), "face313369fc3f7c86d3230551178488c061cc1831c645c992f3073cadf77d39"),
    (("thresholds", "10"), "a102cf62f9ba644dd238d8cdcb46463048a0f18a0f746ff6661203afecadb968"),
    (("lhs", "10"), "b0680bd558741939e3fab2d008fdd933f0a0a8667c9e40ca30903f46392aee73"),
    (("tables",), "11f6096a4b317422f7cf1e24221dd9f0ce377896f0875552879233a82fa9ab8c"),
    (("lhs", "4", "--oracle"), "93058bc6d5564cb72ffb40694da4d3417fc2bc70228796cc5b3a15ae72577ccd"),
    (("bounds", "8", "--bruteforce"),
     "5a0f0038f7f949961e85d91db8e7f1f032251fc4a51adeb3ca8d5a5d953bee5d"),
    (("thresholds", "8", "--quantum-max", "seesaw", "--restarts", "16", "--seed", "3"),
     "2355110803a1389a52e00c3cd899cc9adeccb5a7b114fb20dbd286ec6c009cfe"),
    (("thresholds", "2"), "55ff5234bc813c888bc08e3d41e2b54b1a388badd819dd4c9294279d557013a8"),
    (("matrix", "8"), "8c9d7bb7d465e63192bb1f8e35ad8649bd39813d5f8c793247268246b18a0328"),
    (("lhs", "8", "--oracle"), "f1a13822936769113adf5a8e11af0c86ffb6dc9e509c1712f6d0745f16cdd61f"),
]


@pytest.mark.parametrize("argv, digest", JSON_PINS, ids=[" ".join(a) for a, _ in JSON_PINS])
def test_json_bytes_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# verify-directions JSON bytes, with the exit code (3 where the tabulated
# data carries an anomaly).
VERIFY_JSON_PINS = [
    (2, 3, "b5ed808da450ec3fb2132bdab9f84acc40ab16bc884d8d3269ee41db9b785cda"),
    (4, 3, "9f1b16cb422e765af32d4bddb7bdfb6baa12e240ca669e0869f789a7c93c8d2e"),
    (6, 0, "7d9628aeb29c631ec608e014009e0d9e6ca11ffe68ca5b33bb365cddf3e17abb"),
    (8, 0, "4f9dd1deb613588ddd090b52f9043b2001e85f5817dc992b4b80eb38c0c2c797"),
    (10, 0, "e648936dedb9fdfad0a660d4db65b6ca0f687cec39286b2b2542e8cd2057d2b9"),
]


@pytest.mark.parametrize("n, expected, digest", VERIFY_JSON_PINS)
def test_verify_directions_json_bytes_pinned(capsys, n, expected, digest):
    code, out, _ = run_cli(capsys, "verify-directions", str(n), "--format", "json")
    assert code == expected
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# The same for Bob sets read from a file (no paper figures): n=40 writes
# random_measurement_set(40, 5) and n=10 a coplanar regular 10-gon, whose
# sweep ties 21 candidates (8 sign patterns) and gives some starts two
# flippable rows. The oracle's pins cover its search on sets beyond n=4.
FILE_JSON_PINS = [
    (40, ("lhs",), "63110f89d7586858858eb70d8523a8baa6ab1e36ea8eb41558e898c2c9929d3b"),
    (40, ("thresholds",), "cb9dd50bd101f9e7763a9f8257d97fcac36936ebe6e7bbfd7d35ff025d00b7a3"),
    (40, ("lhs", "--oracle"), "6af619732a2cba5de8eeb8ea7874d82dc038cee8f8c4a242e1ea747bad2ab4c1"),
    (10, ("lhs", "--oracle"), "9c1b6e814ed9a2c08e3a4d9c7a48497308088f3be41b38066a9e02b91e25aa5a"),
]


def _file_bob(n: int) -> np.ndarray:
    return random_measurement_set(40, 5) if n == 40 else regular_polygon_set(n)


@pytest.mark.parametrize(
    "n, argv, digest",
    FILE_JSON_PINS,
    ids=[" ".join(argv) + ("" if n == 40 else f" {n}-gon") + f"-{d}" for n, argv, d in FILE_JSON_PINS],
)
def test_file_directions_json_bytes_pinned(tmp_path, capsys, n, argv, digest):
    code, out, _ = run_with_file_directions(tmp_path, capsys, n, argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def run_with_file_directions(tmp_path, capsys, n, argv):
    """run_cli on `command n flags --directions FILE --format json`, FILE holding _file_bob(n)."""
    path = tmp_path / f"bob{n}.json"
    path.write_text(json.dumps({"n": n, "bob": _file_bob(n).tolist()}))
    command, *flags = argv
    return run_cli(capsys, command, str(n), *flags, "--directions", str(path), "--format", "json")


# Every pinned JSON output, as (n of its directions file or None, argv).
PINNED_JSON_LINES = (
    [(None, (*argv, "--format", "json")) for argv, _ in JSON_PINS]
    + [(None, ("verify-directions", str(n), "--format", "json")) for n, _, _ in VERIFY_JSON_PINS]
    + [(None, argv) for argv, _, _ in SEESAW_JSON_PINS]
    + [(n, argv) for n, argv, _ in FILE_JSON_PINS]
)


@pytest.mark.parametrize(
    "file_n, argv",
    PINNED_JSON_LINES,
    ids=[" ".join(argv) + ("" if n is None else f" --directions {n}") for n, argv in PINNED_JSON_LINES],
)
def test_pinned_json_is_json_dumps_indent_2(tmp_path, capsys, file_n, argv):
    # json's own indent-2 encoding of the parsed output gives the output back,
    # so the writer's whitespace and separators are checked without its help.
    if file_n is None:
        _, out, _ = run_cli(capsys, *argv)
    else:
        _, out, _ = run_with_file_directions(tmp_path, capsys, file_n, argv)
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


@pytest.mark.parametrize("n,expected", [(2, 3), (4, 3), (6, 0), (8, 0), (10, 0)])
def test_verify_directions_exit_codes(capsys, n, expected):
    code, out, _ = run_cli(capsys, "verify-directions", str(n), "--format", "json")
    assert code == expected
    doc = json.loads(out)
    assert doc["metadata"]["passed"] is (expected == 0)
    if n in (2, 4):
        assert doc["anomalies"]
    # Every row of the CSV table carries the order's tolerance: n = 10's
    # angles are tabulated to 4-5 decimal places.
    tolerance = "0.001" if n == 10 else "1e-06"
    code, out, _ = run_cli(capsys, "verify-directions", str(n), "--format", "csv")
    assert code == expected
    header, *rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
    assert rows and {dict(zip(header, row))["tolerance"] for row in rows} == {tolerance}


def test_verify_directions_4_reports_witness(capsys):
    code, out, _ = run_cli(capsys, "verify-directions", "4", "--format", "json")
    assert code == 3
    doc = json.loads(out)
    assert doc["witness_value"] == pytest.approx(10 * math.sqrt(2 / 3), abs=1e-6)
    assert len(doc["witness_alice"]) == 4
    rows = doc["tables"][0]["rows"]
    tabulated = [r for r in rows if r[1] == "tabulated"]
    assert tabulated and tabulated[0][4] == pytest.approx(3.2659863, abs=1e-4)


def test_tables_golden_files(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "tables", "--outdir", str(tmp_path))
    assert code == 0
    for name in ("table1", "table2", "figure2", "figure3"):
        produced = (tmp_path / f"{name}.csv").read_bytes()
        expected = (GOLDEN / f"{name}.csv").read_bytes()
        assert produced == expected, f"{name}.csv deviates from the golden copy"


def test_figure2_shape(tmp_path, capsys):
    run_cli(capsys, "tables", "--outdir", str(tmp_path))
    lines = (tmp_path / "figure2.csv").read_text().splitlines()
    assert lines[0] == "n,c_lhv,c_lhs"
    assert len(lines) == 6  # header + five orders


def test_tables_golden_in_a_fresh_interpreter(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "shimony.cli", "tables", "--outdir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("table1", "table2", "figure2", "figure3"):
        produced = (tmp_path / f"{name}.csv").read_bytes()
        expected = (GOLDEN / f"{name}.csv").read_bytes()
        assert produced == expected, f"{name}.csv deviates from its golden"


def test_tables_stdout_csv_sections(capsys):
    code, out, _ = run_cli(capsys, "tables", "--format", "csv")
    assert code == 0
    for name in ("# table1", "# table2", "# figure2", "# figure3"):
        assert name in out


def test_version_and_bad_command():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense"])
    assert exc.value.code == 2


def _run_fresh(script: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)


def test_no_command_loads_scipy():
    # The package, every command and the oracle run on numpy alone: no scipy
    # module is ever loaded.
    script = """
import sys
def scipy_modules():
    return sorted(k for k in sys.modules if k.startswith("scipy"))
import shimony, shimony.cli
from shimony import cli
assert not scipy_modules(), ("import", scipy_modules())
for argv in (
    ["matrix", "4"],
    ["bounds", "6", "--bruteforce"],
    ["thresholds", "6"],
    ["tables"],
    ["lhs", "4", "--oracle"],
):
    assert cli.main(argv) == 0, argv
    assert not scipy_modules(), (argv, scipy_modules())
"""
    proc = _run_fresh(script)
    assert proc.returncode == 0, proc.stderr
    assert "c_lhs_oracle" in proc.stdout


def test_oracle_runs_with_scipy_blocked():
    script = """
import sys
class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
sys.meta_path.insert(0, RefuseScipy())
from shimony import cli
sys.exit(cli.main(["lhs", "4", "--oracle", "--format", "csv"]))
"""
    proc = _run_fresh(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("n,c_lhs,")
    assert "c_lhs_oracle" in proc.stdout
