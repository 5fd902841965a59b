"""CLI behavior: formats, exit codes, direction files, golden tables."""

import hashlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import random_unit_rows, regular_polygon_set, underflow_bob_set
from shimony import cli
from shimony.catalog import catalog_directions, entry_to_dict, verify_directions
from shimony.output import OutputDocument, round_sig
from shimony.seesaw import random_measurement_set
from shimony.steering import visibility_lhv_closed_form

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    # pretty: the dashes under each header mark the extent of its column
    spans = [(m.start(), m.end()) for m in re.finditer(r"-+", lines[1])]
    return {lines[0][a:b].strip(): lines[2][a:b].strip() for a, b in spans}


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


def test_main_reuses_one_parser(capsys, monkeypatch):
    # Outputs, refusals and exit codes of a run of main() calls on the cached
    # parser are byte-identical to the same calls each on a fresh parser.
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

    def run(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    cached = [run(argv) for argv in sequence]
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 2, 0, 2, 0, 0, 0, 2, 0]
    assert cached[5][1].startswith("shimony ")


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
    (40, ("lhs", "--oracle"), "9c342d24d6f663a7b8c191f1df30067b8eb5a7241c7293ca1fca52c5ebb017af"),
    (10, ("lhs", "--oracle"), "c9c942a9198327760b699b246ec85bb6f79807786b4acc4421d8e25a413ee2ba"),
]


def _file_bob(n: int) -> np.ndarray:
    return random_measurement_set(40, 5) if n == 40 else regular_polygon_set(n)


@pytest.mark.parametrize(
    "n, argv, digest",
    FILE_JSON_PINS,
    ids=[" ".join(argv) + ("" if n == 40 else f" {n}-gon") + f"-{d}" for n, argv, d in FILE_JSON_PINS],
)
def test_file_directions_json_bytes_pinned(tmp_path, capsys, n, argv, digest):
    path = tmp_path / f"bob{n}.json"
    path.write_text(json.dumps({"n": n, "bob": _file_bob(n).tolist()}))
    command, *flags = argv
    code, out, _ = run_cli(capsys, command, str(n), *flags, "--directions", str(path), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


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
