"""CLI behavior: formats, exit codes, direction files, golden tables."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shimony import cli
from shimony.catalog import catalog_directions, entry_to_dict

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
        (["thresholds", "26"], "2**26 assignments exceeds the cap of 24"),
        (["thresholds", "30000", "--quantum-max", "seesaw"], "exceeds the cap of 24"),
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
    bob = np.random.default_rng(40).standard_normal((n, 3))
    bob /= np.linalg.norm(bob, axis=1, keepdims=True)
    path = tmp_path / "bob40.json"
    path.write_text(json.dumps({"n": n, "bob": bob.tolist()}))
    argv = ["lhs", str(n), "--directions", str(path), "--oracle", "--format", "json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    row = dict(zip(doc["tables"][0]["columns"], doc["tables"][0]["rows"][0]))
    assert row["oracle_delta"] <= 1e-12 * row["c_lhs"]
    assert len(doc["witness"]) == n and doc["witness"][0] == -1


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


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_lhs_directions_non_finite_exits_2(tmp_path, bad):
    path = tmp_path / "nonfinite.json"
    path.write_text(f'{{"n": 4, "bob": [[0, 0, 1], [1, 0, 0], [{bad}, 0, 0], [0, 1, 0]]}}')
    proc = subprocess.run(
        [sys.executable, "-m", "shimony.cli", "lhs", "4", "--directions", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "bob[2]" in proc.stderr
    assert "Traceback" not in proc.stderr


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


@pytest.mark.parametrize("n,expected", [(2, 3), (4, 3), (6, 0), (8, 0), (10, 0)])
def test_verify_directions_exit_codes(capsys, n, expected):
    code, out, _ = run_cli(capsys, "verify-directions", str(n), "--format", "json")
    assert code == expected
    doc = json.loads(out)
    assert doc["metadata"]["passed"] is (expected == 0)
    if n in (2, 4):
        assert doc["anomalies"]


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


@pytest.mark.parametrize("no_numba", ["0", "1"])
def test_tables_golden_across_backends(tmp_path, no_numba):
    # numpy is the only backend; the former SHIMONY_NO_NUMBA flag, set either
    # way in a fresh interpreter, must leave the output byte-identical.
    outdir = tmp_path / f"backend_{no_numba}"
    env = dict(os.environ, SHIMONY_NO_NUMBA=no_numba)
    proc = subprocess.run(
        [sys.executable, "-m", "shimony.cli", "tables", "--outdir", str(outdir)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("table1", "table2", "figure2", "figure3"):
        produced = (outdir / f"{name}.csv").read_bytes()
        expected = (GOLDEN / f"{name}.csv").read_bytes()
        assert produced == expected, f"{name}.csv deviates under SHIMONY_NO_NUMBA={no_numba}"


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


def test_scipy_loaded_only_by_the_oracle():
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
