"""The README's library example and command block run as printed."""

import re
import shlex
from pathlib import Path

import pytest

from helpers import pretty_cells
from shimony import cli

README = Path(__file__).parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    # A renamed function or field fails here rather than for the reader.
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(block, {})
    visibilities, fixed_bob, report = capsys.readouterr().out.splitlines()
    v_lhv, v_lhs = map(float, visibilities.split())
    assert (round(v_lhv, 4), round(v_lhs, 4)) == (0.7423, 0.6757)
    assert float(fixed_bob.split()[0]) == pytest.approx(v_lhs, rel=1e-9)
    assert report.startswith("False (") and "the tabulated x signs are flipped" in report


def test_readme_command_block_runs(capsys, tmp_path):
    # Every command the README prints exits as its comment says (0 unless it
    # names another code), and the thresholds excerpt shows the cells that
    # command prints.
    text = README.read_text()
    section = text[text.index("## Command line") :]
    (block,) = re.findall(r"```sh\n(.*?)```", section[: section.index("\n## ", 1)], re.S)
    lines = block.splitlines()
    assert len(lines) == 7
    for line in lines:
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        assert program == "shimony"
        if argv[0] == "tables":
            argv[argv.index("--outdir") + 1] = str(tmp_path / "out")
        expected = re.search(r"exit (\d)", comment)
        assert cli.main(argv) == (int(expected[1]) if expected else 0), line
        capsys.readouterr()
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "figure2.csv", "figure3.csv", "table1.csv", "table2.csv"
    ]

    (excerpt,) = re.findall(r"```text\n\$ shimony thresholds 6\n(.*?)```", text, re.S)
    shown = pretty_cells(excerpt.splitlines())
    assert shown == {
        "n": "6", "c_lhv": "12", "c_lhs": "10.9240", "quantum_max": "16.1658",
        "v_lhv": "0.7423", "v_lhs": "0.6757", "bob_state_z": "0.7060",
        "witness": "-1 -1 -1 -1 -1 -1",
    }
    assert cli.main(["thresholds", "6"]) == 0
    printed = pretty_cells(capsys.readouterr().out.splitlines())
    assert {column: printed[column] for column in shown} == shown
