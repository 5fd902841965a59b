"""The README's library example runs as printed."""

import re
from pathlib import Path

import pytest

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
