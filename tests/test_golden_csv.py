"""The command-line CSVs against golden files: every label and integer
exactly, every float within 1e-11 relative, the ``# out =`` line aside.

The goldens hold the CSVs ``wetopt`` writes for these three configs, so
the suite checks that a change keeps the printed answers; a change meant
to move a cell regenerates them and says why.  The float tolerance leaves
room for a CPU's last-ulp ``exp``/``log``; it is about the last of the 12
significant digits a cell prints.
"""

import math
from pathlib import Path

import pytest

from wetopt.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
ISM900 = ROOT / "demos" / "config" / "ism900.conf"
# the perfbench optimize-ism-cold shape: 120 of the ISM link's bands, a 10 us block
ISM_COLD = """\
experiment = optimize
m = 10
n = 120
n2 = 16
eta = 0.8
t_s = 1e-05
ps_w = 0.06
beta = 1e-06
n0_j = 1e-19
"""


def same_cell(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        int(want)
        return False  # an integer must match exactly
    except ValueError:
        pass
    try:
        return math.isclose(float(got), float(want), rel_tol=1e-11, abs_tol=0.0)
    except ValueError:
        return False  # a label


def assert_matches_golden(csv_path: Path, name: str) -> None:
    got = [l for l in csv_path.read_text().splitlines() if not l.startswith("# out = ")]
    want = (GOLDEN / name).read_text().splitlines()
    assert len(got) == len(want)
    for i, (line, golden) in enumerate(zip(got, want)):
        if line.startswith("#") or golden.startswith("#"):
            assert line == golden, i
            continue
        cells, golden_cells = line.split(","), golden.split(",")
        assert len(cells) == len(golden_cells), i
        bad = [(c, g) for c, g in zip(cells, golden_cells) if not same_cell(c, g)]
        assert not bad, (i, bad)


@pytest.mark.usefixtures("empty_memo")  # the gains a fresh process fills
@pytest.mark.parametrize(
    "command, experiment, golden",
    [
        ("sweep", None, "ism900_sweep_n1.csv"),
        ("optimize", "optimize", "ism900_optimize.csv"),
        ("optimize", "cold", "optimize_ism_cold.csv"),
    ],
)
def test_csv_matches_golden(tmp_path, command, experiment, golden):
    if experiment is None:
        config = ISM900
    else:
        text = ISM_COLD if experiment == "cold" else ISM900.read_text().replace(
            "experiment = sweep_n1", "experiment = optimize"
        )
        config = tmp_path / "exp.conf"
        config.write_text(text)
    out = tmp_path / golden
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    assert_matches_golden(out, golden)


def test_comparison_catches_a_moved_cell():
    assert same_cell("1.41371380409e-12", "1.41371380409e-12")
    assert same_cell("1.41371380409e-12", "1.413713804090001e-12")
    assert not same_cell("1.41371380409e-12", "1.41371380439e-12")
    assert not same_cell("219", "220")
    assert not same_cell("high_esnr", "medium_esnr")
