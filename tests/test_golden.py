"""Golden fixture: pins `openwar war` and `openwar boot` on one small season.

`golden_war_boot.csv` holds one row per player of a 60-game, 4-team
synthetic season (`simulate --seed 23`): the tier, PA, BF, per-component
RAA, replacement shadow and WAR that `war` writes to valuation.csv, and
the quantiles that `boot` (200 replicates, `--seed 3`) writes to
war_quantiles.csv, both at cutoffs 40/18.  The file was made once by
running exactly the commands in `outputs` below and joining the two CSVs
on player_id, keeping every field as written (floats are repr strings).

Floats are compared at 1e-9 absolute, not by digest, so BLAS rounding on
another machine does not trip the test.  A change that moves a number
further than that must say so in CHANGES.md; replace the file the same
way, by hand.
"""

import csv
from pathlib import Path

import pytest

from openwar.cli import EXIT_OK, main

GOLDEN = Path(__file__).with_name("golden_war_boot.csv")
TOL = 1e-9
EXACT = ("player_id", "tier", "PA", "BF")


def _rows(path):
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    return {row["player_id"]: row for row in csv.DictReader(lines)}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    season = d / "season.csv"
    assert main(["simulate", "--games", "60", "--teams", "4", "--seed", "23",
                 "--out", str(season)]) == EXIT_OK
    common = ["--input", str(season), "--cutoff-pos", "40",
              "--cutoff-pitch", "18"]
    assert main(["war", *common, "--out", str(d / "war")]) == EXIT_OK
    assert main(["boot", *common, "--out", str(d / "boot"),
                 "--replicates", "200", "--seed", "3"]) == EXIT_OK
    valuation = _rows(d / "war" / "valuation.csv")
    quantiles = _rows(d / "boot" / "war_quantiles.csv")
    assert set(valuation) == set(quantiles)
    return {pid: {**valuation[pid], **quantiles[pid]} for pid in valuation}


def test_war_and_boot_match_golden(outputs):
    golden = _rows(GOLDEN)
    assert set(outputs) == set(golden)
    for pid, want in golden.items():
        got = outputs[pid]
        for col, value in want.items():
            if col in EXACT:
                assert got[col] == value, (pid, col)
            else:
                assert abs(float(got[col]) - float(value)) <= TOL, \
                    (pid, col, got[col], value)
