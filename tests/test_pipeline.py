"""Ledger orchestration tests."""

import numpy as np
import pytest

from openwar.valuation import COMPONENTS


def test_credit_lines_and_bundles_agree(pipeline, season_records):
    """The flat credit table, grouped by plate appearance, holds exactly the
    credit bundles read off the offense and defense chains."""
    ledger = pipeline.ledger
    off, dfn = ledger.offense, ledger.defense
    rows_by_index = dict(zip(dfn.bip_indices, dfn.fielding_rows))
    bundles = []
    for i, pa in enumerate(season_records):
        bundle = [(pa.batter_id, "hit", float(off.raa_hit[i]))]
        bundle += [(c.player_id, "br", c.raa_br) for c in off.runner_credits[i]]
        bundle += [(r.player_id, "field", r.raa_field)
                   for r in rows_by_index.get(i, ())]
        bundle.append((pa.pitcher_id, "pitch", float(dfn.raa_pitch[i])))
        bundles.append(bundle)

    table = ledger.credits
    assert np.all((table.component >= 0) & (table.component < len(COMPONENTS)))
    assert np.all((table.pa >= 0) & (table.pa < table.n_pas))
    from_table = [[] for _ in range(table.n_pas)]
    for p, j, c, v in zip(table.pa.tolist(), table.player.tolist(),
                          table.component.tolist(), table.value.tolist()):
        from_table[p].append((table.player_ids[j], COMPONENTS[c], v))
    assert [sorted(b) for b in from_table] == [sorted(b) for b in bundles]


def test_every_pa_has_hit_and_pitch_lines(pipeline, season_records):
    ledger = pipeline.ledger
    table = ledger.credits
    n = len(ledger.deltas)
    assert table.n_pas == n
    assert len(table.pa) == len(table.player) == len(table.component) \
        == len(table.value)
    assert table.player_ids == sorted(set(table.player_ids))
    assert table.value.dtype == np.float64
    per_pa = {comp: np.bincount(table.pa[table.component == c], minlength=n)
              for c, comp in enumerate(COMPONENTS)}
    bip = np.array([pa.ball_in_play for pa in season_records])
    assert np.all(per_pa["hit"] == 1)
    assert np.all(per_pa["pitch"] == 1)
    assert np.array_equal(per_pa["field"], np.where(bip, 9, 0))
    assert np.all(per_pa["br"] >= 1)  # the batter is always a runner
    # the credits are the league's whole RAA, which conservation puts at 0
    total = sum(v.raa_total for v in pipeline.valuations.values())
    assert float(np.sum(table.value)) == pytest.approx(total, abs=1e-9)
    assert abs(total) < 1e-8 * float(np.sum(np.abs(ledger.deltas)))


def test_surface_grid_csv(pipeline):
    text = pipeline.ledger.surface_grid_csv(step=100.0, extent=300.0)
    lines = text.splitlines()
    assert lines[0] == "x,y,p_out"
    vals = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    assert np.all((vals[:, 2] >= 0.0) & (vals[:, 2] <= 1.0))


def test_fielding_models_csv(pipeline):
    text = pipeline.ledger.fielding_models_csv()
    assert text.splitlines()[0] == "position,term,coefficient"
    assert "np.float64" not in text
    for line in text.splitlines()[1:]:
        pos, term, coef = line.split(",")
        float(coef)  # parses cleanly
