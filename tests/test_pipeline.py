"""Ledger orchestration tests."""

import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

from openwar import defense, numerics, offense
from openwar.events import BALL_IN_PLAY
from openwar.pipeline import build_ledger
from openwar.simulate import generate_synthetic_season
from openwar.valuation import COMPONENTS

from fixtures import (
    assert_same_fit,
    conservation_residuals,
    dense_design,
    ols_fit,
    openwar_modules,
)


def test_every_exported_name_resolves():
    """Every name in the `__all__` of the package and of each submodule
    exists, so a deleted name cannot stay exported."""
    missing = [f"{m.__name__}.{name}" for m in openwar_modules()
               for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert missing == []


def test_credit_lines_and_bundles_agree(pipeline, season_records):
    """The flat credit table, grouped by plate appearance, holds exactly the
    credit bundles read off the offense and defense chains."""
    ledger = pipeline.ledger
    off, dfn = ledger.offense, ledger.defense
    raa_field = dict(zip(
        dfn.bip_indices.tolist(),
        dfn.fielding_park_fit.residuals.reshape(-1, 9).tolist()))
    bundles = []
    for i, pa in enumerate(season_records):
        bundle = [(pa["batter_id"], "hit", float(off.raa_hit[i]))]
        bundle += [(pid, "br", v) for pid, v in zip(
            [pa[f"runner{b}_id"] for b in (1, 2, 3)] + [pa["batter_id"]],
            off.raa_br[i].tolist()) if pid]
        bundle += [(pid, "field", v) for pid, v in zip(
            [pa[f"f{j}"] for j in range(1, 10)], raa_field.get(i, ()))]
        bundle.append((pa["pitcher_id"], "pitch", float(dfn.raa_pitch[i])))
        bundles.append(bundle)

    table = ledger.credits
    assert np.all((table.component >= 0) & (table.component < len(COMPONENTS)))
    assert np.all((table.pa >= 0) & (table.pa < table.n_pas))
    from_table = [[] for _ in range(table.n_pas)]
    for p, j, c, v in zip(table.pa.tolist(), table.player.tolist(),
                          table.component.tolist(), table.value.tolist()):
        from_table[p].append((table.player_ids[j], COMPONENTS[c], v))
    assert [sorted(b) for b in from_table] == [sorted(b) for b in bundles]


def test_tracer_conservation_reads_the_chains(pipeline):
    """perfbench's traced run measures conservation through the
    `runner_credits` and `fielding_rows` views; it must read the same
    residual as the chains' arrays."""
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = tracer.conservation_residual(pipeline.ledger)
    offense, defense = conservation_residuals(pipeline.ledger)
    ours = max(np.max(np.abs(offense)), np.max(np.abs(defense)))
    assert traced <= 1e-10
    # equal up to the rounding of adding the nine fielders in another order
    assert traced == pytest.approx(ours, rel=0.0, abs=1e-15)


def test_every_pa_has_hit_and_pitch_lines(pipeline, season_records):
    ledger = pipeline.ledger
    table = ledger.credits
    n = len(ledger.deltas)
    assert table.n_pas == n
    assert len(table.pa) == len(table.player) == len(table.component) \
        == len(table.value)
    assert table.player_ids == sorted(set(table.player_ids))
    assert [c.dtype for c in (table.pa, table.player, table.component,
                              table.value)] == \
        [np.int32, np.int32, np.int8, np.float64]
    per_pa = {comp: np.bincount(table.pa[table.component == c], minlength=n)
              for c, comp in enumerate(COMPONENTS)}
    bip = np.array([BALL_IN_PLAY[pa["event_type"]] for pa in season_records])
    assert np.all(per_pa["hit"] == 1)
    assert np.all(per_pa["pitch"] == 1)
    assert np.array_equal(per_pa["field"], np.where(bip, 9, 0))
    assert np.all(per_pa["br"] >= 1)  # the batter is always a runner
    # the credits are the league's whole RAA, which conservation puts at 0
    total = float(pipeline.valuation.raa_total.sum())
    assert float(np.sum(table.value)) == pytest.approx(total, abs=1e-9)
    assert abs(total) < 1e-8 * float(np.sum(np.abs(ledger.deltas)))


def test_surface_grid_csv(pipeline):
    text = pipeline.ledger.surface_grid_csv()
    lines = text.splitlines()
    assert lines[0] == "x,y,p_out"
    vals = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    # a 25 ft grid, x from -400 to 400 ft and y from 0 to 400 ft
    assert len(vals) == 33 * 17
    assert vals[0, :2].tolist() == [-400.0, 0.0]
    assert vals[-1, :2].tolist() == [400.0, 400.0]
    assert np.all((vals[:, 2] >= 0.0) & (vals[:, 2] <= 1.0))


def test_surface_grid_builds_only_touched_kernel_rows(pipeline, monkeypatch):
    """Guard against m x m smoothing kernels: the 33 x 17 contour grid's
    bilinear corners touch at most 66 x nodes and 34 y nodes, and those are
    the only kernel rows `surface_grid_csv` builds."""
    shapes = []
    kernel = numerics._binned_kernel

    def recording(*args):
        k = kernel(*args)
        shapes.append(k.shape)
        return k

    monkeypatch.setattr(numerics, "_binned_kernel", recording)
    pipeline.ledger.surface_grid_csv()
    assert len(shapes) == 2
    assert shapes[0][0] <= 66 and shapes[1][0] <= 34


def test_fielding_models_csv(pipeline):
    text = pipeline.ledger.fielding_models_csv()
    assert text.splitlines()[0] == "position,term,coefficient"
    assert "np.float64" not in text
    for line in text.splitlines()[1:]:
        pos, term, coef = line.split(",")
        float(coef)  # parses cleanly


@pytest.mark.parametrize("games, seed, teams, last_park", [
    (60, 11, 4, "park_PARK_T04"),  # the session season
    (400, 17, 30, "park_PARK_T30"),
])
def test_chain_fits_match_dense_reference(monkeypatch, games, seed, teams,
                                          last_park):
    """The five regressions of the two chains, fitted from counts, agree
    with the dense `ols_fit` on the same designs and drop the same
    collinear columns: each factor's last present level in label order."""
    calls = []

    def recording(factors, y, extra=()):
        fit = numerics.indicator_ols(factors, y, extra)
        calls.append((factors, y, extra, fit))
        return fit

    for module in (offense, defense):
        monkeypatch.setattr(module, "indicator_ols", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        build_ledger(generate_synthetic_season(games, seed, teams=teams))

    assert [fit.dropped for *_, fit in calls] == [
        [last_park], ["state_2_7", "event_Walk"], ["pos_SS"], [last_park],
        [last_park]]
    for factors, y, extra, fit in calls:
        assert_same_fit(fit, ols_fit(dense_design(factors, extra), y))
