"""Defensive split and fielding model tests."""

import dataclasses
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from openwar import events
from openwar.events import (
    FIELDING_POSITIONS,
    SeasonDataset,
    parse_season,
    serialize_season,
    validate_dataset,
)
from openwar.defense import (
    apportion_defense,
    apportion_fielding,
    fielding_design_row,
    fit_fielding_models,
    fit_out_surface,
    split_responsibility,
)
from openwar.numerics import LogisticFit, SmoothedSurface, master_rng
from openwar.pipeline import SeasonLedger
from openwar.simulate import generate_synthetic_season

from fixtures import make_pa, records


def _surface_from(points, outs, bandwidth=(30.0, 30.0)):
    from openwar.numerics import smooth_out_probability
    return smooth_out_probability(np.asarray(points), np.asarray(outs),
                                  bandwidth)


def test_non_bip_events_charge_the_pitcher():
    pa = make_pa("A@B-0001", 0, 1, "top", 0, 0, "Strikeout", "O")
    surface = _surface_from([[0.0, 100.0]], [1.0])
    split = split_responsibility(pa, -0.25, surface)
    assert split.p_hat == 0.0
    assert split.delta_p == pytest.approx(0.25)
    assert split.delta_f == 0.0


def test_bip_split_follows_out_probability():
    pa = make_pa("A@B-0001", 0, 1, "top", 0, 0, "Flyout", "O",
                 bip=(0.0, 100.0))
    surface = _surface_from([[0.0, 100.0], [0.0, 100.0]], [1.0, 0.0])
    split = split_responsibility(pa, -0.25, surface)
    assert split.p_hat == pytest.approx(0.5)
    assert split.delta_p == pytest.approx(0.125)
    assert split.delta_f == pytest.approx(0.125)
    assert split.delta_p + split.delta_f == pytest.approx(0.25)


def test_bip_without_coordinates():
    pa = dataclasses.replace(
        make_pa("A@B-0001", 0, 1, "top", 0, 0, "Flyout", "O",
                bip=(0.0, 100.0)),
        bip_location=None)
    surface = _surface_from([[0.0, 100.0]], [1.0])
    with pytest.raises(ValueError, match="without coordinates"):
        split_responsibility(pa, -0.25, surface)
    split = split_responsibility(pa, -0.25, surface, lenient_rate=0.4)
    assert split.p_hat == pytest.approx(0.4)


def test_fielding_design_row():
    row = fielding_design_row(100.0, 200.0)
    assert row == [1.0, 1.0, 2.0, 1.0, 4.0, 2.0]


def _clustered_dataset(rng, n=40):
    """Outs near the CF spot credited to CF, infield outs to SS,
    plus uncaught singles scattered everywhere."""
    rows = []
    g = "A@B-0001"
    spots = {"CF": (0.0, 295.0), "SS": (-35.0, 125.0)}
    for k in range(n):
        for pos, (sx, sy) in spots.items():
            x = sx + rng.normal(0, 15)
            y = sy + rng.normal(0, 15)
            event = "Flyout" if pos == "CF" else "Groundout"
            rows.append(make_pa(g, len(rows), 1, "top", 0, 0, event, "O",
                                bip=(float(x), float(y)), credited=pos))
        rows.append(make_pa(g, len(rows), 1, "top", 0, 0, "Single", "1B",
                            bip=(float(rng.uniform(-150, 150)),
                                 float(rng.uniform(50, 350)))))
    return SeasonDataset.from_records(rows)


def test_fielding_models_localize_responsibility():
    rng = master_rng(3)
    data = _clustered_dataset(rng)
    models = fit_fielding_models(data)
    cf = models["CF"]
    near = np.array([fielding_design_row(0.0, 295.0)])
    far = np.array([fielding_design_row(-35.0, 125.0)])
    assert cf.predict(near)[0] > cf.predict(far)[0]
    ss = models["SS"]
    assert ss.predict(far)[0] > ss.predict(near)[0]


def test_single_class_position_gets_constant_model():
    rng = master_rng(4)
    data = _clustered_dataset(rng)
    models = fit_fielding_models(data)
    # no play in this dataset credits the catcher
    assert models["C"].constant_rate == 0.0
    assert np.all(models["C"].predict(np.ones((3, 6))) == 0.0)


def test_fielding_shares_sum_to_one():
    rng = master_rng(5)
    data = _clustered_dataset(rng)
    models = fit_fielding_models(data)
    for pa in records(data):
        rows = apportion_fielding(pa, -0.2, models)
        assert len(rows) == 9
        assert [r.position for r in rows] == list(FIELDING_POSITIONS)
        assert sum(r.share for r in rows) == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= r.share <= 1.0 for r in rows)
        assert sum(r.value for r in rows) == pytest.approx(-0.2)


def test_vanishing_fielder_probabilities_split_equally():
    pa = make_pa("A@B-0001", 7, 1, "top", 0, 0, "Flyout", "O",
                 bip=(0.0, 300.0))
    zero = LogisticFit(coefficients={}, converged=True, iterations=0,
                       constant_rate=0.0)
    models = {pos: zero for pos in FIELDING_POSITIONS}
    with pytest.warns(UserWarning, match="pa 7: all fielder probabilities"):
        rows = apportion_fielding(pa, -0.18, models)
    assert [r.share for r in rows] == [1.0 / 9.0] * 9
    assert sum(r.value for r in rows) == pytest.approx(-0.18)


def test_out_surface_tracks_conversion_rate():
    rng = master_rng(6)
    data = _clustered_dataset(rng)
    surface = fit_out_surface(data)
    # outs cluster at the CF spot; singles dilute everywhere else
    assert surface(0.0, 295.0) > surface(100.0, 80.0)
    assert 0.0 <= surface(0.0, 295.0) <= 1.0


def test_defense_chain_identities(pipeline):
    """Pitcher + fielder credits and fitted means reconstruct -delta."""
    ledger = pipeline.ledger
    dfn = ledger.defense
    n = len(ledger.deltas)
    field_sum = np.zeros(n)
    for i, rows in zip(dfn.bip_indices, dfn.fielding_rows):
        field_sum[i] = sum(r.raa_field + r.park_fitted for r in rows)
    recon = dfn.raa_pitch + dfn.pitch_fit.fitted + field_sum
    assert np.max(np.abs(recon + ledger.deltas)) < 1e-10
    assert abs(dfn.raa_pitch.sum()) < 1e-8
    total_field = sum(r.raa_field for rows in dfn.fielding_rows for r in rows)
    assert abs(total_field) < 1e-8


def test_out_probabilities_are_probabilities(pipeline, season_records):
    dfn = pipeline.ledger.defense
    assert np.all(dfn.p_hat >= 0.0) and np.all(dfn.p_hat <= 1.0)
    # non-BIP events have the whole value on the pitcher
    for i, pa in enumerate(season_records):
        if not pa.ball_in_play:
            assert dfn.delta_f[i] == 0.0
            assert dfn.delta_p[i] == -pipeline.ledger.deltas[i]


@pytest.fixture(scope="module")
def surface_100g():
    return fit_out_surface(generate_synthetic_season(100, 17, teams=30))


def test_binned_surface_matches_exact_at_balls_in_play(surface_100g):
    pts = surface_100g.points
    binned = surface_100g.evaluate_binned(pts[:, 0], pts[:, 1])
    exact = surface_100g.evaluate(pts[:, 0], pts[:, 1])
    assert np.max(np.abs(binned - exact)) <= 1e-3


def test_binned_surface_matches_exact_on_contour_grid(surface_100g):
    ledger = SeasonLedger(data=None, matrix=None, deltas=None, offense=None,
                          defense=SimpleNamespace(surface=surface_100g),
                          credits=None)
    rows = np.array([[float(c) for c in line.split(",")]
                     for line in ledger.surface_grid_csv().splitlines()[1:]])
    exact = surface_100g.evaluate(rows[:, 0], rows[:, 1])
    assert np.max(np.abs(rows[:, 2] - exact)) <= 5e-3


def _counted(calls, name, fn):
    """`fn`, counting its calls in calls[name]."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_defense_chain_avoids_per_play_work(season, monkeypatch):
    """Guard against the quadratic smoother and per-row predictions."""
    calls = {"evaluate": 0, "predict": 0}
    monkeypatch.setattr(SmoothedSurface, "evaluate",
                        _counted(calls, "evaluate", SmoothedSurface.evaluate))
    monkeypatch.setattr(LogisticFit, "predict",
                        _counted(calls, "predict", LogisticFit.predict))
    deltas = np.zeros(len(season))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        apportion_defense(season, deltas)
    assert calls["evaluate"] == 0
    assert calls["predict"] <= 9


def test_clean_season_parses_without_per_row_work(season, monkeypatch):
    """Guard against per-record parsing: a clean season is checked with
    array operations only, so no record is checked or viewed one by one."""
    calls = {"check": 0, "view": 0}
    monkeypatch.setattr(events, "_check_record",
                        _counted(calls, "check", events._check_record))
    # every row view, of a CSV row or of a coded record, is built by _view
    monkeypatch.setattr(events, "_view", _counted(calls, "view", events._view))
    data, report = parse_season(serialize_season(season))
    assert validate_dataset(data).ok and report.ok and not report.warnings
    assert len(data) == len(season)
    assert calls == {"check": 0, "view": 0}


def test_unconverged_fielding_fits_are_reported(season):
    with pytest.warns(UserWarning, match="stopped separated or unconverged") \
            as caught:
        models = fit_fielding_models(season)
    stopped = [pos for pos, m in models.items()
               if m.separated or not m.converged]
    assert stopped  # true of every synthetic season tried so far
    messages = [str(w.message) for w in caught
                if "stopped separated" in str(w.message)]
    assert len(messages) == 1
    named = messages[0].split("fielding models for ")[1].split(" stopped")[0]
    assert named.split(", ") == stopped


def test_defense_chain_rejects_bip_without_coordinates(season_records):
    pas = list(season_records)
    k = next(i for i, pa in enumerate(pas) if pa.ball_in_play)
    pas[k] = dataclasses.replace(pas[k], bip_location=None)
    data = SeasonDataset.from_records(pas)
    with pytest.raises(ValueError, match="ball in play without coordinates"):
        apportion_defense(data, np.zeros(len(pas)))
