"""Defensive split and fielding model tests."""

import warnings
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from openwar import defense, events, numerics, offense
from openwar.events import (
    BALL_IN_PLAY,
    FIELDING_POSITIONS,
    SeasonDataset,
    parse_season,
    serialize_season,
    _where,
)
from openwar.defense import (
    _fielding_design,
    _fielding_shares,
    _made_out,
    _split,
    apportion_defense,
    fit_fielding_models,
    fit_out_surface,
)
from openwar.numerics import (
    BandwidthError,
    LogisticFit,
    SmoothedSurface,
    master_rng,
)
from openwar.pipeline import SeasonLedger, build_ledger, run_pipeline
from openwar.simulate import generate_synthetic_season
from openwar.uncertainty import bootstrap_war

from fixtures import (
    conservation_residuals,
    exact_smoother,
    make_pa,
    openwar_modules,
    records,
)


def _in_play(data):
    """(coords, outs, credited) of the balls in play of `data`: the arrays
    the defensive chain hands to its fits."""
    bip = events._IN_PLAY[data.event]
    return (np.column_stack([data.bip_x[bip], data.bip_y[bip]]),
            _made_out(data)[bip], data.credited[bip])


def _fit_models(data):
    coords, outs, credited = _in_play(data)
    return fit_fielding_models(_fielding_design(coords), outs, credited)


def _surface_from(points, outs, bandwidth=(30.0, 30.0)):
    return SmoothedSurface(points, outs, bandwidth)


def test_non_bip_events_charge_the_pitcher():
    # a play with no ball in play has out probability 0
    delta_p, delta_f = _split(np.array([-0.25]), np.zeros(1))
    assert delta_p.tolist() == [0.25]
    assert delta_f.tolist() == [0.0]


def test_bip_split_follows_out_probability():
    data = SeasonDataset.from_records([
        make_pa("A@B-0001", 0, 1, "top", 0, 0, "Flyout", "O",
                bip=(0.0, 100.0))])
    surface = _surface_from([[0.0, 100.0], [0.0, 100.0]], [1.0, 0.0])
    p_hat = exact_smoother(surface, data.bip_x, data.bip_y)
    assert p_hat.tolist() == pytest.approx([0.5])
    delta_p, delta_f = _split(np.array([-0.25]), p_hat)
    assert delta_p.tolist() == pytest.approx([0.125])
    assert delta_f.tolist() == pytest.approx([0.125])
    assert delta_p + delta_f == pytest.approx([0.25])


def test_bip_without_coordinates():
    """The chain, which must split a ball in play's value by its
    coordinates, rejects one without them, and a season without any."""
    located = make_pa("A@B-0001", 0, 1, "top", 0, 0, "Flyout", "O",
                      bip=(0.0, 100.0), credited="CF")
    bare = {**make_pa("A@B-0001", 1, 1, "top", 1, 0, "Flyout", "O",
                      credited="CF"), "bip_x": "", "bip_y": ""}
    data = SeasonDataset.from_records([located, bare])
    with pytest.raises(ValueError, match="pa 1: ball in play without"):
        apportion_defense(data, np.zeros(2), bandwidth=(30.0, 30.0))
    # with no located ball at all, the bare ball is still the one named
    with pytest.raises(ValueError, match="pa 1: ball in play without"):
        apportion_defense(SeasonDataset.from_records([bare]), np.zeros(1),
                          bandwidth=(30.0, 30.0))
    strikeout = make_pa("A@B-0001", 0, 1, "top", 0, 0, "Strikeout", "O")
    with pytest.raises(ValueError, match="no balls in play"):
        apportion_defense(SeasonDataset.from_records([strikeout]),
                          np.zeros(1), bandwidth=(30.0, 30.0))


def test_too_small_a_bandwidth_is_rejected_before_the_fielding_fits(
        season, monkeypatch):
    """The out-probability surface is evaluated before the nine fielding
    models are fitted, so a bandwidth too small for the grid of the balls
    in play costs no fit."""
    calls = {"logistic_fit": 0}
    monkeypatch.setattr(defense, "logistic_fit", _counted(
        calls, "logistic_fit", defense.logistic_fit))
    with pytest.raises(BandwidthError):
        apportion_defense(season, np.zeros(len(season)),
                          bandwidth=(1e-3, 1e-3))
    assert calls["logistic_fit"] == 0


def test_fielding_design_row():
    design = _fielding_design([[100.0, 200.0], [-50.0, 0.0]])
    assert design.tolist() == [[1.0, 1.0, 2.0, 1.0, 4.0, 2.0],
                               [1.0, -0.5, 0.0, 0.25, 0.0, 0.0]]


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
    models = _fit_models(data)
    cf = models["CF"]
    near = _fielding_design([[0.0, 295.0]])
    far = _fielding_design([[-35.0, 125.0]])
    assert cf.predict(near)[0] > cf.predict(far)[0]
    ss = models["SS"]
    assert ss.predict(far)[0] > ss.predict(near)[0]


def test_single_class_position_gets_constant_model():
    rng = master_rng(4)
    data = _clustered_dataset(rng)
    models = _fit_models(data)
    # no play in this dataset credits the catcher
    assert models["C"].constant_rate == 0.0
    assert np.all(models["C"].predict(np.ones((3, 6))) == 0.0)


def test_fielding_shares_sum_to_one():
    rng = master_rng(5)
    data = _clustered_dataset(rng)
    models = _fit_models(data)
    design = _fielding_design(_in_play(data)[0])
    probs, shares = _fielding_shares(design, models, partial(_where, data))
    assert probs.shape == shares.shape == (len(data), 9)
    assert np.max(np.abs(shares.sum(axis=1) - 1.0)) <= 1e-12
    assert np.all((shares >= 0.0) & (shares <= 1.0))


def test_vanishing_fielder_probabilities_split_equally():
    data = SeasonDataset.from_records([
        make_pa("A@B-0001", 7, 1, "top", 0, 0, "Flyout", "O",
                bip=(0.0, 300.0))])
    zero = LogisticFit(coefficients=np.zeros(6), converged=True,
                       iterations=0, constant_rate=0.0)
    models = {pos: zero for pos in FIELDING_POSITIONS}
    with pytest.warns(UserWarning, match="pa 7: all fielder probabilities"):
        _, shares = _fielding_shares(_fielding_design(_in_play(data)[0]),
                                     models, partial(_where, data))
    assert shares.tolist() == [[1.0 / 9.0] * 9]


def test_out_surface_tracks_conversion_rate():
    rng = master_rng(6)
    data = _clustered_dataset(rng)
    coords, outs, _ = _in_play(data)
    surface = fit_out_surface(coords, outs)
    # outs cluster at the CF spot; singles dilute everywhere else
    cf_spot, elsewhere = exact_smoother(surface, [0.0, 100.0],
                                       [295.0, 80.0])
    assert cf_spot > elsewhere
    assert 0.0 <= cf_spot <= 1.0


def test_defense_chain_identities(pipeline):
    """Pitcher + fielder credits and fitted means reconstruct -delta."""
    dfn = pipeline.ledger.defense
    _, defense = conservation_residuals(pipeline.ledger)
    assert np.max(np.abs(defense)) < 1e-10
    assert abs(dfn.raa_pitch.sum()) < 1e-8
    assert abs(dfn.fielding_park_fit.residuals.sum()) < 1e-8


def test_out_probabilities_are_probabilities(pipeline, season_records):
    data, dfn = pipeline.ledger.data, pipeline.ledger.defense
    bip = dfn.bip_indices
    p_hat = np.zeros(len(data))
    p_hat[bip] = dfn.surface.evaluate_binned(data.bip_x[bip], data.bip_y[bip])
    assert np.all(p_hat >= 0.0) and np.all(p_hat <= 1.0)
    delta_p, delta_f = _split(pipeline.ledger.deltas, p_hat)
    assert np.array_equal(delta_f, dfn.delta_f)
    # non-BIP events have the whole value on the pitcher
    for i, pa in enumerate(season_records):
        if not BALL_IN_PLAY[pa["event_type"]]:
            assert dfn.delta_f[i] == 0.0
            assert delta_p[i] == -pipeline.ledger.deltas[i]


@pytest.fixture(scope="module")
def surface_100g():
    coords, outs, _ = _in_play(generate_synthetic_season(100, 17, teams=30))
    return fit_out_surface(coords, outs)


def test_binned_surface_matches_exact_at_balls_in_play(surface_100g):
    pts = surface_100g.points
    binned = surface_100g.evaluate_binned(pts[:, 0], pts[:, 1])
    exact = exact_smoother(surface_100g, pts[:, 0], pts[:, 1])
    assert np.max(np.abs(binned - exact)) <= 1e-3


def test_binned_surface_matches_exact_on_contour_grid(surface_100g):
    ledger = SeasonLedger(data=None, matrix=None, deltas=None, offense=None,
                          defense=SimpleNamespace(surface=surface_100g),
                          credits=None)
    rows = np.array([[float(c) for c in line.split(",")]
                     for line in ledger.surface_grid_csv().splitlines()[1:]])
    exact = exact_smoother(surface_100g, rows[:, 0], rows[:, 1])
    assert np.max(np.abs(rows[:, 2] - exact)) <= 5e-3


def _counted(calls, name, fn):
    """`fn`, counting its calls in calls[name]."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_defense_chain_avoids_per_play_work(season, monkeypatch):
    """Guard against per-query smoothing and per-row predictions: the
    balls in play are smoothed in one call."""
    calls = {"evaluate_binned": 0, "predict": 0}
    monkeypatch.setattr(SmoothedSurface, "evaluate_binned", _counted(
        calls, "evaluate_binned", SmoothedSurface.evaluate_binned))
    monkeypatch.setattr(LogisticFit, "predict",
                        _counted(calls, "predict", LogisticFit.predict))
    deltas = np.zeros(len(season))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        apportion_defense(season, deltas)
    assert calls["evaluate_binned"] == 1
    assert calls["predict"] <= 9


def test_ledger_builds_no_per_play_objects(season, monkeypatch):
    """Guard against per-play credit objects: both chains keep their
    credits as arrays, so building the ledger constructs no FieldingRow
    and no BaserunnerCredit."""
    calls = {"FieldingRow": 0, "BaserunnerCredit": 0}
    for cls in (defense.FieldingRow, offense.BaserunnerCredit):
        monkeypatch.setattr(cls, "__init__",
                            _counted(calls, cls.__name__, cls.__init__))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        build_ledger(season)
    assert calls == {"FieldingRow": 0, "BaserunnerCredit": 0}


def test_ledger_builds_no_dense_design(season, monkeypatch):
    """Guard against n x p regression designs: the chains fit their
    regressions from counts, so the only dense design building the ledger
    makes is the (balls in play x 6) design of the fielding models, built
    once and handed to all nine logistic fits, and no openwar module binds
    a dense `ols_fit`."""
    designs = []

    def recording(V, y):
        designs.append(V)
        return numerics.logistic_fit(V, y)

    monkeypatch.setattr(defense, "logistic_fit", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        build_ledger(season)
    assert len(designs) == 9
    assert all(V is designs[0] for V in designs)
    assert designs[0].shape == (int(events._IN_PLAY[season.event].sum()), 6)
    assert not [m.__name__ for m in openwar_modules()
                if hasattr(m, "ols_fit")]


def test_bootstrap_scatter_adds_do_not_grow_with_replicates(pipeline,
                                                          monkeypatch):
    """Guard against per-replicate scatter-adds over the credit rows: rates
    are folded and credits summed per (player, PA) once per call, so the
    number of weighted bincounts does not depend on the replicate count."""
    calls = {"weighted": 0}
    bincount = np.bincount

    def counted(x, weights=None, minlength=0):
        calls["weighted"] += weights is not None
        return bincount(x, weights=weights, minlength=minlength)

    monkeypatch.setattr(np, "bincount", counted)
    seen = []
    for replicates in (5, 50):
        calls["weighted"] = 0
        bootstrap_war(pipeline.ledger.credits, pipeline.valuation,
                      replicates, 0)
        seen.append(calls["weighted"])
    assert seen[0] == seen[1]


def test_clean_season_parses_without_per_row_work(season, monkeypatch):
    """Guard against per-record work: a clean season is parsed and checked
    with array operations only, so no record is read field by field or
    checked one by one, and the pipeline builds no row view."""
    calls = {"fields": 0, "problems": 0, "record": 0}
    monkeypatch.setattr(events, "_field_problem", _counted(
        calls, "fields", events._field_problem))
    monkeypatch.setattr(events, "_problems", _counted(
        calls, "problems", events._problems))
    monkeypatch.setattr(SeasonDataset, "record", _counted(
        calls, "record", SeasonDataset.record))
    data, report = parse_season(serialize_season(season))
    assert report.dropped == 0 and report.warnings == []
    assert len(data) == len(season)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_pipeline(data, cutoff_pos=40, cutoff_pitch=18)
    assert calls == {"fields": 0, "problems": 0, "record": 0}


def test_clean_season_reads_only_its_header_with_csv_reader(season,
                                                            monkeypatch):
    """Guard against the csv.reader path: a clean season written by
    serialize_season has no quotes, '\\r' or NUL, so only its header goes
    through csv.reader and every record through the array tokenizer."""
    calls, lines = {"reader": 0}, []
    reader = _counted(calls, "reader", events.csv.reader)
    monkeypatch.setattr(events.csv, "reader", lambda source, *args: reader(
        (lines.append(line) or line for line in source), *args))
    text = serialize_season(season)
    data, report = parse_season(text)
    assert report.dropped == 0 and report.warnings == []
    assert len(data) == len(season)
    assert calls == {"reader": 1}
    assert lines == text.splitlines(keepends=True)[:1]


def test_unconverged_fielding_fits_are_reported(season):
    with pytest.warns(UserWarning, match="stopped separated or unconverged") \
            as caught:
        models = _fit_models(season)
    stopped = [pos for pos, m in models.items()
               if m.separated or not m.converged]
    assert stopped  # true of every synthetic season tried so far
    messages = [str(w.message) for w in caught
                if "stopped separated" in str(w.message)]
    assert len(messages) == 1
    named = messages[0].split("fielding models for ")[1].split(" stopped")[0]
    assert named.split(", ") == stopped


def test_defense_chain_rejects_bip_without_coordinates(season_records,
                                                      monkeypatch):
    """The check runs before the out surface or any fielding model is fit."""
    calls = {"surface": 0, "irls": 0}
    monkeypatch.setattr(defense, "fit_out_surface", _counted(
        calls, "surface", defense.fit_out_surface))
    monkeypatch.setattr(defense, "logistic_fit", _counted(
        calls, "irls", defense.logistic_fit))
    pas = list(season_records)
    k = next(i for i, pa in enumerate(pas) if BALL_IN_PLAY[pa["event_type"]])
    pas[k] = {**pas[k], "bip_x": "", "bip_y": ""}
    data = SeasonDataset.from_records(pas)
    with pytest.raises(ValueError, match="ball in play without coordinates"):
        apportion_defense(data, np.zeros(len(pas)))
    assert calls == {"surface": 0, "irls": 0}


def test_ball_in_play_without_a_fielder_is_rejected():
    """A ball in play with no right fielder has no one to give the right
    fielder's share: the ledger names the play and credits no one (code
    -1 would index the last player in the credit table)."""
    pas = records(generate_synthetic_season(40, 3, teams=4))
    k = next(i for i, pa in enumerate(pas) if BALL_IN_PLAY[pa["event_type"]])
    pas[k] = {**pas[k], "f9": ""}
    data = SeasonDataset.from_records(pas)
    with pytest.raises(ValueError) as raised:
        build_ledger(data)
    assert str(raised.value) == (f"{_where(data, k)}: ball in play without "
                                 "a fielder at every position")
