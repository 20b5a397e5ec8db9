"""Defensive apportionment: pitcher vs fielder split and fielding models.

For a ball in play the out probability at its landing coordinates (from
the kernel-smoothed surface) decides how much of -delta the pitcher owns
versus the nine fielders; plate appearances with no ball in play are
charged entirely to the pitcher.  Fielder responsibility within a play is
the normalized output of nine per-position logistic models in the
batted-ball coordinates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .events import FIELDING_POSITIONS
from .numerics import (
    DesignMatrix,
    LogisticFit,
    logistic_fit,
    ols_fit,
    scott_bandwidth,
    smooth_out_probability,
)
from .offense import park_platoon_design

__all__ = [
    "DefenseSplit",
    "FieldingRow",
    "DefenseResult",
    "fit_out_surface",
    "split_responsibility",
    "fit_fielding_models",
    "apportion_fielding",
    "fit_fielding_park_adjustment",
    "fit_pitching_adjustment",
    "apportion_defense",
    "fielding_design_row",
]

#: coordinate scale (feet) for the quadratic fielding design; keeps the
#: squared terms near unit size for the IRLS solver
_COORD_SCALE = 100.0


@dataclass
class DefenseSplit:
    p_hat: float
    delta_p: float  # pitcher share of -delta
    delta_f: float  # fielder share of -delta


@dataclass(slots=True)
class FieldingRow:
    player_id: str
    position: str
    p_model: float  # per-position out probability
    share: float  # normalized responsibility
    value: float  # delta_f * share
    raa_field: float = 0.0
    park_fitted: float = 0.0


def _bip_records(data):
    """(index, pa) pairs for balls in play that carry coordinates."""
    return [(i, pa) for i, pa in enumerate(data.plate_appearances)
            if pa.ball_in_play and pa.bip_location is not None]


def fit_out_surface(data, bandwidth=None):
    """Kernel smoother of P(out | x, y) over all balls in play."""
    bip = _bip_records(data)
    if not bip:
        raise ValueError("no balls in play with coordinates")
    points = np.array([pa.bip_location for _, pa in bip])
    outs = np.array([1.0 if pa.outs_on_play > 0 else 0.0 for _, pa in bip])
    if bandwidth is None:
        bandwidth = scott_bandwidth(points)
    return smooth_out_probability(points, outs, bandwidth)


def _split(delta, p_hat):
    """Pitcher and fielder parts of -delta at out probability p_hat."""
    return -delta * (1.0 - p_hat), -delta * p_hat


def _missing_coordinates(pa):
    return ValueError(
        f"game {pa.game_id} pa {pa.pa_index}: ball in play without coordinates")


def split_responsibility(pa, delta, surface, lenient_rate=None):
    """Split -delta between pitcher and fielders for one plate appearance.

    Non-ball-in-play events give everything to the pitcher.  A ball in
    play without coordinates raises unless `lenient_rate` supplies a
    fallback out probability.
    """
    if not pa.ball_in_play:
        p = 0.0
    elif pa.bip_location is None:
        if lenient_rate is None:
            raise _missing_coordinates(pa)
        p = float(lenient_rate)
    else:
        p = surface(*pa.bip_location)
    delta_p, delta_f = _split(delta, p)
    return DefenseSplit(p_hat=p, delta_p=delta_p, delta_f=delta_f)


def fielding_design_row(x, y):
    """[1, x, y, x^2, y^2, xy] on the scaled coordinate system."""
    xs, ys = x / _COORD_SCALE, y / _COORD_SCALE
    return [1.0, xs, ys, xs * xs, ys * ys, xs * ys]


def _fielding_design(coords):
    """(k, 6) fielding design for k coordinate pairs."""
    coords = np.asarray(coords, dtype=float)
    terms = fielding_design_row(coords[:, 0], coords[:, 1])
    return np.column_stack(np.broadcast_arrays(*terms))


_FIELDING_COLS = ["intercept", "x", "y", "x2", "y2", "xy"]


def fit_fielding_models(data):
    """Nine logistic models: position made at least one out on the play.

    The response for position L is 1 exactly when the record credits L
    with converting the out.  A single-class position gets a constant
    model at its empirical rate.
    """
    bip = _bip_records(data)
    if not bip:
        raise ValueError("no balls in play with coordinates")
    X = DesignMatrix(
        columns=_FIELDING_COLS,
        values=_fielding_design([pa.bip_location for _, pa in bip]))
    uncredited = sum(
        1 for _, pa in bip
        if pa.outs_on_play > 0 and pa.credited_fielder_position is None)
    if uncredited:
        warnings.warn(
            f"{uncredited} out-making balls in play carry no credited fielder; "
            "they count as unconverted for all nine positions")
    models = {}
    for pos in FIELDING_POSITIONS:
        y = np.array([
            1.0 if pa.credited_fielder_position == pos else 0.0
            for _, pa in bip])
        if len(np.unique(y)) < 2:
            models[pos] = LogisticFit(
                coefficients={c: 0.0 for c in _FIELDING_COLS},
                converged=True, iterations=0, constant_rate=float(y.mean()))
        else:
            models[pos] = logistic_fit(X, y)
    return models


def _fielding_shares(coords, models, plays):
    """Per-position out probabilities and normalized shares, each (k, 9),
    at the coordinates of k balls in play: one prediction per model over
    the whole design.  A play whose probabilities all vanish is split
    equally, with a warning naming it."""
    X = _fielding_design(coords)
    probs = np.column_stack([models[pos].predict(X)
                             for pos in FIELDING_POSITIONS])
    total = probs.sum(axis=1)
    vanish = total < 1e-12
    for k in np.flatnonzero(vanish):
        pa = plays[k]
        warnings.warn(
            f"game {pa.game_id} pa {pa.pa_index}: all fielder probabilities "
            "vanish; splitting equally")
    shares = np.full_like(probs, 1.0 / 9.0)
    shares[~vanish] = probs[~vanish] / total[~vanish, None]
    return probs, shares


def _fielding_rows(pa, delta_f, probs, shares):
    return [
        FieldingRow(player_id=pa.fielder_ids[j], position=pos,
                    p_model=float(probs[j]), share=float(shares[j]),
                    value=float(delta_f * shares[j]))
        for j, pos in enumerate(FIELDING_POSITIONS)
    ]


def apportion_fielding(pa, delta_f, models):
    """Normalized per-position responsibility rows for one ball in play."""
    probs, shares = _fielding_shares([pa.bip_location], models, [pa])
    return _fielding_rows(pa, delta_f, probs[0], shares[0])


def fit_fielding_park_adjustment(data, bip_indices, rows_per_pa):
    """Ballpark adjustment over per-(play, fielder) rows; residuals become
    the fielding runs above average."""
    parks = sorted({pa.ballpark_id for pa in data.plate_appearances})
    cols = ["intercept"] + [f"park_{p}" for p in parks]
    park_ix = {p: 1 + j for j, p in enumerate(parks)}
    pas = data.plate_appearances
    flat = np.repeat([park_ix[pas[i].ballpark_id] for i in bip_indices],
                     [len(rows) for rows in rows_per_pa])
    values = np.array([row.value for rows in rows_per_pa for row in rows])
    V = np.zeros((len(flat), len(cols)))
    V[:, 0] = 1.0
    V[np.arange(len(flat)), flat] = 1.0
    fit = ols_fit(DesignMatrix(columns=cols, values=V), values)
    k = 0
    for rows in rows_per_pa:
        for row in rows:
            row.raa_field = float(fit.residuals[k])
            row.park_fitted = float(fit.fitted[k])
            k += 1
    return fit


def fit_pitching_adjustment(data, delta_p):
    """Park/platoon adjustment of pitcher values (same design as the
    offensive adjustment); residuals are pitching runs above average."""
    return ols_fit(park_platoon_design(data), np.asarray(delta_p, dtype=float))


@dataclass
class DefenseResult:
    p_hat: np.ndarray
    delta_p: np.ndarray
    delta_f: np.ndarray
    raa_pitch: np.ndarray
    pitch_fit: object
    fielding_park_fit: object
    surface: object
    fielding_models: dict
    bip_indices: list
    fielding_rows: list  # aligned with bip_indices; 9 FieldingRows per play


def apportion_defense(data, deltas, bandwidth=None):
    """Run the full defensive chain over a season."""
    deltas = np.asarray(deltas, dtype=float)
    surface = fit_out_surface(data, bandwidth=bandwidth)
    models = fit_fielding_models(data)

    pas = data.plate_appearances
    bip_indices = [i for i, pa in enumerate(pas) if pa.ball_in_play]
    plays = [pas[i] for i in bip_indices]
    for pa in plays:
        if pa.bip_location is None:
            raise _missing_coordinates(pa)
    coords = np.array([pa.bip_location for pa in plays], dtype=float)
    p_hat = np.zeros(len(pas))
    p_hat[bip_indices] = surface.evaluate_binned(coords[:, 0], coords[:, 1])
    delta_p, delta_f = _split(deltas, p_hat)

    probs, shares = _fielding_shares(coords, models, plays)
    fielding_rows = [
        _fielding_rows(pa, delta_f[i], probs[k], shares[k])
        for k, (i, pa) in enumerate(zip(bip_indices, plays))]

    park_fit = fit_fielding_park_adjustment(data, bip_indices, fielding_rows)
    pitch_fit = fit_pitching_adjustment(data, delta_p)
    return DefenseResult(
        p_hat=p_hat, delta_p=delta_p, delta_f=delta_f,
        raa_pitch=pitch_fit.residuals, pitch_fit=pitch_fit,
        fielding_park_fit=park_fit, surface=surface, fielding_models=models,
        bip_indices=bip_indices, fielding_rows=fielding_rows,
    )
