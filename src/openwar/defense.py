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
from itertools import chain

import numpy as np

from .events import _IN_PLAY, DESTINATIONS, FIELDING_POSITIONS, _where
from .numerics import (
    DesignMatrix,
    LogisticFit,
    logistic_fit,
    ols_fit,
    scott_bandwidth,
    smooth_out_probability,
)
from .offense import _indicator_design, park_platoon_design

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


def _made_out(data):
    """True where the play put at least one batter or runner out."""
    out = DESTINATIONS.index("O")
    return (data.batter_dest == out) | (data.runner_dest == out).any(axis=1)


def _located(data):
    """Balls in play that carry coordinates: (mask, (k, 2) coordinates)."""
    bip = _IN_PLAY[data.event] & ~np.isnan(data.bip_x)
    if not bip.any():
        raise ValueError("no balls in play with coordinates")
    return bip, np.column_stack([data.bip_x[bip], data.bip_y[bip]])


def fit_out_surface(data, bandwidth=None):
    """Kernel smoother of P(out | x, y) over all balls in play."""
    bip, points = _located(data)
    outs = _made_out(data)[bip].astype(float)
    if bandwidth is None:
        bandwidth = scott_bandwidth(points)
    return smooth_out_probability(points, outs, bandwidth)


def _split(delta, p_hat):
    """Pitcher and fielder parts of -delta at out probability p_hat."""
    return -delta * (1.0 - p_hat), -delta * p_hat


def _missing_coordinates(pa):
    return ValueError(f"{_where(pa)}: ball in play without coordinates")


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
    bip, coords = _located(data)
    X = DesignMatrix(columns=_FIELDING_COLS, values=_fielding_design(coords))
    credited = data.credited[bip]
    uncredited = int(np.sum(_made_out(data)[bip] & (credited < 0)))
    if uncredited:
        warnings.warn(
            f"{uncredited} out-making balls in play carry no credited fielder; "
            "they count as unconverted for all nine positions")
    models = {}
    for j, pos in enumerate(FIELDING_POSITIONS):
        y = (credited == j).astype(float)
        if len(np.unique(y)) < 2:
            models[pos] = LogisticFit(
                coefficients={c: 0.0 for c in _FIELDING_COLS},
                converged=True, iterations=0, constant_rate=float(y.mean()))
        else:
            models[pos] = logistic_fit(X, y)
    stopped = [pos for pos, m in models.items()
               if m.separated or not m.converged]
    if stopped:
        warnings.warn(
            f"fielding models for {', '.join(stopped)} stopped separated or "
            "unconverged; their last IRLS coefficients are used as they are")
    return models


def _fielding_shares(coords, models, play):
    """Per-position out probabilities and normalized shares, each (k, 9),
    at the coordinates of k balls in play: one prediction per model over
    the whole design.  A play whose probabilities all vanish is split
    equally, with a warning naming it (play(k) is its PlateAppearance)."""
    X = _fielding_design(coords)
    probs = np.column_stack([models[pos].predict(X)
                             for pos in FIELDING_POSITIONS])
    total = probs.sum(axis=1)
    vanish = total < 1e-12
    for k in np.flatnonzero(vanish):
        warnings.warn(f"{_where(play(k))}: all fielder probabilities "
                      "vanish; splitting equally")
    shares = np.full_like(probs, 1.0 / 9.0)
    shares[~vanish] = probs[~vanish] / total[~vanish, None]
    return probs, shares


def _fielding_rows(fielder_ids, probs, shares, values):
    """One ball in play's nine FieldingRows from per-position lists."""
    return [FieldingRow(*row) for row in zip(
        fielder_ids, FIELDING_POSITIONS, probs, shares, values)]


def apportion_fielding(pa, delta_f, models):
    """Normalized per-position responsibility rows for one ball in play."""
    probs, shares = _fielding_shares([pa.bip_location], models, lambda k: pa)
    return _fielding_rows(pa.fielder_ids, probs[0].tolist(),
                          shares[0].tolist(), (delta_f * shares[0]).tolist())


def fit_fielding_park_adjustment(data, bip_indices, rows_per_pa):
    """Ballpark adjustment over per-(play, fielder) rows; residuals become
    the fielding runs above average."""
    park = np.repeat(data.park[bip_indices], [len(rows) for rows in rows_per_pa])
    values = np.array([row.value for rows in rows_per_pa for row in rows])
    fit = ols_fit(_indicator_design([("park_", data.park_ids, park)]), values)
    for row, resid, fitted in zip(chain.from_iterable(rows_per_pa),
                                  fit.residuals.tolist(), fit.fitted.tolist()):
        row.raa_field = resid
        row.park_fitted = fitted
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

    bip = np.flatnonzero(_IN_PLAY[data.event])
    missing = np.isnan(data.bip_x[bip])
    if missing.any():
        raise _missing_coordinates(data.record(bip[np.argmax(missing)]))
    coords = np.column_stack([data.bip_x[bip], data.bip_y[bip]])
    p_hat = np.zeros(len(data))
    p_hat[bip] = surface.evaluate_binned(coords[:, 0], coords[:, 1])
    delta_p, delta_f = _split(deltas, p_hat)

    probs, shares = _fielding_shares(coords, models,
                                     lambda k: data.record(bip[k]))
    fielders = np.array(data.player_ids, dtype=object)[data.fielder[bip]]
    fielding_rows = list(map(
        _fielding_rows, fielders.tolist(), probs.tolist(), shares.tolist(),
        (delta_f[bip, None] * shares).tolist()))

    bip_indices = bip.tolist()
    park_fit = fit_fielding_park_adjustment(data, bip_indices, fielding_rows)
    pitch_fit = fit_pitching_adjustment(data, delta_p)
    return DefenseResult(
        p_hat=p_hat, delta_p=delta_p, delta_f=delta_f,
        raa_pitch=pitch_fit.residuals, pitch_fit=pitch_fit,
        fielding_park_fit=park_fit, surface=surface, fielding_models=models,
        bip_indices=bip_indices, fielding_rows=fielding_rows,
    )
