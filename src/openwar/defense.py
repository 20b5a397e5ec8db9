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
from functools import cached_property

import numpy as np

from .events import _IN_PLAY, DESTINATIONS, FIELDING_POSITIONS, _where
from .numerics import (
    DesignMatrix,
    LogisticFit,
    indicator_ols,
    logistic_fit,
    scott_bandwidth,
    smooth_out_probability,
)
from .offense import park_platoon_design

__all__ = [
    "FieldingRow",
    "DefenseResult",
    "fit_out_surface",
    "fit_fielding_models",
    "fit_fielding_park_adjustment",
    "fit_pitching_adjustment",
    "apportion_defense",
    "fielding_design_row",
]

#: coordinate scale (feet) for the quadratic fielding design; keeps the
#: squared terms near unit size for the IRLS solver
_COORD_SCALE = 100.0


@dataclass(slots=True)
class FieldingRow:
    player_id: str
    position: str
    p_model: float  # per-position out probability
    share: float  # normalized responsibility
    value: float  # delta_f * share
    raa_field: float
    park_fitted: float


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


def fit_fielding_park_adjustment(data, bip_indices, values):
    """Ballpark adjustment of the (k, 9) per-(play, fielder) values of the
    balls in play at `bip_indices`; its residuals, row by row, are the
    fielding runs above average."""
    park = np.repeat(data.park[bip_indices], values.shape[1])
    return indicator_ols([("park_", data.park_ids, park)], values.ravel())


def fit_pitching_adjustment(data, delta_p):
    """Park/platoon adjustment of pitcher values (same design as the
    offensive adjustment); residuals are pitching runs above average."""
    factors, extra = park_platoon_design(data)
    return indicator_ols(factors, delta_p, extra)


@dataclass
class DefenseResult:
    data: object  # the SeasonDataset the chain ran on
    p_hat: np.ndarray
    delta_p: np.ndarray
    delta_f: np.ndarray
    raa_pitch: np.ndarray
    pitch_fit: object
    fielding_park_fit: object  # residuals and fitted values, 9 per play
    surface: object
    fielding_models: dict
    bip_indices: np.ndarray  # intp: the plate appearances with a ball in play
    probs: np.ndarray  # (k, 9) per-position out probabilities, by bip_indices
    shares: np.ndarray  # (k, 9) normalized responsibility, rows sum to 1

    @cached_property
    def fielding_rows(self):
        """Per ball in play, its nine FieldingRows, built from the arrays
        on first read.  A read-only view for perfbench's tracer; nothing in
        openwar reads it."""
        bip = self.bip_indices
        ids = np.array(self.data.player_ids, dtype=object)
        columns = (ids[self.data.fielder[bip]], self.probs, self.shares,
                   self.delta_f[bip, None] * self.shares,
                   self.fielding_park_fit.residuals.reshape(-1, 9),
                   self.fielding_park_fit.fitted.reshape(-1, 9))
        return [[FieldingRow(pid, pos, *row)
                 for pid, pos, *row in zip(play[0], FIELDING_POSITIONS,
                                           *play[1:])]
                for play in zip(*(c.tolist() for c in columns))]


def apportion_defense(data, deltas, bandwidth=None):
    """Run the full defensive chain over a season.  A ball in play without
    coordinates, which the fits would skip, is rejected before any fit."""
    deltas = np.asarray(deltas, dtype=float)
    bip = np.flatnonzero(_IN_PLAY[data.event])
    missing = np.isnan(data.bip_x[bip])
    if missing.any():
        raise _missing_coordinates(data.record(bip[np.argmax(missing)]))
    coords = np.column_stack([data.bip_x[bip], data.bip_y[bip]])

    surface = fit_out_surface(data, bandwidth=bandwidth)
    models = fit_fielding_models(data)
    p_hat = np.zeros(len(data))
    p_hat[bip] = surface.evaluate_binned(coords[:, 0], coords[:, 1])
    delta_p, delta_f = _split(deltas, p_hat)

    probs, shares = _fielding_shares(coords, models,
                                     lambda k: data.record(bip[k]))
    park_fit = fit_fielding_park_adjustment(data, bip,
                                            delta_f[bip, None] * shares)
    pitch_fit = fit_pitching_adjustment(data, delta_p)
    return DefenseResult(
        data=data, p_hat=p_hat, delta_p=delta_p, delta_f=delta_f,
        raa_pitch=pitch_fit.residuals, pitch_fit=pitch_fit,
        fielding_park_fit=park_fit, surface=surface, fielding_models=models,
        bip_indices=bip, probs=probs, shares=shares,
    )
