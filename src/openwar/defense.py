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
    LogisticFit,
    SmoothedSurface,
    indicator_ols,
    logistic_fit,
    scott_bandwidth,
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


def fit_out_surface(coords, outs, bandwidth=None):
    """Kernel smoother of P(out | x, y) over the balls in play at the (k, 2)
    `coords`, where `outs` marks the plays that made an out."""
    if bandwidth is None:
        bandwidth = scott_bandwidth(coords)
    return SmoothedSurface(coords, outs.astype(float), bandwidth)


def _split(delta, p_hat):
    """Pitcher and fielder parts of -delta at out probability p_hat."""
    return -delta * (1.0 - p_hat), -delta * p_hat


def _fielding_design(coords):
    """(k, 6) fielding design [1, x, y, x^2, y^2, xy] for k coordinate
    pairs, on the scaled coordinate system."""
    xs, ys = (np.asarray(coords, dtype=float) / _COORD_SCALE).T
    return np.column_stack([np.ones(len(xs)), xs, ys, xs * xs, ys * ys,
                            xs * ys])


_FIELDING_COLS = ["intercept", "x", "y", "x2", "y2", "xy"]


def fit_fielding_models(design, outs, credited):
    """Nine logistic models over the (k, 6) fielding `design` of k balls
    in play: position made at least one out on the play.

    `outs` marks the plays that made an out and `credited` holds each
    play's credited position code (-1 for none).  The response for
    position L is 1 exactly when the record credits L with converting the
    out.  A single-class position gets a constant model at its empirical
    rate.
    """
    uncredited = int(np.sum(outs & (credited < 0)))
    if uncredited:
        warnings.warn(
            f"{uncredited} out-making balls in play carry no credited fielder; "
            "they count as unconverted for all nine positions")
    models = {}
    for j, pos in enumerate(FIELDING_POSITIONS):
        y = (credited == j).astype(float)
        if not y.size or y.min() == y.max():
            models[pos] = LogisticFit(
                coefficients=np.zeros(len(_FIELDING_COLS)),
                converged=True, iterations=0, constant_rate=float(y.mean()))
        else:
            models[pos] = logistic_fit(design, y)
    stopped = [pos for pos, m in models.items()
               if m.separated or not m.converged]
    if stopped:
        warnings.warn(
            f"fielding models for {', '.join(stopped)} stopped separated or "
            "unconverged; their last IRLS coefficients are used as they are")
    return models


def _fielding_shares(design, models, name):
    """Per-position out probabilities and normalized shares, each (k, 9),
    over the (k, 6) fielding `design` of k balls in play: one prediction
    per model.  A play whose probabilities all vanish is split equally,
    with a warning naming it (name(k) names play k)."""
    probs = np.column_stack([models[pos].predict(design)
                             for pos in FIELDING_POSITIONS])
    total = probs.sum(axis=1)
    vanish = total < 1e-12
    for k in np.flatnonzero(vanish):
        warnings.warn(f"{name(k)}: all fielder probabilities "
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
    coordinates is rejected before any fit."""
    deltas = np.asarray(deltas, dtype=float)
    bip = np.flatnonzero(_IN_PLAY[data.event])
    missing = np.isnan(data.bip_x[bip])
    if missing.any():
        raise ValueError(f"{_where(data, bip[np.argmax(missing)])}: "
                         "ball in play without coordinates")
    if not len(bip):
        raise ValueError("no balls in play with coordinates")
    coords = np.column_stack([data.bip_x[bip], data.bip_y[bip]])
    outs = _made_out(data)[bip]
    design = _fielding_design(coords)

    surface = fit_out_surface(coords, outs, bandwidth=bandwidth)
    models = fit_fielding_models(design, outs, data.credited[bip])
    p_hat = np.zeros(len(data))
    p_hat[bip] = surface.evaluate_binned(coords[:, 0], coords[:, 1])
    delta_p, delta_f = _split(deltas, p_hat)

    probs, shares = _fielding_shares(design, models,
                                     lambda k: _where(data, bip[k]))
    park_fit = fit_fielding_park_adjustment(data, bip,
                                            delta_f[bip, None] * shares)
    pitch_fit = fit_pitching_adjustment(data, delta_p)
    return DefenseResult(
        data=data, p_hat=p_hat, delta_p=delta_p, delta_f=delta_f,
        raa_pitch=pitch_fit.residuals, pitch_fit=pitch_fit,
        fielding_park_fit=park_fit, surface=surface, fielding_models=models,
        bip_indices=bip, probs=probs, shares=shares,
    )
