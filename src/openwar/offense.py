"""Offensive apportionment: splits each plate appearance's run value among
the hitter and the baserunners through a chain of regressions.

1. Park/platoon adjustment of the raw run values (residual: adjusted
   offensive value).
2. Expected-advancement regression on start state + event type (residual:
   the baserunners' collective share).
3. The baserunner share is divided among individual runners, batter
   included, weighted by empirical advancement probabilities.
4. The hitter's remainder is adjusted for fielding position (residual:
   hitting runs above average).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .events import (
    BATTER_POSITIONS,
    DESTINATIONS,
    EVENT_TYPES,
    HANDS,
)
from .numerics import indicator_ols

__all__ = [
    "BaserunnerCredit",
    "OffenseResult",
    "park_platoon_design",
    "fit_park_platoon",
    "fit_baserunner_expectation",
    "advancement_probabilities",
    "fit_position_adjustment",
    "apportion_offense",
]

#: rank assigned to a runner put out on the bases: strictly below holding,
#: so the cumulative advancement probability stays a CDF
OUT_RANK = -1


def park_platoon_design(data):
    """The `indicator_ols` factors and extra columns of B_i: intercept +
    ballpark indicators + platoon indicator, 1 when the batter has the
    handedness edge (switch hitters always do)."""
    switch = HANDS.index("S")
    platoon = (data.batter_hand == switch) | (data.batter_hand != data.pitcher_hand)
    return [("park_", data.park_ids, data.park)], [("platoon", platoon)]


def fit_park_platoon(data, deltas):
    """Regress run values on B_i; residuals are the adjusted offensive values."""
    factors, extra = park_platoon_design(data)
    return indicator_ols(factors, deltas, extra)


_STATE_LABELS = [f"{o}_{b}" for o in range(4) for b in range(8)]


def fit_baserunner_expectation(data, eps_hat):
    """Regress adjusted values on S_i (intercept + start-state indicators +
    event-type indicators); residuals are the baserunner share, positive
    when the runners beat the expected advancement."""
    state = data.start_outs.astype(np.intp) * 8 + data.start_bases
    return indicator_ols([("state_", _STATE_LABELS, state),
                          ("event_", EVENT_TYPES, data.event)], eps_hat)


def _advancement_rank(start_base, dest):
    """Ordered advancement outcome for a runner (or the batter, base 0)."""
    if dest == "O":
        return OUT_RANK
    end = 4 if dest == "H" else int(dest[0])
    return end - start_base


#: rank of every (start base, destination code); the batter is base 0
_RANKS = np.array([[_advancement_rank(base, dest) for dest in DESTINATIONS]
                   for base in range(4)])


def _outcomes(data):
    """The runners of every plate appearance, on 1B, 2B, 3B and then the
    batter from base 0: the (n, 4) mask of those present, and their player
    codes, events, start bases and advancement ranks in that order."""
    player = np.column_stack([data.runner, data.batter])
    on = player >= 0
    base = np.broadcast_to([1, 2, 3, 0], on.shape)
    rank = _RANKS[base, np.column_stack([data.runner_dest, data.batter_dest])]
    event = np.broadcast_to(data.event[:, None].astype(np.intp), on.shape)
    return on, player[on], event[on], base[on], rank[on]


#: advancement ranks lie in -2 (third base back to first) .. 4 (batter scores)
_MIN_RANK, _N_RANKS = -2, 7


def advancement_probabilities(data):
    """Empirical cumulative advancement probabilities per (event, start
    base), as the (len(EVENT_TYPES), 4, _N_RANKS) array `cdf`.

    cdf[e, b, r + 2] = Pr(K <= r) within the cell of event code e and start
    base b (0 for the batter); sparse cells fall back to pooling over start
    bases, then over everything.
    """
    _, _, event, base, rank = _outcomes(data)
    counts = np.bincount((event * 4 + base) * _N_RANKS + rank - _MIN_RANK,
                         minlength=len(EVENT_TYPES) * 4 * _N_RANKS
                         ).reshape(len(EVENT_TYPES), 4, _N_RANKS)
    pooled = counts.sum(axis=1, keepdims=True)
    pooled = np.where(pooled.any(axis=2, keepdims=True), pooled,
                      counts.sum(axis=(0, 1)))
    counts = np.where(counts.any(axis=2, keepdims=True), counts, pooled)
    # float division of integer counts: each cell is Python's running / total
    running = counts.cumsum(axis=2)
    total = running[..., -1:]
    return np.divide(running, total, where=total > 0,
                     out=np.zeros(running.shape))


def _baserunning(data, eta_hat, cdf):
    """Split each plate appearance's baserunner share among its runners in
    proportion to kappa, read off the `advancement_probabilities` array
    `cdf`: kappa and raa_br as (n, 4) arrays over the runners on 1B-3B and
    then the batter, 0 where a base is empty.

    The batter always runs from base 0, so every plate appearance carries
    at least one credit.  A zero kappa total (possible only in pathological
    cells) falls back to an equal split.
    """
    on, _, event, base, rank = _outcomes(data)
    kappa = np.zeros(on.shape)
    kappa[on] = cdf[event, base, rank - _MIN_RANK]
    # summed left to right, runner by runner; empty bases add 0
    total = kappa[:, 0] + kappa[:, 1] + kappa[:, 2] + kappa[:, 3]
    weights = on / on.sum(axis=1, keepdims=True)
    np.divide(kappa, total[:, None], out=weights, where=total[:, None] > 0.0)
    return kappa, weights * eta_hat[:, None]


def fit_position_adjustment(data, mu_hat):
    """Regress hitter values on position indicators (H_i); residuals are
    the hitting runs above average."""
    return indicator_ols([("pos_", BATTER_POSITIONS, data.batter_position)],
                         mu_hat)


@dataclass(slots=True)
class BaserunnerCredit:
    player_id: str
    start_base: int  # 0 for the batter-as-runner
    kappa: float
    raa_br: float


@dataclass
class OffenseResult:
    data: object  # the SeasonDataset the chain ran on
    deltas: np.ndarray
    eps_hat: np.ndarray  # park/platoon-adjusted values
    eta_hat: np.ndarray  # baserunners' collective share
    mu_hat: np.ndarray  # hitter share before position adjustment
    raa_hit: np.ndarray
    park_fit: object
    state_fit: object
    position_fit: object
    advancement: np.ndarray  # the advancement_probabilities array
    kappa: np.ndarray  # (n, 4): runners on 1B-3B, then the batter; 0 if absent
    raa_br: np.ndarray  # (n, 4), laid out as kappa

    @cached_property
    def runner_credits(self):
        """Per PA, its list of BaserunnerCredit, built from `kappa` and
        `raa_br` on first read.  A read-only view for perfbench's tracer;
        nothing in openwar reads it."""
        on, player, _, base, _ = _outcomes(self.data)
        flat = map(BaserunnerCredit,
                   map(self.data.player_ids.__getitem__, player.tolist()),
                   base.tolist(), self.kappa[on].tolist(),
                   self.raa_br[on].tolist())
        return [list(islice(flat, c)) for c in on.sum(axis=1).tolist()]


def apportion_offense(data, deltas):
    """Run the full offensive chain over a season."""
    deltas = np.asarray(deltas, dtype=float)
    park_fit = fit_park_platoon(data, deltas)
    eps_hat = park_fit.residuals
    state_fit = fit_baserunner_expectation(data, eps_hat)
    eta_hat = state_fit.residuals
    mu_hat = eps_hat - eta_hat
    position_fit = fit_position_adjustment(data, mu_hat)
    raa_hit = position_fit.residuals
    cdf = advancement_probabilities(data)
    kappa, raa_br = _baserunning(data, eta_hat, cdf)
    return OffenseResult(
        data=data, deltas=deltas, eps_hat=eps_hat, eta_hat=eta_hat,
        mu_hat=mu_hat, raa_hit=raa_hit, park_fit=park_fit,
        state_fit=state_fit, position_fit=position_fit, advancement=cdf,
        kappa=kappa, raa_br=raa_br,
    )
