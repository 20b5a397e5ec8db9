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
from itertools import islice

import numpy as np

from .events import (
    BATTER_POSITIONS,
    DESTINATIONS,
    EVENT_TYPES,
    HANDS,
    SeasonDataset,
)
from .numerics import DesignMatrix, ols_fit

__all__ = [
    "BaserunnerCredit",
    "AdvancementTable",
    "OffenseResult",
    "platoon_advantage",
    "park_platoon_design",
    "fit_park_platoon",
    "fit_baserunner_expectation",
    "advancement_probabilities",
    "apportion_baserunning",
    "fit_position_adjustment",
    "apportion_offense",
]

#: rank assigned to a runner put out on the bases: strictly below holding,
#: so the cumulative advancement probability stays a CDF
OUT_RANK = -1


def platoon_advantage(pa):
    """1 when the batter has the handedness edge. Switch hitters always do."""
    return 1.0 if pa.batter_hand == "S" or pa.batter_hand != pa.pitcher_hand else 0.0


def _indicator_design(factors, extra=()):
    """Intercept, one indicator column per level present in each factor,
    then the `extra` (name, values) columns.

    A factor is (prefix, labels, codes): row r is at level codes[r], whose
    column is named prefix + labels[codes[r]]; levels come in label order.
    """
    n = len(factors[0][2])
    names, hot = ["intercept"], []
    for prefix, labels, codes in factors:
        levels = sorted(np.unique(codes).tolist(), key=labels.__getitem__)
        column = np.zeros(max(levels, default=0) + 1, dtype=np.intp)
        column[levels] = len(names) + np.arange(len(levels))
        names += [f"{prefix}{labels[c]}" for c in levels]
        hot.append(column[codes])
    V = np.zeros((n, len(names) + len(extra)))
    V[:, 0] = 1.0
    for cols in hot:
        V[np.arange(n), cols] = 1.0
    for name, values in extra:
        V[:, len(names)] = values
        names.append(name)
    return DesignMatrix(columns=names, values=V)


def park_platoon_design(data):
    """Intercept + ballpark indicators + platoon indicator (B_i)."""
    switch = HANDS.index("S")
    platoon = (data.batter_hand == switch) | (data.batter_hand != data.pitcher_hand)
    return _indicator_design([("park_", data.park_ids, data.park)],
                             [("platoon", platoon)])


def fit_park_platoon(data, deltas):
    """Regress run values on B_i; residuals are the adjusted offensive values."""
    return ols_fit(park_platoon_design(data), deltas)


_STATE_LABELS = [f"{o}_{b}" for o in range(4) for b in range(8)]


def fit_baserunner_expectation(data, eps_hat):
    """Regress adjusted values on S_i (intercept + start-state indicators +
    event-type indicators); residuals are the baserunner share, positive
    when the runners beat the expected advancement."""
    state = data.start_outs.astype(np.intp) * 8 + data.start_bases
    return ols_fit(_indicator_design([("state_", _STATE_LABELS, state),
                                      ("event_", EVENT_TYPES, data.event)]),
                   eps_hat)


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


def _cell(event, base, rank):
    """One integer per (event code, base, rank) outcome cell; ranks lie in
    -2..4.  Sorting these is much faster than sorting rows."""
    return (event * 4 + base) * 16 + rank + 8


def _uncell(c):
    """(event type, base, rank) of a `_cell` code."""
    return EVENT_TYPES[c // 64], c // 16 % 4, c % 16 - 8


@dataclass
class AdvancementTable:
    """Empirical cumulative advancement probabilities per (event, start base).

    kappa(event, base, rank) = Pr(K <= rank) within the cell; sparse cells
    fall back to pooling over start bases, then over everything.
    """

    cells: dict  # (event, base) -> list of (rank, cum_prob)
    pooled: dict  # event -> list of (rank, cum_prob)
    global_cdf: list

    @staticmethod
    def _cdf(counts):
        total = sum(counts.values())
        cdf, running = [], 0
        for rank in sorted(counts):
            running += counts[rank]
            cdf.append((rank, running / total))
        return cdf

    @staticmethod
    def _lookup(cdf, rank):
        prob = 0.0
        for r, c in cdf:
            if r <= rank:
                prob = c
            else:
                break
        return prob

    def kappa(self, event, base, rank):
        cdf = self.cells.get((event, base)) or self.pooled.get(event) \
            or self.global_cdf
        return self._lookup(cdf, rank)


def advancement_probabilities(data):
    _, _, event, base, rank = _outcomes(data)

    def cdfs(label, event, base):
        """The cdf of the ranks within each (event, base) cell, keyed by
        label(event, base)."""
        counts = {}
        cells, sizes = np.unique(_cell(event, base, rank), return_counts=True)
        for c, size in zip(cells.tolist(), sizes.tolist()):
            e, b, r = _uncell(c)
            counts.setdefault(label(e, b), {})[r] = size
        return {k: AdvancementTable._cdf(v) for k, v in counts.items()}

    return AdvancementTable(
        cells=cdfs(lambda e, b: (e, b), event, base),
        pooled=cdfs(lambda e, b: e, event, 0),
        global_cdf=cdfs(lambda e, b: None, 0, 0).get(None, []))


@dataclass(slots=True)
class BaserunnerCredit:
    player_id: str
    start_base: int  # 0 for the batter-as-runner
    kappa: float
    raa_br: float


def apportion_baserunning(pa, eta_hat, table):
    """Split the baserunner share among runners in proportion to kappa.

    The batter always appears as a runner from base 0, so every plate
    appearance carries at least one credit line.  A zero kappa total
    (possible only in pathological cells) falls back to an equal split.
    """
    data = SeasonDataset.from_records([pa])
    return _baserunning(data, np.array([eta_hat], dtype=float), table)[0][0]


def _baserunning(data, eta_hat, table):
    """`apportion_baserunning` over every plate appearance: the credit
    lists, and raa_br as an (n, 4) array (0 where a base is empty)."""
    on, player, event, base, rank = _outcomes(data)
    cells, which = np.unique(_cell(event, base, rank), return_inverse=True)
    kappa = np.zeros(on.shape)
    kappa[on] = np.array([table.kappa(*_uncell(c))
                          for c in cells.tolist()])[which]
    # summed in credit order, as sum() over a list would; empty bases add 0
    total = kappa[:, 0] + kappa[:, 1] + kappa[:, 2] + kappa[:, 3]
    weights = on / on.sum(axis=1, keepdims=True)
    np.divide(kappa, total[:, None], out=weights, where=total[:, None] > 0.0)
    raa_br = weights * eta_hat[:, None]
    flat = map(BaserunnerCredit, map(data.player_ids.__getitem__, player.tolist()),
               base.tolist(), kappa[on].tolist(), raa_br[on].tolist())
    return [list(islice(flat, c)) for c in on.sum(axis=1).tolist()], raa_br


def fit_position_adjustment(data, mu_hat):
    """Regress hitter values on position indicators (H_i); residuals are
    the hitting runs above average."""
    return ols_fit(_indicator_design(
        [("pos_", BATTER_POSITIONS, data.batter_position)]), mu_hat)


@dataclass
class OffenseResult:
    deltas: np.ndarray
    eps_hat: np.ndarray  # park/platoon-adjusted values
    eta_hat: np.ndarray  # baserunners' collective share
    mu_hat: np.ndarray  # hitter share before position adjustment
    raa_hit: np.ndarray
    park_fit: object
    state_fit: object
    position_fit: object
    advancement: AdvancementTable
    runner_credits: list  # per PA: list of BaserunnerCredit
    raa_br: np.ndarray  # (n, 4): runners on 1B-3B, then the batter; 0 if absent


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
    table = advancement_probabilities(data)
    credits, raa_br = _baserunning(data, eta_hat, table)
    return OffenseResult(
        deltas=deltas, eps_hat=eps_hat, eta_hat=eta_hat, mu_hat=mu_hat,
        raa_hit=raa_hit, park_fit=park_fit, state_fit=state_fit,
        position_fit=position_fit, advancement=table, runner_credits=credits,
        raa_br=raa_br,
    )

