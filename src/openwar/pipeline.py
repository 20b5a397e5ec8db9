"""End-to-end orchestration: dataset -> run values -> apportioned ledger.

The SeasonLedger is the joint product of the offensive and defensive
chains: for every plate appearance it holds the run value delta, and its
credit table holds every per-player credit (hitter, each runner, each
fielder, the pitcher).  That table is the single input to valuation and
bootstrap resampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defense import _FIELDING_COLS, apportion_defense
from .events import _IN_PLAY, csv_text
from .offense import apportion_offense
from .run_expectancy import _deltas, estimate_matrix
from .valuation import (
    DEFAULT_CUTOFF_PITCH,
    DEFAULT_CUTOFF_POS,
    DEFAULT_RUNS_PER_WIN,
    CreditTable,
    Valuation,
    value_players,
)

__all__ = ["SeasonLedger", "build_ledger", "run_pipeline", "PipelineResult",
           "credited_players"]


@dataclass
class SeasonLedger:
    data: object
    matrix: object
    deltas: np.ndarray
    offense: object  # OffenseResult
    defense: object  # DefenseResult
    credits: CreditTable

    def __len__(self):
        return len(self.deltas)

    def surface_grid_csv(self):
        """(x, y, out probability) on a 25 ft grid out to 400 ft from home
        plate, for contour plotting."""
        gx, gy = np.meshgrid(np.arange(-400.0, 425.0, 25.0),
                             np.arange(0.0, 425.0, 25.0))
        vals = self.defense.surface.evaluate_binned(gx.ravel(), gy.ravel())
        return csv_text(("x", "y", "p_out"), zip(
            gx.ravel().tolist(), gy.ravel().tolist(), vals.tolist()))

    def fielding_models_csv(self):
        rows = []
        for pos, model in self.defense.fielding_models.items():
            terms = zip(_FIELDING_COLS, model.coefficients.tolist())
            if model.constant_rate is not None:
                terms = [("constant_rate", float(model.constant_rate))]
            rows += [(pos, *term) for term in terms]
        return csv_text(("position", "term", "coefficient"), rows)


def _credit_table(data, offense, defense):
    """The season's CreditTable: hitting, baserunning, fielding and
    pitching blocks, each in plate-appearance order, so every
    (player, component) sum adds in that order.  The columns are built in
    the table's dtypes (the id columns are int32 already).  A game starts
    at each plate appearance whose game differs from the one before."""
    every = np.arange(len(data), dtype=np.int32)
    runners = np.column_stack([data.runner, data.batter])
    on = runners >= 0
    bip = every[defense.bip_indices]
    blocks = [
        (every, data.batter, offense.raa_hit),
        (np.broadcast_to(every[:, None], on.shape)[on], runners[on],
         offense.raa_br[on]),
        (np.repeat(bip, data.fielder.shape[1]), data.fielder[bip].ravel(),
         defense.fielding_park_fit.residuals),
        (every, data.pitcher, defense.raa_pitch),
    ]
    pa, player, values = zip(*blocks)
    return CreditTable.build(
        n_pas=len(data), pa=np.concatenate(pa), player=np.concatenate(player),
        player_ids=data.player_ids,
        component=np.repeat(np.arange(len(blocks), dtype=np.int8),
                            [len(b) for b in player]),
        value=np.concatenate(values),
        game_starts=np.flatnonzero(np.diff(data.game, prepend=-1)))


def credited_players(data):
    """The sorted ids of the players `_credit_table` credits, read off the
    season's columns: every batter, pitcher and runner, and the fielders
    on each ball in play (code -1, no player, marks the spare last slot)."""
    used = np.zeros(len(data.player_ids) + 1, dtype=bool)
    for codes in (data.batter, data.pitcher, data.runner,
                  data.fielder[_IN_PLAY[data.event]]):
        used[codes] = True
    return [data.player_ids[k] for k in np.flatnonzero(used[:-1]).tolist()]


def build_ledger(data, bandwidth=None):
    """Estimate the run matrix, score every PA, and apportion both sides."""
    matrix = estimate_matrix(data)
    deltas = _deltas(data, matrix)
    offense = apportion_offense(data, deltas)
    defense = apportion_defense(data, deltas, bandwidth=bandwidth)
    return SeasonLedger(data=data, matrix=matrix, deltas=deltas,
                        offense=offense, defense=defense,
                        credits=_credit_table(data, offense, defense))


@dataclass
class PipelineResult:
    ledger: SeasonLedger
    valuation: Valuation


def run_pipeline(data, bandwidth=None, cutoff_pos=DEFAULT_CUTOFF_POS,
                 cutoff_pitch=DEFAULT_CUTOFF_PITCH, rpw=DEFAULT_RUNS_PER_WIN):
    ledger = build_ledger(data, bandwidth=bandwidth)
    valuation = value_players(ledger.credits, cutoff_pos=cutoff_pos,
                              cutoff_pitch=cutoff_pitch, rpw=rpw)
    return PipelineResult(ledger=ledger, valuation=valuation)
