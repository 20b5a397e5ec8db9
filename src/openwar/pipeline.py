"""End-to-end orchestration: dataset -> run values -> apportioned ledger.

The SeasonLedger is the joint product of the offensive and defensive
chains: for every plate appearance it holds the run value delta and every
per-player credit line (hitter, each runner, each fielder, the pitcher).
It is the single input to valuation and bootstrap resampling.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .defense import apportion_defense
from .offense import apportion_offense
from .run_expectancy import estimate_matrix, run_value
from .valuation import value_players

__all__ = ["SeasonLedger", "build_ledger", "run_pipeline", "PipelineResult"]


@dataclass
class SeasonLedger:
    data: object
    matrix: object
    deltas: np.ndarray
    offense: object  # OffenseResult
    defense: object  # DefenseResult

    def __len__(self):
        return len(self.deltas)

    def credit_lines(self):
        """Yield every (player_id, component, raa) credit line."""
        off, dfn = self.offense, self.defense
        pas = self.data.plate_appearances
        rows_by_index = dict(zip(dfn.bip_indices, dfn.fielding_rows))
        for i, pa in enumerate(pas):
            yield pa.batter_id, "hit", float(off.raa_hit[i])
            for credit in off.runner_credits[i]:
                yield credit.player_id, "br", credit.raa_br
            for row in rows_by_index.get(i, ()):
                yield row.player_id, "field", row.raa_field
            yield pa.pitcher_id, "pitch", float(dfn.raa_pitch[i])

    def pa_bundles(self):
        """Per-plate-appearance credit bundles, for joint resampling."""
        off, dfn = self.offense, self.defense
        pas = self.data.plate_appearances
        rows_by_index = dict(zip(dfn.bip_indices, dfn.fielding_rows))
        bundles = []
        for i, pa in enumerate(pas):
            bundle = [(pa.batter_id, "hit", float(off.raa_hit[i]))]
            bundle.extend(
                (c.player_id, "br", c.raa_br) for c in off.runner_credits[i])
            bundle.extend(
                (r.player_id, "field", r.raa_field)
                for r in rows_by_index.get(i, ()))
            bundle.append((pa.pitcher_id, "pitch", float(dfn.raa_pitch[i])))
            bundles.append(bundle)
        return bundles

    def offense_csv(self):
        """Per-PA offensive ledger keyed by (game_id, pa_index)."""
        out = io.StringIO()
        out.write("game_id,pa_index,row_type,player_id,delta,eps_hat,eta_hat,"
                  "mu_hat,raa_hit,kappa,raa_br\n")
        off = self.offense
        for i, pa in enumerate(self.data.plate_appearances):
            out.write(
                f"{pa.game_id},{pa.pa_index},pa,{pa.batter_id},"
                f"{float(self.deltas[i])!r},{float(off.eps_hat[i])!r},"
                f"{float(off.eta_hat[i])!r},{float(off.mu_hat[i])!r},"
                f"{float(off.raa_hit[i])!r},,\n")
            for c in off.runner_credits[i]:
                out.write(
                    f"{pa.game_id},{pa.pa_index},runner,{c.player_id},,,,,,"
                    f"{c.kappa!r},{c.raa_br!r}\n")
        return out.getvalue()

    def surface_grid_csv(self, step=25.0, extent=400.0):
        """(x, y, out probability) grid for contour plotting."""
        xs = np.arange(-extent, extent + step, step)
        ys = np.arange(0.0, extent + step, step)
        gx, gy = np.meshgrid(xs, ys)
        vals = self.defense.surface.evaluate_binned(gx.ravel(), gy.ravel())
        out = io.StringIO()
        out.write("x,y,p_out\n")
        for x, y, v in zip(gx.ravel(), gy.ravel(), vals):
            out.write(f"{float(x)!r},{float(y)!r},{float(v)!r}\n")
        return out.getvalue()

    def fielding_models_csv(self):
        out = io.StringIO()
        out.write("position,term,coefficient\n")
        for pos, model in self.defense.fielding_models.items():
            if model.constant_rate is not None:
                out.write(f"{pos},constant_rate,{float(model.constant_rate)!r}\n")
                continue
            for term, coef in model.coefficients.items():
                out.write(f"{pos},{term},{float(coef)!r}\n")
        return out.getvalue()


def build_ledger(data, bandwidth=None, matrix=None):
    """Estimate the run matrix, score every PA, and apportion both sides."""
    if matrix is None:
        matrix = estimate_matrix(data)
    deltas = np.array([run_value(pa, matrix).delta
                       for pa in data.plate_appearances])
    offense = apportion_offense(data, deltas)
    defense = apportion_defense(data, deltas, bandwidth=bandwidth)
    return SeasonLedger(data=data, matrix=matrix, deltas=deltas,
                        offense=offense, defense=defense)


@dataclass
class PipelineResult:
    ledger: SeasonLedger
    valuations: dict
    pool: object


def run_pipeline(data, bandwidth=None, cutoff_pos=390, cutoff_pitch=360,
                 rpw=10.0):
    ledger = build_ledger(data, bandwidth=bandwidth)
    valuations, pool = value_players(
        ledger, data.roster, cutoff_pos=cutoff_pos,
        cutoff_pitch=cutoff_pitch, rpw=rpw)
    return PipelineResult(ledger=ledger, valuations=valuations, pool=pool)
