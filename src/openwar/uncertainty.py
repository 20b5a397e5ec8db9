"""Bootstrap interval estimates for WAR via plate-appearance resampling.

Each replicate redraws the season's plate appearances with replacement,
carrying every credit of a drawn PA jointly (hitter, runners,
fielders, pitcher), then re-aggregates RAA and re-applies the frozen
replacement rates to the resampled event counts.  Models and the
replacement pool are never refit inside a replicate.

Because the rates and runs-per-win are frozen, a credit's contribution
to WAR is linear in its PA's draw count: WAR = Σ worth · w[pa] with
worth = (value − rate[component]) / rpw.  The credits are therefore
folded to that worth once and summed per (player, PA), and each
replicate is one gather of the draw counts and one contiguous
per-player reduction.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

import numpy as np

from .numerics import empirical_quantiles, replicate_rng
from .valuation import COMPONENTS, DEFAULT_RUNS_PER_WIN

__all__ = ["BootstrapConfig", "WarDistribution", "bootstrap_war", "compare_players"]

DEFAULT_PROBS = (0.0, 0.025, 0.25, 0.5, 0.75, 0.975, 1.0)
#: element budget of one block of replicate columns: `np.quantile` copies
#: what it is given, and a copy of the whole matrix would raise the peak
#: memory of a run by the matrix's size
QUANTILE_BLOCK_ELEMENTS = 1 << 18


@dataclass
class BootstrapConfig:
    replicates: int = 3500
    master_seed: int = 0

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")


@dataclass
class WarDistribution:
    players: list  # sorted player ids
    names: dict
    point: np.ndarray  # point-estimate WAR per player
    replicates: np.ndarray  # (replicates, players) WAR matrix
    probs: tuple
    quantiles: np.ndarray  # (players, probs)

    def quantile_csv(self):
        out = io.StringIO()
        labels = ",".join(f"q{100 * p:g}" for p in self.probs)
        out.write(f"player_id,name,{labels}\n")
        for j, pid in enumerate(self.players):
            qs = ",".join(repr(float(q)) for q in self.quantiles[j])
            out.write(f"{pid},{self.names[pid]},{qs}\n")
        return out.getvalue()


def bootstrap_war(ledger, valuations, pool, config, rpw=DEFAULT_RUNS_PER_WIN):
    """Resample the season `config.replicates` times with frozen models.

    Each replicate weights every credit by the number of times its plate
    appearance was drawn, so a drawn PA carries all of its credits.
    Deterministic: each replicate draws from its own stream derived from
    (master_seed, replicate index).  A player in `valuations` without
    credits gets zero WAR in every replicate.
    """
    table = ledger.credits
    n = table.n_pas
    if not n:
        raise ValueError("empty ledger")
    players = sorted(valuations)
    column = {pid: j for j, pid in enumerate(players)}
    code = np.array([column[pid] for pid in table.player_ids],
                    dtype=np.int64)[table.player]
    rates = np.array([pool.rates[c] for c in COMPONENTS])
    worth = (table.value - rates[table.component]) / rpw
    # one row per (player column, PA), sorted by player then PA
    pairs, row = np.unique(code * n + table.pa, return_inverse=True)
    worth = np.bincount(row, weights=worth, minlength=len(pairs))
    pa = pairs % n
    held, starts = np.unique(pairs // n, return_index=True)
    del code, pairs, row
    point = np.array([valuations[p].war for p in players])

    mat = np.zeros((config.replicates, len(players)))
    for rep in range(config.replicates):
        rng = replicate_rng(config.master_seed, rep)
        # float counts: a float x int64 multiply is several times slower
        w = np.bincount(rng.integers(0, n, n), minlength=n).astype(float)
        mat[rep, held] = np.add.reduceat(worth * w[pa], starts)

    step = max(1, QUANTILE_BLOCK_ELEMENTS // config.replicates)
    quantiles = np.vstack([
        empirical_quantiles(mat[:, j:j + step], DEFAULT_PROBS, axis=0).T
        for j in range(0, len(players), step)])
    names = {p: valuations[p].name for p in players}
    return WarDistribution(players=players, names=names, point=point,
                           replicates=mat, probs=DEFAULT_PROBS,
                           quantiles=quantiles)


def compare_players(dist, player_a, player_b):
    """Fraction of joint replicates where player_a strictly beats player_b."""
    try:
        a = dist.players.index(player_a)
        b = dist.players.index(player_b)
    except ValueError as exc:
        raise KeyError(f"player not in distribution: {exc}") from exc
    return float(np.mean(dist.replicates[:, a] > dist.replicates[:, b]))


def comparison_json(dist, pairs):
    payload = [
        {"player_a": a, "player_b": b,
         "pr_a_exceeds_b": compare_players(dist, a, b)}
        for a, b in pairs
    ]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
