"""Bootstrap interval estimates for WAR via plate-appearance resampling.

Each replicate redraws the season's plate appearances with replacement,
carrying every credit of a drawn PA jointly (hitter, runners,
fielders, pitcher), then re-aggregates RAA and re-applies the frozen
replacement rates to the resampled event counts.  Models and the
replacement pool are never refit inside a replicate.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

import numpy as np

from .numerics import empirical_quantiles, replicate_rng
from .valuation import COMPONENTS

__all__ = ["BootstrapConfig", "WarDistribution", "bootstrap_war", "compare_players"]

DEFAULT_PROBS = (0.0, 0.025, 0.25, 0.5, 0.75, 0.975, 1.0)


@dataclass
class BootstrapConfig:
    replicates: int = 3500
    master_seed: int = 0
    probs: tuple = DEFAULT_PROBS

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


def bootstrap_war(ledger, valuations, pool, config, rpw=10.0):
    """Resample the season `config.replicates` times with frozen models.

    Each replicate weights every credit row by the number of times its
    plate appearance was drawn, so a drawn PA carries all of its credits.
    Deterministic: each replicate draws from its own stream derived from
    (master_seed, replicate index).
    """
    table = ledger.credits
    if not table.n_pas:
        raise ValueError("empty ledger")
    players = sorted(valuations)
    column = {pid: j for j, pid in enumerate(players)}
    k = len(COMPONENTS)
    key = np.array([column[pid] for pid in table.player_ids],
                   dtype=np.intp)[table.player] * k + table.component
    size = len(players) * k
    rates = np.array([pool.rates[c] for c in COMPONENTS])
    point = np.array([valuations[p].war for p in players])

    mat = np.empty((config.replicates, len(players)))
    for rep in range(config.replicates):
        rng = replicate_rng(config.master_seed, rep)
        idx = rng.integers(0, table.n_pas, table.n_pas)
        weights = np.bincount(idx, minlength=table.n_pas).astype(float)
        w = weights[table.pa]
        raa = np.bincount(key, weights=table.value * w, minlength=size)
        counts = np.bincount(key, weights=w, minlength=size)
        shadow = counts.reshape(-1, k) @ rates
        mat[rep] = (raa.reshape(-1, k).sum(axis=1) - shadow) / rpw

    quantiles = np.vstack([
        empirical_quantiles(mat[:, j], config.probs)
        for j in range(len(players))])
    names = {p: valuations[p].name for p in players}
    return WarDistribution(players=players, names=names, point=point,
                           replicates=mat, probs=tuple(config.probs),
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
