"""Bootstrap interval estimates for WAR via plate-appearance resampling.

Each replicate redraws the season's plate appearances with replacement,
carrying every credit of a drawn PA jointly (hitter, runners,
fielders, pitcher), then re-aggregates RAA and re-applies the frozen
replacement rates to the resampled event counts.  Models and the
replacement tier are never refit inside a replicate.

The rates, runs-per-win, point WAR and names all come from one
`Valuation`, whose rows follow the credit table's players.  Because the
rates and runs-per-win are frozen, a credit's contribution to WAR is
linear in its PA's draw count: WAR = Σ worth · w[pa] with
worth = (value − rate[component]) / rpw.  The credits are therefore
folded to that worth once and summed per (player, PA), and each
replicate is one gather of the draw counts and one contiguous
per-player reduction.

Replicates are independent, and row `rep` of the replicate matrix
depends only on (master_seed, rep).  The rows are therefore filled by
one worker process per CPU this process may run on, made with `os.fork`:
worker k of W fills rows k, k + W, ... of one matrix in an anonymous
shared mapping, and the calling process is worker 0.  The matrix is the
same for any worker count.  A worker that fails raises WorkerError in
the caller once every worker has exited.
"""

from __future__ import annotations

import csv
import io
import json
import mmap
from dataclasses import dataclass
from functools import partial

import numpy as np

from .forking import WorkerError, fork_worker, reaped, usable_cpus
from .numerics import empirical_quantiles, replicate_rng

__all__ = ["BootstrapConfig", "WarDistribution", "WorkerError",
           "bootstrap_war", "compare_players"]

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
    names: list  # by players
    point: np.ndarray  # point-estimate WAR per player
    replicates: np.ndarray  # (replicates, players) WAR matrix
    probs: tuple
    quantiles: np.ndarray  # (players, probs)

    def quantile_csv(self):
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["player_id", "name",
                         *(f"q{100 * p:g}" for p in self.probs)])
        writer.writerows(zip(self.players, self.names,
                             *self.quantiles.T.tolist()))
        return out.getvalue()


def bootstrap_war(credits, valuation, config):
    """Resample the season `config.replicates` times with frozen models.

    `valuation` is the Valuation of the CreditTable `credits`; its rates,
    runs per win and point WAR are the ones every replicate uses.  Each
    replicate weights every credit by the number of times its plate
    appearance was drawn, so a drawn PA carries all of its credits.
    Deterministic: each replicate draws from its own stream derived from
    (master_seed, replicate index).
    """
    n = credits.n_pas
    if not n:
        raise ValueError("empty ledger")
    if valuation.player_ids != credits.player_ids:
        raise ValueError("the valuation is not of this credit table")
    worth = (credits.value - valuation.rates[credits.component]) \
        / valuation.rpw
    # one row per (player, PA), sorted by player then PA; the int32 codes
    # are widened first, since player code x n can pass 2**31
    pairs, row = np.unique(credits.player.astype(np.int64) * n + credits.pa,
                           return_inverse=True)
    worth = np.bincount(row, weights=worth, minlength=len(pairs))
    pa = pairs % n
    starts = np.unique(pairs // n, return_index=True)[1]
    del pairs, row

    shape = (config.replicates, len(valuation))
    # shared with the forked workers; the array keeps the mapping alive
    mat = np.frombuffer(mmap.mmap(-1, max(1, 8 * shape[0] * shape[1])),
                        dtype=float, count=shape[0] * shape[1]).reshape(shape)

    def fill(first, step):
        for rep in range(first, config.replicates, step):
            mat[rep] = _replicate(rep, config.master_seed, n, worth, pa,
                                  starts)

    _in_workers(fill, _workers(config.replicates))

    step = max(1, QUANTILE_BLOCK_ELEMENTS // config.replicates)
    quantiles = np.vstack([
        empirical_quantiles(mat[:, j:j + step], DEFAULT_PROBS, axis=0).T
        for j in range(0, len(valuation), step)])
    return WarDistribution(players=valuation.player_ids,
                           names=valuation.names, point=valuation.war,
                           replicates=mat, probs=DEFAULT_PROBS,
                           quantiles=quantiles)


def _replicate(rep, master_seed, n, worth, pa, starts):
    """Row `rep` of the replicate matrix: n plate appearances drawn from
    the stream of (master_seed, rep), and each player's WAR with the
    worth of every (player, PA) pair weighted by its PA's draw count."""
    rng = replicate_rng(master_seed, rep)
    # float counts: a float x int64 multiply is several times slower
    w = np.bincount(rng.integers(0, n, n), minlength=n).astype(float)
    return np.add.reduceat(worth * w[pa], starts)


def _workers(replicates):
    """The number of worker processes for `replicates` rows: one per CPU
    this process may run on, and 1 where processes cannot be forked."""
    return min(usable_cpus(), replicates)


def _in_workers(fill, workers):
    """Run fill(k, workers) in `workers` processes, k = 0 in this one and
    k = 1, 2, ... in forked children, and return when all have exited."""
    with reaped("bootstrap worker", workers) as pids:
        for k in range(1, workers):
            pids.append(fork_worker(partial(fill, k, workers)))
        fill(0, workers)


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
