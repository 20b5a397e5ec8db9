"""Bootstrap interval estimates for WAR via plate-appearance resampling.

Each replicate redraws the season's plate appearances with replacement,
carrying every credit of a drawn PA jointly (hitter, runners,
fielders, pitcher), then re-aggregates RAA and re-applies the frozen
replacement rates to the resampled event counts.  Models and the
replacement tier are never refit inside a replicate.

The rates, runs-per-win and point WAR all come from one
`Valuation`, whose rows follow the credit table's players.  Because the
rates and runs-per-win are frozen, a credit's contribution to WAR is
linear in its PA's draw count: WAR = Σ worth · w[pa] with
worth = (value − rate[component]) / rpw.  A credit's player plays in its
PA's game, so the (players × PAs) worth matrix is block-diagonal by
game.  The credits are therefore folded once into one dense block per
game, (the game's PAs × the players credited in it): at full season
about 22 players, and 2.8 cells per (player, PA) pair that has a
credit.  A game longer than BLOCK_PAS PAs, or a table with no games, is
cut into runs of that length.

Replicates are filled in blocks of B rows, B set by the element budget
COUNT_BLOCK_ELEMENTS at the season's size and capped at BLOCK_ROWS.  A
block draws B rows of int32 draw counts (B × PAs), multiplies each
game's columns by the game's worth block, one BLAS product per game,
and sums each replicate's products per player.  The last block is
padded with zero rows, so every product has the same shape, and row
`rep` of the replicate matrix depends only on (master_seed, rep).

The blocks are filled by `forking.ordered`: in forked worker processes,
one per CPU this process may run on, each filling one block at a time
and sending back its rows, which the caller writes into the replicate
matrix in block order.  The matrix is the same for any worker count.
A worker inherits the caller's pages at the fork, and its peak memory
counts them, so the caller should hold only what resampling reads: the
credit table, the valuation and the folded worth (`openwar boot` lets
go of the season and the chains before it calls `bootstrap_war`).
Each worker holds its counts (16 MiB, or one row where a row is larger)
and its products (B × the summed players of every game, 9 MiB at full
season), made at its first block; the worth blocks (33 MiB at full
season) are shared with the caller.  A worker that fails raises
`forking.WorkerError` in the caller once every worker has exited.
Before any block is filled, each player's folded worth must sum to the
point WAR within FOLD_TOL; if not, ArithmeticError names the player.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .events import csv_text
from .forking import ordered
from .numerics import replicate_rng

__all__ = ["WarDistribution", "bootstrap_war", "compare_players"]

DEFAULT_PROBS = (0.0, 0.025, 0.25, 0.5, 0.75, 0.975, 1.0)
#: element budget of one block of replicate columns: `np.quantile` copies
#: what it is given, and that copy sits beside the whole replicate matrix,
#: so it is kept small (0.5 MiB; at 3,500 replicates, 18 players a block)
QUANTILE_BLOCK_ELEMENTS = 1 << 16
#: element budget of the int32 draw counts a worker holds: one block of
#: replicates × the season's plate appearances (16 MiB)
COUNT_BLOCK_ELEMENTS = 1 << 22
#: the most replicates in one block: more rows spread the cost of each
#: game's product call, fewer keep a block's counts in cache
BLOCK_ROWS = 32
#: the most plate appearances in one dense block of the worth; a longer
#: game is cut, and so is a table with no games, which keeps the blocks
#: linear in the credits
BLOCK_PAS = 128
#: the largest gap, in wins, between a player's folded worth and WAR
FOLD_TOL = 1e-9


@dataclass
class WarDistribution:
    players: list  # sorted player ids
    replicates: np.ndarray  # (replicates, players) WAR matrix
    quantiles: np.ndarray  # (players, DEFAULT_PROBS)

    def quantile_csv(self):
        """One row per player; its name is its id, as in valuation_csv."""
        return csv_text(
            ("player_id", "name", *(f"q{100 * p:g}" for p in DEFAULT_PROBS)),
            zip(self.players, self.players, *self.quantiles.T.tolist()))


def bootstrap_war(credits, valuation, replicates, master_seed):
    """Resample the season `replicates` times with frozen models.

    `valuation` is the Valuation of the CreditTable `credits`; its rates,
    runs per win and point WAR are the ones every replicate uses.  Each
    replicate weights every credit by the number of times its plate
    appearance was drawn, so a drawn PA carries all of its credits.
    Deterministic: each replicate draws from its own stream derived from
    (master_seed, replicate index).  Its quantiles are numpy's default,
    type 7: linear interpolation between order statistics.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if not credits.n_pas:
        raise ValueError("empty ledger")
    if valuation.player_ids != credits.player_ids:
        raise ValueError("the valuation is not of this credit table")
    dense = _Dense.of(credits, valuation)
    slots = np.concatenate([worth.sum(axis=0)
                            for _, _, worth, _, _ in dense.blocks])
    gap = np.abs(np.add.reduceat(slots[dense.order], dense.starts)
                 - valuation.war)
    worst = int(np.argmax(np.nan_to_num(gap, nan=np.inf)))
    if not gap[worst] <= FOLD_TOL:
        raise ArithmeticError(
            f"the bootstrap's folded worth of {valuation.player_ids[worst]} "
            f"is {gap[worst]:.3g} wins off its WAR")
    rows = _block_rows(credits.n_pas)

    buffers = []  # a process's counts and products, made at its first block

    def block(first):
        if not buffers:
            buffers.extend([np.empty((rows, credits.n_pas), dtype=np.int32),
                            np.empty((rows, len(dense.order)))])
        reps = range(first, min(first + rows, replicates))
        return _block(reps, master_seed, *buffers, dense)

    mat = np.empty((replicates, len(valuation)))
    first = 0
    for part in ordered(block, range(0, replicates, rows),
                        "bootstrap worker"):
        mat[first:first + len(part)] = part
        first += len(part)

    step = max(1, QUANTILE_BLOCK_ELEMENTS // replicates)
    quantiles = np.vstack([
        np.quantile(mat[:, j:j + step], DEFAULT_PROBS, axis=0).T
        for j in range(0, len(valuation), step)])
    return WarDistribution(players=valuation.player_ids, replicates=mat,
                           quantiles=quantiles)


def _block_rows(n_pas):
    """The replicates in one count block: as many as COUNT_BLOCK_ELEMENTS
    allows at `n_pas` plate appearances, at least 1 and at most
    BLOCK_ROWS.  It depends on nothing else, so neither the replicate nor
    the worker count moves a replicate to another row of its product."""
    return max(1, min(BLOCK_ROWS, COUNT_BLOCK_ELEMENTS // n_pas))


@dataclass
class _Dense:
    """The folded worth of a credit table as dense blocks.

    A block is a run of at most BLOCK_PAS plate appearances of one game,
    [start, stop), and `worth` its (stop − start, m) matrix: the summed
    worth of each of the m players credited in the run, on each of its
    plate appearances.  The block's players are the product slots lo …
    hi − 1, in player order.  `order` sorts the slots by player, each
    player's slots in block order, and `starts` begins each player's run
    of them."""

    blocks: list  # (start, stop, worth, lo, hi)
    order: np.ndarray
    starts: np.ndarray

    @classmethod
    def of(cls, credits, valuation):
        n, players = credits.n_pas, len(credits.player_ids)
        bounds = np.union1d(credits.game_starts, [0, n]).tolist()
        # each game cut into runs of BLOCK_PAS, the last one shorter
        first = np.concatenate([np.arange(a, b, BLOCK_PAS)
                                for a, b in zip(bounds, bounds[1:])])
        height = np.diff(first, append=n)
        # one slot per (block, player), sorted by block then player
        key = np.searchsorted(first, credits.pa, "right") - 1
        key *= players
        key += credits.player
        slots, slot = np.unique(key, return_inverse=True)
        del key
        slot_block = slots // players
        edges = np.searchsorted(slot_block, np.arange(len(first) + 1))
        width = np.diff(edges)
        offset = np.concatenate([[0], np.cumsum(height * width)])
        # each credit's cell: its block's offset, then its plate
        # appearance's row and its player's column in that block
        block = slot_block[slot]
        cell = credits.pa - first[block]
        cell *= width[block]
        cell += offset[block] + slot - edges[block]
        del block, slot
        worth = (credits.value - valuation.rates[credits.component]) \
            / valuation.rpw
        flat = np.bincount(cell, weights=worth, minlength=offset[-1])
        del cell, worth
        blocks = [
            (start, start + h, flat[o:o + h * w].reshape(h, w), lo, lo + w)
            for start, h, w, o, lo in zip(
                first.tolist(), height.tolist(), width.tolist(),
                offset.tolist(), edges.tolist()) if w]
        player = slots % players
        order = np.argsort(player, kind="stable")
        starts = np.flatnonzero(np.diff(player[order], prepend=-1))
        return cls(blocks=blocks, order=order, starts=starts)


def _block(reps, master_seed, counts, products, dense):
    """Rows `reps` of the replicate matrix.  Row i of `counts` holds the
    draw counts of replicate reps[i], n plate appearances drawn from the
    stream of (master_seed, reps[i]), and the rows past the last of
    `reps` hold zeros, so every product has the same B rows.
    Each block of the worth is multiplied by its plate appearances'
    counts, then each replicate's slots are summed per player, in block
    order."""
    n = counts.shape[1]
    for i, rep in enumerate(reps):
        counts[i] = np.bincount(replicate_rng(master_seed, rep)
                                .integers(0, n, n), minlength=n)
    counts[len(reps):] = 0
    for start, stop, worth, lo, hi in dense.blocks:
        np.matmul(counts[:, start:stop], worth, out=products[:, lo:hi])
    rows = np.empty((len(reps), len(dense.starts)))
    for row, out in zip(products, rows):
        np.add.reduceat(row[dense.order], dense.starts, out=out)
    return rows


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
