"""Expected-run matrix over the 24 base-out states and per-PA run values.

The matrix entry rho(outs, bases) is the empirical mean of runs scored
from the start of a plate appearance in that state through the end of
its half-inning.  The absorbing 3-out state is worth 0 by definition.
The run value of one plate appearance is

    delta = rho(end state) - rho(start state) + runs scored,

the quantity usually called RE24.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass, field

import numpy as np

from .events import LIVE_STATES, GameState, _half_inning_starts

__all__ = ["RunExpectancyMatrix", "estimate_matrix", "run_value"]


@dataclass
class RunExpectancyMatrix:
    rho: dict  # (outs, bases) -> expected runs to end of half-inning
    sample_counts: dict = field(default_factory=dict)

    def value(self, state):
        if state.outs == 3:
            return 0.0
        key = (state.outs, state.bases)
        if key not in self.rho:
            raise KeyError(f"state {key} not covered by the matrix")
        return self.rho[key]

    def to_csv(self):
        out = io.StringIO()
        out.write("outs,bases_mask,rho,n\n")
        for key in LIVE_STATES:
            out.write(f"{key[0]},{key[1]},{self.rho[key]!r},{self.sample_counts[key]}\n")
        return out.getvalue()


def estimate_matrix(data):
    """Estimate rho(o, b) by a forward scan within each half-inning.

    Runs-to-inning-end for a plate appearance include its own runs.  A
    trailing half-inning that never reaches three outs at the very end of
    the data is dropped with a warning; earlier truncated half-innings
    (walk-offs) are kept as observed.
    """
    new = _half_inning_starts(data)
    starts, group = np.flatnonzero(new), np.cumsum(new) - 1
    kept = len(data)
    if kept and data.end_outs[-1] != 3:
        warnings.warn("final half-inning is unterminated; dropped from estimation")
        kept = starts[-1]

    # runs from each record to the end of its half-inning, its own included
    after = np.append(np.cumsum(data.runs_scored[::-1])[::-1], 0)
    stops = np.append(starts[1:], len(data))
    togo = (after[:-1] - after[stops[group]])[:kept]
    state = (data.start_outs.astype(np.intp) * 8 + data.start_bases)[:kept]
    live = len(LIVE_STATES)
    # sums of integers in float64 are exact, whatever the order
    sums = np.bincount(state, weights=togo, minlength=live)[:live]
    counts = np.bincount(state, minlength=live)[:live]

    empty = [key for key, c in zip(LIVE_STATES, counts) if c == 0]
    if empty:
        raise ValueError(f"states never observed: {empty}")
    return RunExpectancyMatrix(
        rho=dict(zip(LIVE_STATES, (sums / counts).tolist())),
        sample_counts=dict(zip(LIVE_STATES, counts.tolist())))


def _deltas(data, matrix):
    """`run_value` of every plate appearance, as one array."""
    table = np.zeros((4, 8))  # the 3-out row stays 0
    for key in LIVE_STATES:
        table[key] = matrix.value(GameState(*key))
    end = table[data.end_outs, data.end_bases]
    return (end - table[data.start_outs, data.start_bases]) + data.runs_scored


def run_value(pa, matrix):
    """RE24 run value (delta) of one plate appearance under the given
    matrix: the scalar oracle of `_deltas`."""
    return (matrix.value(pa.end_state) - matrix.value(pa.start_state)) \
        + pa.runs_scored
