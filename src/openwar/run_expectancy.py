"""Expected-run matrix over the 24 base-out states and per-PA run values.

The matrix entry rho[outs, bases] is the empirical mean of runs scored
from the start of a plate appearance in that state through the end of
its half-inning.  The absorbing 3-out states, row 3, are worth 0 by
definition.  The run value of one plate appearance is

    delta = rho(end state) - rho(start state) + runs scored,

the quantity usually called RE24.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass

import numpy as np

from .events import LIVE_STATES, _half_inning_starts

__all__ = ["RunExpectancyMatrix", "estimate_matrix", "run_value"]


@dataclass
class RunExpectancyMatrix:
    """Per base-out state, as (4, 8) arrays indexed [outs, bases] whose
    3-out row is 0: the expected runs to the end of the half-inning, and
    the plate appearances that started there."""

    rho: np.ndarray
    sample_counts: np.ndarray

    def to_csv(self):
        out = io.StringIO()
        out.write("outs,bases_mask,rho,n\n")
        for o, b in LIVE_STATES:
            out.write(f"{o},{b},{float(self.rho[o, b])!r},"
                      f"{self.sample_counts[o, b]}\n")
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
    three_outs = ((0, 1), (0, 0))  # a row of zeros
    return RunExpectancyMatrix(
        rho=np.pad((sums / counts).reshape(3, 8), three_outs),
        sample_counts=np.pad(counts.reshape(3, 8), three_outs))


def _deltas(data, matrix):
    """`run_value` of every plate appearance, as one array."""
    rho = matrix.rho
    end = rho[data.end_outs, data.end_bases]
    return (end - rho[data.start_outs, data.start_bases]) + data.runs_scored


def run_value(row, matrix):
    """RE24 run value (delta) of one plate appearance under the given
    matrix, from its row view `SeasonDataset.record(i)`: the scalar oracle
    of `_deltas`."""
    rho = matrix.rho
    return float(rho[row["end_outs"], row["end_bases"]]
                 - rho[row["start_outs"], row["start_bases"]]) \
        + row["runs_scored"]
