"""Property tests: conservation and telescoping hold on small seasons drawn
from random event mixes, not just on the fixed fixture seasons."""

import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from openwar.events import EVENT_TYPES
from openwar.pipeline import build_ledger
from openwar.run_expectancy import estimate_matrix
from openwar.simulate import DEFAULT_EVENT_PROBS, generate_synthetic_season

from fixtures import half_innings

_DEFAULT = np.array([DEFAULT_EVENT_PROBS[e] for e in EVENT_TYPES])


@settings(max_examples=5, deadline=None)
@given(weights=st.lists(st.floats(0.0, 1.0), min_size=len(EVENT_TYPES),
                        max_size=len(EVENT_TYPES)).filter(any),
       seed=st.integers(0, 2**16))
def test_conservation_and_telescoping_on_random_event_mixes(weights, seed):
    # half the mass follows the observed frequencies, so that a 30-game
    # season usually visits every base-out state
    w = np.array(weights)
    probs = 0.5 * _DEFAULT + 0.5 * w / w.sum()
    data = generate_synthetic_season(
        30, seed, event_probs=dict(zip(EVENT_TYPES, probs / probs.sum())))
    try:
        matrix = estimate_matrix(data)
    except ValueError:  # a rare base-out state never came up
        assume(False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        ledger = build_ledger(data, matrix=matrix)
    deltas, off, dfn = ledger.deltas, ledger.offense, ledger.defense

    offense = (off.park_fit.fitted + off.position_fit.fitted + off.raa_hit
               + off.raa_br.sum(axis=1))
    assert np.max(np.abs(offense - deltas)) < 1e-10
    field = np.zeros(len(data))
    for i, rows in zip(dfn.bip_indices, dfn.fielding_rows):
        field[i] = sum(r.raa_field + r.park_fitted for r in rows)
    defense = dfn.raa_pitch + dfn.pitch_fit.fitted + field
    assert np.max(np.abs(defense + deltas)) < 1e-10
    assert abs(ledger.credits.value.sum()) <= 1e-8 * np.abs(deltas).sum()

    rho00 = matrix.rho[(0, 0)]
    for group in half_innings(data):
        if data.end_outs[group[-1]] == 3:
            runs = data.runs_scored[group].sum()
            assert abs(deltas[group].sum() - (runs - rho00)) < 1e-10
