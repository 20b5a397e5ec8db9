"""Shared fixtures: one mid-sized synthetic season and its pipeline run.

Both are session-scoped because the pipeline is the expensive part of the
suite; individual tests treat them as read-only.
"""

import warnings

import pytest

from openwar.pipeline import run_pipeline
from openwar.simulate import generate_synthetic_season

from fixtures import records

SEASON_GAMES = 60
SEASON_SEED = 11


@pytest.fixture(scope="session")
def season():
    return generate_synthetic_season(SEASON_GAMES, SEASON_SEED)


@pytest.fixture(scope="session")
def season_records(season):
    """The row view of every plate appearance of `season`."""
    return records(season)


@pytest.fixture(scope="session")
def pipeline(season):
    # small cutoffs so the 4-team league has a real replacement tier
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_pipeline(season, cutoff_pos=40, cutoff_pitch=18)
