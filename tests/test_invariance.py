"""Metamorphic relations of the whole pipeline (Chen, Cheung & Yiu 1998;
Segura et al. 2016): relabelling the season, or reading it twice, moves
only the order in which sums add.

One 200-game, 30-team season is relabelled and run again, at the Scott
bandwidth of the original season: Scott's rule shrinks with the sample,
so the season read twice would otherwise be smoothed more narrowly.
"""

import csv
import io
import warnings

import numpy as np
import pytest

from openwar.events import csv_text, parse_season, serialize_season
from openwar.pipeline import run_pipeline
from openwar.simulate import generate_synthetic_season

GAMES, TEAMS, SEED = 200, 30, 17
CUTOFFS = {"cutoff_pos": 270, "cutoff_pitch": 90}
TOL = 1e-9


def _run(header, rows, bandwidth=None):
    data, _ = parse_season(csv_text(header, rows))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_pipeline(data, bandwidth=bandwidth, **CUTOFFS)


@pytest.fixture(scope="module")
def base():
    """The season's header and rows, and its pipeline result."""
    text = serialize_season(generate_synthetic_season(GAMES, SEED,
                                                      teams=TEAMS))
    header, *rows = csv.reader(io.StringIO(text))
    return header, rows, _run(header, rows)


def _games(rows, column):
    """The rows of each game, games in file order."""
    games = {}
    for row in rows:
        games.setdefault(row[column], []).append(row)
    return list(games.values())


def _relabelled(header, rows, column, rename):
    """`rows` with the field `column` renamed by `rename`."""
    k = header.index(column)
    return [[*row[:k], rename(row[k]), *row[k + 1:]] for row in rows]


def _reversing(ids, prefix):
    """New names for `ids` whose sorted order is theirs reversed."""
    ordered = sorted(set(ids))
    return {old: f"{prefix}{len(ordered) - k:05d}"
            for k, old in enumerate(ordered)}.__getitem__


def _check_same(result, base_result, times=1):
    """The same players in the same tiers at the same replacement rates,
    RE24 within 1e-12, and `times` the base's RAA and WAR within TOL (a
    win or more in size, so TOL is also a relative bound)."""
    v, ref = result.valuation, base_result.valuation
    assert v.player_ids == ref.player_ids
    assert np.array_equal(v.replacement, ref.replacement)
    assert np.max(np.abs(v.rates - ref.rates)) <= 1e-12
    assert np.max(np.abs(result.ledger.matrix.rho
                         - base_result.ledger.matrix.rho)) <= 1e-12
    for value, base_value in ((v.raa_total, ref.raa_total), (v.war, ref.war)):
        assert np.max(np.abs(base_value)) >= 1.0
        assert np.max(np.abs(value - times * base_value)) <= TOL


def test_games_reversed(base):
    header, rows, first = base
    games = _games(rows, header.index("game_id"))
    assert len(games) == GAMES
    reversed_rows = [row for game in reversed(games) for row in game]
    _check_same(_run(header, reversed_rows,
                     first.ledger.defense.surface.bandwidth), first)


def test_parks_and_games_renamed_in_reverse_order(base):
    header, rows, first = base
    for column, prefix in (("game_id", "G"), ("ballpark_id", "PARK")):
        k = header.index(column)
        rows = _relabelled(header, rows, column,
                           _reversing([row[k] for row in rows], prefix))
    _check_same(_run(header, rows, first.ledger.defense.surface.bandwidth),
                first)


def test_season_read_twice_doubles_raa_and_war(base):
    """The season and a copy of it whose games are renamed: every credit
    comes twice and the tiers and rates stay, so RAA and WAR double."""
    header, rows, first = base
    copy = _relabelled(header, rows, "game_id", lambda game: f"copy-{game}")
    _check_same(_run(header, rows + copy,
                     first.ledger.defense.surface.bandwidth), first, times=2)
