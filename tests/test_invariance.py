"""Metamorphic relations of the whole pipeline (Chen, Cheung & Yiu 1998;
Segura et al. 2016): relabelling the season, or reading it twice, moves
only the order in which sums add.

One 200-game, 30-team season is relabelled and run again, at the Scott
bandwidth of the original season: Scott's rule shrinks with the sample,
so the season read twice would otherwise be smoothed more narrowly.

The out-probability surface is compared on the grid of
`SeasonLedger.surface_grid_csv`, but not for the season read twice: far
from every ball in play the smoother falls back to the global rate where
its summed kernel weight, which doubles with the season, is below
MIN_KERNEL_WEIGHT, so 4 of the 561 grid points move.
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


def _unrenamed(park):
    return park


def _park_levels(fit, park_ids, name=_unrenamed):
    """A park/platoon fit's level at each park of `park_ids`, named
    `name(park)` in the fit: the intercept plus the park's coefficient,
    then the platoon coefficient.  The park coefficients alone follow
    which park's column is dropped as collinear with the intercept, the
    last in label order, which a rename moves."""
    c = fit.coefficients
    return np.array([c["intercept"] + c[f"park_{name(p)}"] for p in park_ids]
                    + [c["platoon"]])


def _surface_grid(result):
    return np.loadtxt(io.StringIO(result.ledger.surface_grid_csv()),
                      delimiter=",", skiprows=1)


def _check_same(result, base_result, times=1, park=_unrenamed, surface=True):
    """The same players in the same tiers at the same replacement rates,
    RE24, the park levels of the offense and pitching park/platoon fits
    (base park p named park(p) in `result`) and, if `surface`, the out
    probabilities of the surface grid within 1e-12, and `times` the base's
    RAA and WAR within TOL (a win or more in size, so TOL is also a
    relative bound)."""
    v, ref = result.valuation, base_result.valuation
    assert v.player_ids == ref.player_ids
    assert np.array_equal(v.replacement, ref.replacement)
    assert np.max(np.abs(v.rates - ref.rates)) <= 1e-12
    ledger, base_ledger = result.ledger, base_result.ledger
    assert np.max(np.abs(ledger.matrix.rho - base_ledger.matrix.rho)) <= 1e-12
    parks = base_ledger.data.park_ids
    for fit, base_fit in (
            (ledger.offense.park_fit, base_ledger.offense.park_fit),
            (ledger.defense.pitch_fit, base_ledger.defense.pitch_fit)):
        assert np.max(np.abs(_park_levels(fit, parks, park)
                             - _park_levels(base_fit, parks))) <= 1e-12
    if surface:
        grid, base_grid = _surface_grid(result), _surface_grid(base_result)
        assert np.array_equal(grid[:, :2], base_grid[:, :2])
        assert np.max(np.abs(grid[:, 2] - base_grid[:, 2])) <= 1e-12
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
        rename = _reversing([row[k] for row in rows], prefix)
        rows = _relabelled(header, rows, column, rename)
    # the loop renames the parks last, so `rename` is theirs
    _check_same(_run(header, rows, first.ledger.defense.surface.bandwidth),
                first, park=rename)


def test_season_read_twice_doubles_raa_and_war(base):
    """The season and a copy of it whose games are renamed: every credit
    comes twice and the tiers and rates stay, so RAA and WAR double."""
    header, rows, first = base
    copy = _relabelled(header, rows, "game_id", lambda game: f"copy-{game}")
    _check_same(_run(header, rows + copy,
                     first.ledger.defense.surface.bandwidth), first, times=2,
                surface=False)
