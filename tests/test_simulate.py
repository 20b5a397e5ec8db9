"""Synthetic season generator tests."""

import hashlib
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest

from openwar import simulate
from openwar.events import (
    EVENT_TYPES,
    parse_season,
    serialize_season,
    validate_dataset,
)
from openwar.numerics import master_rng
from openwar.simulate import DEFAULT_EVENT_PROBS, generate_synthetic_season

from fixtures import half_innings, records


def test_default_probs_are_a_distribution():
    assert set(DEFAULT_EVENT_PROBS) == set(EVENT_TYPES)
    assert all(p >= 0 for p in DEFAULT_EVENT_PROBS.values())
    assert abs(sum(DEFAULT_EVENT_PROBS.values()) - 1.0) < 1e-12


def test_determinism():
    a = generate_synthetic_season(3, 42)
    b = generate_synthetic_season(3, 42)
    assert serialize_season(a) == serialize_season(b)
    c = generate_synthetic_season(3, 43)
    assert serialize_season(a) != serialize_season(c)


def test_generated_season_validates_strict(season):
    report = validate_dataset(season, strict=True)
    assert report.ok


def test_generated_season_round_trips(season):
    text = serialize_season(season)
    parsed, report = parse_season(text, "strict")
    assert report.ok
    assert serialize_season(parsed) == text


def test_structure_of_small_season():
    data = generate_synthetic_season(2, 0, teams=2)
    games = set(data.game_ids)
    assert len(games) == 2
    for gid in games:
        away, rest = gid.split("@")
        assert away.startswith("T") and rest.split("-")[0].startswith("T")
    # every half-inning terminates at three outs
    groups = half_innings(data)
    for group in groups:
        assert data.end_outs[group[-1]] == 3
        assert data.start_outs[group[0]] == 0
        assert data.start_bases[group[0]] == 0
    # nine innings both ways per game
    assert len(groups) == 2 * 18


def test_park_follows_home_team():
    data = generate_synthetic_season(4, 1, teams=2)
    for pa in records(data):
        home = pa.game_id.split("@")[1].split("-")[0]
        assert pa.ballpark_id == f"PARK_{home}"


def test_bip_coordinates_in_fair_territory(season_records):
    for pa in season_records:
        if pa.ball_in_play:
            x, y = pa.bip_location
            assert y >= 1.0
            # within the 45-degree foul lines, up to coordinate rounding
            assert abs(x) <= y + 0.1
            assert round(x, 1) == x and round(y, 1) == y
        else:
            assert pa.bip_location is None


def test_credited_fielder_only_on_out_plays(season_records):
    for pa in season_records:
        if pa.credited_fielder_position is not None:
            assert pa.ball_in_play
            assert pa.outs_on_play > 0


def test_custom_event_probs():
    probs = {e: 0.0 for e in EVENT_TYPES}
    probs["Strikeout"] = 0.7
    probs["Walk"] = 0.3
    data = generate_synthetic_season(1, 5, event_probs=probs)
    assert {pa.event_type for pa in records(data)} <= {"Strikeout", "Walk"}
    assert all(not pa.ball_in_play for pa in records(data))


def test_event_probs_validation():
    with pytest.raises(ValueError):
        generate_synthetic_season(1, 0, event_probs={"Moonshot": 1.0})
    with pytest.raises(ValueError):
        generate_synthetic_season(1, 0, event_probs={"Walk": 0.4})


def test_argument_validation():
    with pytest.raises(ValueError):
        generate_synthetic_season(0, 0)
    with pytest.raises(ValueError):
        generate_synthetic_season(1, 0, teams=1)


def test_roster_covers_all_participants(season, season_records):
    for pa in season_records:
        assert pa.batter_id in season.roster
        assert pa.pitcher_id in season.roster
        for fid in pa.fielder_ids:
            assert fid in season.roster


#: a custom mix with zero entries, so CDFs carry runs of equal values
_SPARSE = {**dict.fromkeys(EVENT_TYPES, 0.0), "Strikeout": 0.3, "Single": 0.25,
           "Groundout": 0.2, "Home Run": 0.1, "Walk": 0.15}


def _draw_tables():
    """name -> (p, table) for every distribution the generator draws from:
    the hands, and the events of each (batter, pitcher) skill pair."""
    tables = {"fielder hands": ([0.30, 0.62, 0.08], simulate._FIELDER_HANDS),
              "pitcher hands": ([0.28, 0.72, 0.0], simulate._PITCHER_HANDS)}
    for name, mix in (("default", DEFAULT_EVENT_PROBS), ("sparse", _SPARSE)):
        probs = np.array([mix[e] for e in EVENT_TYPES])
        for batter_skill in (1.0, 0.6):
            for pitcher_skill in (1.0, 0.7):
                w = simulate._event_weights(probs, batter_skill, pitcher_skill)
                tables[f"{name} {batter_skill} v {pitcher_skill}"] = \
                    (w, simulate._cdf(w))
    return tables


def _bip_location_reference(event, rng):
    """`_bip_location` drawing through `Generator.uniform`."""
    lo, hi = simulate._BIP_RANGE.get(event, (60, 250))
    r = rng.uniform(lo, hi)
    psi = rng.uniform(-np.pi / 4, np.pi / 4)
    x = round(float(r * np.sin(psi)), 1)
    y = round(float(r * np.cos(psi)), 1)
    return (x, max(y, 1.0))


@pytest.mark.parametrize("name", list(_draw_tables()))
def test_table_draws_match_generator_choice(name):
    """A bisect of the cached CDF draws what `Generator.choice(p=w)` draws
    from a twin generator, consuming the same stream."""
    p, table = _draw_tables()[name]
    ours, numpy_s = master_rng(len(name)), master_rng(len(name))
    drawn = [bisect_right(table, ours.random()) for _ in range(2000)]
    assert drawn == [int(numpy_s.choice(len(p), p=p)) for _ in range(2000)]
    assert ours.random() == numpy_s.random()


def test_bip_location_matches_generator_uniform():
    ours, numpy_s = master_rng(8), master_rng(8)
    for event in [*simulate._BIP_RANGE, "Home Run"] * 50:
        assert simulate._bip_location(event, ours) \
            == _bip_location_reference(event, numpy_s)
    assert ours.random() == numpy_s.random()


@pytest.mark.parametrize("games,seed,event_probs,digest", [
    (60, 11, None,
     "647e57e0aea2f86fe884319372cdd78c1929c57460abba7853cd612afd550e5e"),
    (20, 3, _SPARSE,
     "8d5a9cd68866e4fd675387e769ab54e4526c5eaba3c396c1303207ef4c5d9b19"),
    # every event type, the rare ones (Triple Play, Sac Fly DP) included
    (40, 7, {e: 1 / 32 for e in EVENT_TYPES},
     "d3d5798b52ca2d24d41deb08140b3ae336f1232cf136fe0a67f162e80aacae5a"),
], ids=["default", "sparse", "uniform"])
def test_season_bytes_are_pinned(games, seed, event_probs, digest):
    """The serialized season of a seed never changes.  The digests depend
    on numpy's Generator streams, so a numpy upgrade can move them."""
    data = generate_synthetic_season(games, seed, event_probs, teams=4)
    assert hashlib.sha256(serialize_season(data).encode()).hexdigest() == digest


class _CountingRng:
    """A Generator that counts the methods read from it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, Counter()

    def __getattr__(self, name):
        self.calls[name] += 1
        return getattr(self.rng, name)


def test_season_makes_no_choice_calls(monkeypatch):
    made = []

    def counting_rng(seed):
        made.append(_CountingRng(master_rng(seed)))
        return made[-1]

    monkeypatch.setattr(simulate, "master_rng", counting_rng)
    data = generate_synthetic_season(20, 11, teams=4)
    assert made[0].calls["choice"] == 0 and made[0].calls["uniform"] == 0
    assert made[0].calls["random"] > len(data)  # every event is one draw
