"""Synthetic season generator tests."""

import pytest

from openwar.events import (
    EVENT_TYPES,
    parse_season,
    serialize_season,
    validate_dataset,
)
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
