"""Synthetic season generator tests."""

import csv
import hashlib
import io
import math
import os
import subprocess
import sys
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest

from openwar import events, simulate
from openwar.cli import main
from openwar.events import (
    BALL_IN_PLAY,
    CSV_COLUMNS,
    EVENT_TYPES,
    OPTIONAL_COLUMNS,
    SeasonDataset,
    _rules,
    csv_text,
    parse_season,
    serialize_season,
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
    parsed, report = parse_season(serialize_season(season), "strict")
    assert report.dropped == 0 and report.warnings == []
    assert len(parsed) == len(season)


def test_generated_season_round_trips(season):
    text = serialize_season(season)
    parsed, report = parse_season(text, "strict")
    assert report.dropped == 0 and report.warnings == []
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
        home = pa["game_id"].split("@")[1].split("-")[0]
        assert pa["ballpark_id"] == f"PARK_{home}"


def test_bip_coordinates_in_fair_territory(season_records):
    for pa in season_records:
        if BALL_IN_PLAY[pa["event_type"]]:
            x, y = pa["bip_x"], pa["bip_y"]
            assert y >= 1.0
            # within the 45-degree foul lines, up to coordinate rounding
            assert abs(x) <= y + 0.1
            assert round(x, 1) == x and round(y, 1) == y
        else:
            assert pa["bip_x"] == pa["bip_y"] == ""


def test_credited_fielder_only_on_out_plays(season_records):
    for pa in season_records:
        if pa["credited_fielder_position"]:
            assert BALL_IN_PLAY[pa["event_type"]]
            assert pa["end_outs"] > pa["start_outs"]


def test_custom_event_probs():
    probs = {e: 0.0 for e in EVENT_TYPES}
    probs["Strikeout"] = 0.7
    probs["Walk"] = 0.3
    data = generate_synthetic_season(1, 5, event_probs=probs)
    assert {pa["event_type"] for pa in records(data)} <= {"Strikeout", "Walk"}
    assert not any(BALL_IN_PLAY[pa["event_type"]] for pa in records(data))


def test_event_probs_validation():
    with pytest.raises(ValueError):
        generate_synthetic_season(1, 0, event_probs={"Moonshot": 1.0})
    with pytest.raises(ValueError):
        generate_synthetic_season(1, 0, event_probs={"Walk": 0.4})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_event_probability_is_rejected_up_front(bad):
    """NaN compares false to everything, so it passed a `< 0` check and a
    sum check, then broke the event draw; it is refused before the first
    batch, as a negative probability is."""
    probs = {**DEFAULT_EVENT_PROBS, "Walk": bad}
    with pytest.raises(ValueError, match="nonnegative and sum to 1"):
        simulate.synthetic_season_batches(2, 0, event_probs=probs)


def test_argument_validation():
    with pytest.raises(ValueError):
        generate_synthetic_season(0, 0)
    with pytest.raises(ValueError):
        generate_synthetic_season(1, 0, teams=1)


def test_no_field_needs_quoting():
    """The simulator writes every field bare, where csv.writer quotes one
    that holds a ',', a quote or a line end: no string that the league or
    the outcome table can put in a field holds one."""
    league = simulate._build_league(
        30, simulate._Draws(master_rng(0).bit_generator))
    strings = {*events.HALVES, "PH", *simulate._LINEUP_POSITIONS,
               *simulate._FIELDER_SPOTS}
    for team in league:
        strings |= {team["code"], team["park"],
                    f"{team['code']}@{team['code']}-0001"}
        for p in [*team["starters"].values(), *team["bench"],
                  *team["rotation"], *team["relievers"]]:
            strings |= {p.pid, p.hand}
    for *_, (_, _, head, tail, _) in _table_plays():
        fields = head.split(",") + tail.split(",")
        assert len(fields) == 10
        strings.update(fields)
    assert [s for s in strings if set(s) & set(',"\r\n')] == []


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
    """One ball in play's (x, y), drawn with `Generator.uniform` and scalar
    trigonometry and rounding: the reference of `_bip_locations`."""
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


#: the bounded draws of the games (3 relievers, 4 bench players), a coin,
#: and a bound that Lemire's method rejects about half the time
_BOUNDS = (2, 3, 4, 2 ** 31 + 1)


@pytest.mark.parametrize("seed,block", [(0, None), (17, None), (29, None),
                                        (5, 3)])
def test_block_reader_draws_what_generator_draws(monkeypatch, seed, block):
    """`_Draws` over a generator's bit generator gives, for 100k mixed
    `random()` and `integers(k)` calls, what a twin `Generator` gives, and
    leaves both streams at the same place.  A block of 3 words makes draws
    and the kept 32-bit half cross block edges."""
    if block is not None:
        monkeypatch.setattr(simulate, "_BLOCK", block)
    calls = master_rng(seed + 100).integers(len(_BOUNDS) + 1, size=100_000)
    ours = simulate._Draws(master_rng(seed).bit_generator)
    numpy_s = master_rng(seed)
    got, want = [], []
    for c in calls.tolist():
        if c == len(_BOUNDS):
            got.append(ours.random())
            want.append(numpy_s.random())
        else:
            got.append(ours.integers(_BOUNDS[c]))
            want.append(int(numpy_s.integers(_BOUNDS[c])))
    assert got == want
    assert ours.integers(3) == numpy_s.integers(3)
    assert ours.random() == numpy_s.random()


def _scripted(pattern):
    """A `chance` that answers its j-th call with bit j of `pattern`, and
    the list of the thresholds it was asked."""
    asked = []

    def chance(p):
        asked.append(p)
        return pattern >> (len(asked) - 1) & 1 == 1

    return chance, asked


def _table_plays():
    """(event, outs, mask, pattern, table entry's chances, outcome) of
    every play in the outcome table."""
    table = simulate._outcome_table()
    assert len(table) == len(EVENT_TYPES)
    for event, entries in zip(EVENT_TYPES, table):
        assert len(entries) == 24
        for state, (chances, outcomes) in enumerate(entries):
            assert len(outcomes) == 1 << len(chances)
            for pattern, outcome in enumerate(outcomes):
                yield event, state // 8, state % 8, pattern, chances, outcome


def _csv_line(fields):
    """`fields` as csv.writer writes them, without the line end."""
    return csv_text(fields, ()).removesuffix("\n")


def test_outcome_table_is_the_rules():
    """Every entry of the table is what `_apply_event` does under the same
    answers to its chances, followed by the games loop's old bookkeeping:
    the batter put on the base reached, the runs counted and the ball in
    play marked."""
    n_plays = 0
    for event, outs, mask, pattern, chances, outcome in _table_plays():
        n_plays += 1
        ids = {b: f"R{b}" for b in (1, 2, 3) if mask >> (b - 1) & 1}
        chance, asked = _scripted(pattern)
        final, batter_dest, dests, new_outs, new_bases = \
            simulate._apply_event(event, outs, ids, chance)
        assert tuple(p for p, _ in chances) == tuple(asked)
        assert [bit for _, bit in chances] == [1 << j for j in range(len(asked))]
        if batter_dest in ("1B", "2B", "3B") and new_outs < 3:
            new_bases[int(batter_dest[0])] = "B"
        new_mask = simulate._mask(new_bases)
        runs = list(dests.values()).count("H") + (batter_dest == "H")
        state, take, head, tail, bip = outcome
        assert state == 8 * new_outs + new_mask
        assert head == _csv_line((outs, mask, new_outs, new_mask))
        assert tail == _csv_line((dests.get(1), dests.get(2), dests.get(3),
                                  batter_dest, runs, final))
        assert take((None, ids.get(1), ids.get(2), ids.get(3), "B")) \
            == (new_bases.get(1), new_bases.get(2), new_bases.get(3))
        assert bip == ((EVENT_TYPES.index(final), new_outs > outs)
                       if BALL_IN_PLAY[final] else None)
    assert n_plays == 916


def test_outcome_table_breaks_no_record_rule():
    """Every play of the table, written as a CSV line as the games loop
    writes it, passes the record rules of `events._rules` (runs, outs,
    occupancy, destinations, batted balls)."""
    lines, in_play, draws = [], [], []
    for event, outs, mask, pattern, _, outcome in _table_plays():
        _, _, head, tail, bip = outcome
        r1, r2, r3 = (f"R{b}" if mask >> (b - 1) & 1 else "" for b in (1, 2, 3))
        if bip:
            in_play += len(lines), *bip
            draws += 0.5, 0.5
        lines.append(f"T01@T02-{len(lines) + 1:04d},1,1,top,B,P,{head},"
                     f"{r1},{r2},{r3},{tail},PK,R,R,CF,"
                     + ",".join(f"D{j}" for j in range(1, 10)))
    rows = list(csv.reader(io.StringIO(simulate._locate(lines, in_play, draws))))
    header = CSV_COLUMNS + OPTIONAL_COLUMNS
    assert {len(row) for row in rows} == {len(header)}
    data = SeasonDataset.from_records(dict(zip(header, row)) for row in rows)
    broken = {msg(data.record(k), k)
              for mask, msg in _rules(vars(data)) for k in np.flatnonzero(mask)}
    assert broken == set()


def test_compiler_refuses_chances_that_depend_on_a_chance(monkeypatch):
    """A rule whose second chance is asked only after the first failed
    cannot be one table entry."""
    def step(event, base, outs, bases, taken, chance):
        return int(chance(0.5) or chance(0.25))

    monkeypatch.setattr(simulate, "_step", step)
    with pytest.raises(RuntimeError, match="chances"):
        simulate._compile("Single", 0, 1)


def test_importing_the_cli_builds_no_table():
    """Every command imports the simulator; only a season drawn compiles
    its outcome table."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(simulate.__file__)),
        env.get("PYTHONPATH")]))
    probe = ("import openwar.cli, openwar.simulate as s; "
             "print(s._outcome_table.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out == "0\n"


def test_bip_location_matches_generator_uniform():
    """The array pass locates each ball in play, from the two draws the
    generator takes for it, where `Generator.uniform` and scalar rounding
    put it, consuming the same stream."""
    ours, numpy_s = master_rng(8), master_rng(8)
    names = [*simulate._BIP_RANGE, "Home Run"] * 50
    draws = [ours.random() for _ in range(2 * len(names))]
    x, y = simulate._bip_locations(
        [EVENT_TYPES.index(e) for e in names], draws)
    expected = [_bip_location_reference(e, numpy_s) for e in names]
    assert list(zip(x.tolist(), y.tolist())) == expected
    assert ours.random() == numpy_s.random()


def _tenths_cases():
    """Values at and around every half-tenth tie up to 400 (the 10x of
    some of them rounds onto a half), and random ones, both signs."""
    rng = master_rng(3)
    ties = (np.arange(8000) + 0.5) / 10
    near = [np.nextafter(ties, side) for side in (0, np.inf)]
    values = np.concatenate([ties, *near, rng.uniform(0, 400, 20000),
                             [0.0, 0.04, 0.05, 0.25, 0.75, 2.675, 384.95]])
    return np.concatenate([values, -values])


def test_tenths_match_round():
    v = _tenths_cases()
    got = simulate._tenths(v).tolist()
    want = [round(x, 1) for x in v.tolist()]
    assert got == want
    assert [str(g) for g in got] == [str(w) for w in want]  # -0.0 too


def _credited_position_reference(x, y):
    """The nearest standing spot by a scalar search, the first of equally
    near ones winning: the reference of `_credited_positions`."""
    best, best_d = None, None
    for pos, (px, py) in simulate._FIELDER_SPOTS.items():
        d = (x - px) ** 2 + (y - py) ** 2
        if best_d is None or d < best_d:
            best, best_d = pos, d
    return best


def test_credited_positions_match_scalar_search():
    # a grid of tenths (x = 0 ties 1B with 3B), and the points that lie
    # halfway between two spots, where the first spot must win
    grid = np.array(np.meshgrid(np.arange(-3848, 3849, 37) / 10,
                                np.arange(10, 3851, 29) / 10)).reshape(2, -1)
    spots = np.array(list(simulate._FIELDER_SPOTS.values()))
    mid = (spots[:, None] + spots[None]).reshape(-1, 2).T / 2
    x, y = np.concatenate([grid, mid], axis=1)
    assert simulate._credited_positions(x, y).tolist() == \
        [_credited_position_reference(*p) for p in zip(x.tolist(), y.tolist())]


_PINNED = [
    pytest.param(
        60, 11, None,
        "647e57e0aea2f86fe884319372cdd78c1929c57460abba7853cd612afd550e5e",
        id="default"),
    pytest.param(
        20, 3, _SPARSE,
        "8d5a9cd68866e4fd675387e769ab54e4526c5eaba3c396c1303207ef4c5d9b19",
        id="sparse"),
    # every event type, the rare ones (Triple Play, Sac Fly DP) included
    pytest.param(
        40, 7, {e: 1 / 32 for e in EVENT_TYPES},
        "d3d5798b52ca2d24d41deb08140b3ae336f1232cf136fe0a67f162e80aacae5a",
        id="uniform"),
]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("games,seed,event_probs,digest", _PINNED)
def test_season_bytes_are_pinned(games, seed, event_probs, digest):
    """The serialized season of a seed never changes.  The digests depend
    on numpy's Generator streams, so a numpy upgrade can move them."""
    data = generate_synthetic_season(games, seed, event_probs, teams=4)
    assert _sha256(serialize_season(data)) == digest


def _simulated_csv(tmp_path, games, seed, teams):
    """What `openwar simulate` writes after its config line."""
    out = tmp_path / "season.csv"
    assert main(["simulate", "--games", str(games), "--seed", str(seed),
                 "--teams", str(teams), "--out", str(out)]) == 0
    config, text = out.read_text(encoding="utf-8").split("\n", 1)
    assert config.startswith("# config: ")
    return text


@pytest.mark.parametrize("games,seed,event_probs,digest", [
    *_PINNED, pytest.param(30, 17, None, None, id="30 teams")])
def test_simulate_writes_the_serialized_season(tmp_path, monkeypatch, games,
                                               seed, event_probs, digest):
    """`openwar simulate` writes its rows straight to CSV; the bytes are
    those of the coded dataset, serialized.  The command takes no event
    mix, so a custom mix goes in as the default."""
    teams = 30 if digest is None else 4  # the pinned seasons have 4 teams
    if event_probs is not None:
        monkeypatch.setattr(simulate, "DEFAULT_EVENT_PROBS", event_probs)
    text = _simulated_csv(tmp_path, games, seed, teams)
    data = generate_synthetic_season(games, seed, event_probs, teams=teams)
    assert text == serialize_season(data)
    assert digest is None or _sha256(text) == digest


@pytest.mark.parametrize("games,seed,event_probs,digest", _PINNED)
def test_batches_of_games_keep_the_season_bytes(tmp_path, monkeypatch, games,
                                                seed, event_probs, digest):
    """`openwar simulate` writes the season a batch of games at a time,
    and each batch's balls in play are located after it; that pass draws
    nothing, so batches of 7 games give the pinned bytes too."""
    monkeypatch.setattr(simulate, "_BATCH_GAMES", 7)
    if event_probs is not None:
        monkeypatch.setattr(simulate, "DEFAULT_EVENT_PROBS", event_probs)
    batches = simulate.synthetic_season_batches(games, seed)
    assert len(list(batches)) == -(-games // 7)
    assert _sha256(_simulated_csv(tmp_path, games, seed, 4)) == digest


@pytest.mark.parametrize("games,seed,event_probs,digest", _PINNED)
def test_small_blocks_keep_the_season_bytes(monkeypatch, games, seed,
                                            event_probs, digest):
    """The reader's block size changes no byte of a season."""
    monkeypatch.setattr(simulate, "_BLOCK", 5)
    data = generate_synthetic_season(games, seed, event_probs, teams=4)
    assert _sha256(serialize_season(data)) == digest


def test_simulate_codes_and_decodes_nothing(tmp_path, monkeypatch):
    """Guard against the code round trip: the command neither parses the
    text it writes into a SeasonDataset nor decodes one to write it."""
    calls = Counter()
    csv_columns = events._csv_columns

    def counted_parse_season(*args, **kwargs):
        calls["parse_season"] += 1
        return parse_season(*args, **kwargs)

    def counted_csv_columns(*args, **kwargs):
        calls["_csv_columns"] += 1
        return csv_columns(*args, **kwargs)

    monkeypatch.setattr(simulate, "parse_season", counted_parse_season)
    monkeypatch.setattr(events, "_csv_columns", counted_csv_columns)
    text = _simulated_csv(tmp_path, 20, 11, 4)
    assert calls == Counter()
    # the counters do count: the library path parses and decodes once each
    assert serialize_season(generate_synthetic_season(20, 11)) == text
    assert calls == Counter(parse_season=1, _csv_columns=1)


class _CountingRng:
    """A Generator that counts the methods read from it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, Counter()

    def __getattr__(self, name):
        self.calls[name] += 1
        return getattr(self.rng, name)


def test_season_makes_no_choice_calls(monkeypatch):
    """The season reads its draws from the raw stream in blocks: it calls
    none of the Generator's draw methods, and takes its bit generator far
    fewer times than it has plate appearances."""
    made = []

    def counting_rng(seed):
        made.append(_CountingRng(master_rng(seed)))
        return made[-1]

    monkeypatch.setattr(simulate, "master_rng", counting_rng)
    data = generate_synthetic_season(20, 11, teams=4)
    calls = made[0].calls
    assert all(calls[m] == 0 for m in ("random", "integers", "choice", "uniform"))
    assert 0 < calls["bit_generator"] < len(data) / 100
