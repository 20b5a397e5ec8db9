"""Deterministic synthetic season generator.

Produces valid play-by-play datasets at desk scale: a small league of
teams with starter and bench tiers, seeded event sampling from the
observed MLBAM event frequencies, plausible runner advancement, and
batted-ball coordinates inside fair territory.  Identical seeds give
byte-identical output.

The rules of a play are stated once, in `_OUTCOMES`, `_downgrade`,
`_step` and `_apply_event`, whose random choices are `chance(p)`: a
uniform draw falls below p.  The first season drawn in a process compiles
them into an outcome table (`_outcome_table`): per (event, outs, bases)
the chances asked, lead runner first, and per pattern of their results
the play that follows, its fixed fields as CSV text.  A plate appearance
is then a lookup, one draw per chance, a move of the runners' ids and one
f-string that writes its CSV line.  Draws come from `_Draws`, which
reads the PCG64 stream of `master_rng(seed)` in blocks and gives the
numbers `Generator.random` and `Generator.integers` would.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache
from operator import add, itemgetter, length_hint

import numpy as np

from .events import (
    BALL_IN_PLAY,
    EVENT_TYPES,
    FIELDING_POSITIONS,
    HANDS,
    SEASON_HEADER,
    parse_season,
)
from .numerics import master_rng

__all__ = ["DEFAULT_EVENT_PROBS", "generate_synthetic_season",
           "synthetic_season_batches"]

# 2012 MLBAM event frequencies, renormalized over the taxonomy.
_RAW_FREQ = {
    "Strikeout": 0.196, "Groundout": 0.191, "Single": 0.151, "Flyout": 0.135,
    "Walk": 0.074, "Pop Out": 0.049, "Double": 0.045, "Lineout": 0.036,
    "Home Run": 0.027, "Forceout": 0.022, "Grounded Into DP": 0.020,
    "Field Error": 0.009, "Hit By Pitch": 0.008, "Sac Bunt": 0.008,
    "Sac Fly": 0.007, "Intent Walk": 0.006, "Triple": 0.005,
    "Double Play": 0.003, "Runner Out": 0.003, "Bunt Groundout": 0.002,
    "Fielders Choice Out": 0.002, "Bunt Pop Out": 0.001,
    "Strikeout - DP": 0.001, "Fielders Choice": 0.001,
    "Fan interference": 0.0002, "Batter Interference": 0.0002,
    "Catcher Interference": 0.0001, "Sac Fly DP": 0.0001, "null": 0.0,
    "Bunt Lineout": 0.0001, "Triple Play": 0.0001, "Sacrifice Bunt DP": 0.0001,
}
_total = sum(_RAW_FREQ.values())
DEFAULT_EVENT_PROBS = {e: _RAW_FREQ[e] / _total for e in EVENT_TYPES}

_GOOD_EVENTS = frozenset({"Single", "Double", "Triple", "Home Run", "Walk"})

_LINEUP_POSITIONS = ("C", "1B", "2B", "3B", "SS", "LF", "CF", "RF", "DH")

# canonical fielder standing spots (feet; home plate at origin, y toward CF)
_FIELDER_SPOTS = {
    "P": (0.0, 60.0), "C": (0.0, 3.0), "1B": (62.0, 85.0), "2B": (35.0, 125.0),
    "3B": (-62.0, 85.0), "SS": (-35.0, 125.0), "LF": (-130.0, 250.0),
    "CF": (0.0, 295.0), "RF": (130.0, 250.0),
}

# batted-ball radial range (feet) by event type
_BIP_RANGE = {
    "Groundout": (40, 130), "Bunt Groundout": (15, 60), "Bunt Pop Out": (15, 70),
    "Bunt Lineout": (20, 80), "Pop Out": (60, 200), "Flyout": (180, 340),
    "Lineout": (120, 280), "Single": (110, 260), "Double": (230, 350),
    "Triple": (280, 385), "Field Error": (40, 160), "Forceout": (40, 130),
    "Fielders Choice Out": (40, 130), "Fielders Choice": (40, 130),
    "Grounded Into DP": (40, 130), "Double Play": (40, 200),
    "Triple Play": (40, 130), "Sac Bunt": (15, 60), "Sacrifice Bunt DP": (15, 60),
    "Sac Fly": (250, 340), "Sac Fly DP": (250, 340), "Runner Out": (120, 300),
    "Fan interference": (300, 385),
}


class _Player:
    __slots__ = ("pid", "name", "hand", "position", "skill")

    def __init__(self, pid, name, hand, position, skill):
        self.pid = pid
        self.name = name
        self.hand = hand
        self.position = position
        self.skill = skill


def _cdf(p):
    """The table that `Generator.choice(len(p), p=p)` searches, built as
    numpy builds it: `bisect_right(_cdf(p), rng.random())` consumes the same
    double and returns the same index, without re-checking and re-summing
    `p` on every draw (inverse-CDF sampling, Devroye 1986, ch. 3)."""
    c = np.asarray(p, dtype=float).cumsum()
    c /= c[-1]
    return c.tolist()


_FIELDER_HANDS = _cdf([0.30, 0.62, 0.08])
_PITCHER_HANDS = _cdf([0.28, 0.72, 0.0])


def _build_league(n_teams, rng):
    def player(pid, name, hands, position, skill):
        hand = HANDS[bisect_right(hands, rng.random())]
        return _Player(pid, name, hand, position, skill)

    teams = []
    for t in range(n_teams):
        code = f"T{t + 1:02d}"
        starters = {
            pos: player(f"{code}_{pos}", f"{code} starting {pos}",
                        _FIELDER_HANDS, pos, 1.0)
            for pos in _LINEUP_POSITIONS}
        bench = [player(f"{code}_BN{k + 1}", f"{code} bench {k + 1}",
                        _FIELDER_HANDS, pos, 0.60)
                 for k, pos in enumerate(("C", "SS", "LF", "1B"))]
        rotation = [player(f"{code}_SP{k + 1}", f"{code} starter {k + 1}",
                           _PITCHER_HANDS, "P", 1.0) for k in range(3)]
        relievers = [player(f"{code}_RP{k + 1}", f"{code} reliever {k + 1}",
                            _PITCHER_HANDS, "P", 0.70) for k in range(3)]
        teams.append({
            "code": code, "park": f"PARK_{code}", "starters": starters,
            "bench": bench, "rotation": rotation, "relievers": relievers,
        })
    return teams


def _event_weights(probs, batter_skill, pitcher_skill):
    w = probs.copy()
    boost = batter_skill * (2.0 - pitcher_skill)
    for j, e in enumerate(EVENT_TYPES):
        if e in _GOOD_EVENTS:
            w[j] *= boost
    s = w.sum()
    return w / s if s > 0 else w


# the runners an event puts out, as a slice of the runners lead first
_NOBODY, _LEAD, _LEAD_TWO, _SECOND = slice(0), slice(1), slice(2), slice(1, 2)
_FIRST = slice(-1, None)  # _downgrade keeps these events only with 1B occupied

# event -> (batter destination, outs made, runners put out)
_OUTCOMES = {
    "Strikeout": ("O", 1, _NOBODY), "Batter Interference": ("O", 1, _NOBODY),
    "Strikeout - DP": ("O", 2, _LEAD), "Walk": ("1B", 0, _NOBODY),
    "Intent Walk": ("1B", 0, _NOBODY), "Hit By Pitch": ("1B", 0, _NOBODY),
    "Catcher Interference": ("1B", 0, _NOBODY), "Home Run": ("H", 0, _NOBODY),
    "Single": ("1B", 0, _NOBODY), "Double": ("2B", 0, _NOBODY),
    "Triple": ("3B", 0, _NOBODY), "Field Error": ("1B", 0, _NOBODY),
    "Fan interference": ("2B", 0, _NOBODY), "Groundout": ("O", 1, _NOBODY),
    "Bunt Groundout": ("O", 1, _NOBODY), "Flyout": ("O", 1, _NOBODY),
    "Pop Out": ("O", 1, _NOBODY), "Lineout": ("O", 1, _NOBODY),
    "Bunt Pop Out": ("O", 1, _NOBODY), "Bunt Lineout": ("O", 1, _NOBODY),
    "Sac Fly": ("O", 1, _NOBODY), "Sac Fly DP": ("O", 2, _SECOND),
    "Sac Bunt": ("O", 1, _NOBODY), "Sacrifice Bunt DP": ("O", 2, _LEAD),
    "Grounded Into DP": ("O", 2, _FIRST), "Double Play": ("O", 2, _LEAD),
    "Triple Play": ("O", 3, _LEAD_TWO), "Forceout": ("1B", 1, _FIRST),
    "Fielders Choice Out": ("1B", 1, _FIRST),
    "Fielders Choice": ("1B", 0, _NOBODY), "Runner Out": ("1B", 1, _LEAD),
    "null": ("O", 1, _NOBODY),
}

# events that move only the runners forced by the batter taking first
_FORCED_ONLY = frozenset({"Walk", "Intent Walk", "Hit By Pitch",
                          "Catcher Interference"})
# bases every runner moves up on the events _step gives no rule of its own
_STEPS = {"Home Run": 4, "Triple": 4, "Field Error": 1, "Fan interference": 2,
          "Sac Bunt": 1, "Fielders Choice": 1}


def _downgrade(event, outs, bases):
    """`event`, or the lesser event it becomes when its situation
    prerequisites are unmet (e.g. a double play with nobody on)."""
    n_runners = len(bases)
    if event == "Strikeout - DP" and (n_runners == 0 or outs > 1):
        event = "Strikeout"
    if event in ("Grounded Into DP",) and (1 not in bases or outs > 1):
        event = "Groundout"
    if event == "Double Play" and (n_runners == 0 or outs > 1):
        event = "Groundout"
    if event == "Triple Play" and (n_runners < 2 or outs != 0):
        event = "Double Play" if (n_runners and outs <= 1) else "Groundout"
    if event in ("Forceout", "Fielders Choice Out") and 1 not in bases:
        event = "Groundout"
    if event == "Sac Fly DP" and not (3 in bases and n_runners >= 2 and outs == 0):
        event = "Sac Fly"
    if event == "Sac Fly" and not (3 in bases and outs <= 1):
        event = "Flyout"
    if event == "Sacrifice Bunt DP" and (n_runners == 0 or outs > 1):
        event = "Sac Bunt"
    if event == "Sac Bunt" and (n_runners == 0 or outs > 1):
        event = "Groundout"
    if event in ("Runner Out", "Fielders Choice") and n_runners == 0:
        event = "Single"
    return event


def _step(event, base, outs, bases, taken, chance):
    """How many bases the runner on `base` moves up; `taken` holds the
    bases already given to the runners ahead of it.  Only singles, doubles
    and groundouts with fewer than two outs ask `chance`."""
    if event in _FORCED_ONLY:
        return int(all(b in bases for b in range(1, base)))
    if event == "Single":
        if base == 3:
            return 1
        if base == 2:
            return 2 if chance(0.55) else 1
        return 2 if chance(0.28) and 3 not in taken else 1
    if event == "Double":
        return 3 if base == 1 and chance(0.40) else 2
    if event in ("Groundout", "Bunt Groundout"):
        return int(outs < 2 and chance(0.35))
    if event in ("Sac Fly", "Sac Fly DP"):
        return int(base == 3)
    if event == "Grounded Into DP":
        return int(outs == 0)
    return _STEPS.get(event, 0)


def _apply_event(event, outs, bases, chance):
    """Resolve one event against the current base-out situation.

    `bases` maps base number -> runner id, and `chance(p)` says whether a
    uniform draw falls below p.  Returns (event, batter_dest,
    dests, new_outs, new_bases) where `dests` maps start base -> code and
    `event` may have been downgraded (see `_downgrade`).  Runners move lead
    runner first; one sent to an occupied base goes on to the next free
    one, and one sent to base 4 or beyond scores.
    """
    event = _downgrade(event, outs, bases)
    batter_dest, outs_made, put_out = _OUTCOMES[event]
    lead_first = sorted(bases, reverse=True)
    dests = dict.fromkeys(lead_first[put_out], "O")
    new_bases = {}
    for base in lead_first:
        if base in dests:
            continue
        target = base + _step(event, base, outs, bases, new_bases, chance)
        while target in new_bases:
            target += 1
        if target >= 4:
            dests[base] = "H"
        else:
            dests[base] = f"{target}B"
            new_bases[target] = bases[base]

    # inning over: no runner is left on.  Runs on the play stand, but no
    # event that makes the third out moves a runner: they hold at two outs
    new_outs = min(outs + outs_made, 3)
    return event, batter_dest, dests, new_outs, new_bases if new_outs < 3 else {}


#: the batter's place in the ids an outcome's `take` picks the runners from
_BATTER = 4


def _outcome(outs, mask, event, batter_dest, dests, new_outs, new_bases):
    """One play of the outcome table, from `_apply_event`'s result at
    (outs, mask) whose `new_bases` hold the start base of each runner:
    (state, take, head, tail, bip), in the order the games loop reads it.

    state  end outs * 8 + end bases mask; 24 and up ends the inning
    take   ("", runner on 1B, 2B, 3B, batter) -> the ids on 1B, 2B, 3B,
           "" where empty
    head   the CSV text of start outs, start mask, end outs, end mask
    tail   the CSV text of runner 1-3 destinations ("" for no runner), the
           batter's, runs, final event
    bip    a ball in play's (event code, whether an out was made), or None

    The batter is put on the base reached after the runners, so it
    displaces a runner left on that base (ROADMAP item 1)."""
    if batter_dest in ("1B", "2B", "3B") and new_outs < 3:
        new_bases[int(batter_dest[0])] = _BATTER
    new_mask = _mask(new_bases)
    runs = list(dests.values()).count("H") + (batter_dest == "H")
    return (
        8 * new_outs + new_mask,
        itemgetter(*(new_bases.get(b, 0) for b in (1, 2, 3))),
        f"{outs},{mask},{new_outs},{new_mask}",
        ",".join([*(dests.get(b, "") for b in (1, 2, 3)), batter_dest,
                  str(runs), event]),
        (_EVENT_CODE[event], new_outs > outs) if BALL_IN_PLAY[event] else None)


def _compile(event, outs, mask):
    """The outcome table's entry of `event` drawn at (outs, mask): the
    (threshold, bit) of each chance `_apply_event` asks, in the order it
    asks them, and per pattern of their results (bit set where the draw
    fell below the threshold) the `_outcome`.  Raises RuntimeError if the
    chances asked depend on the result of an earlier one."""
    bases = {b: b for b in (1, 2, 3) if mask >> (b - 1) & 1}
    thresholds = []
    _apply_event(event, outs, bases, lambda p: thresholds.append(p) or False)
    outcomes = []
    for pattern in range(1 << len(thresholds)):
        asked = []

        def scripted(p):
            asked.append(p)
            return pattern >> (len(asked) - 1) & 1 == 1

        result = _apply_event(event, outs, bases, scripted)
        if asked != thresholds:
            raise RuntimeError(
                f"{event!r} at {outs} outs, bases {mask}: chances {asked} "
                f"under pattern {pattern}, {thresholds} when every one fails")
        outcomes.append(_outcome(outs, mask, *result))
    return tuple((p, 1 << j) for j, p in enumerate(thresholds)), tuple(outcomes)


@cache
def _outcome_table():
    """table[event code][outs * 8 + bases mask] -> `_compile`'s entry:
    every play the rules allow, compiled once per process."""
    return tuple(tuple(_compile(event, outs, mask)
                       for outs in range(3) for mask in range(8))
                 for event in EVENT_TYPES)


#: 64-bit words `_Draws` reads from the bit generator at a time; the
#: block size changes no draw
_BLOCK = 8192


class _Draws:
    """The draws a `Generator` over PCG64 `bit_generator` gives, read from
    its raw 64-bit stream a block at a time:

    - `random()` is `(x >> 11) * 2**-53` of the next word x;
    - `integers(k)` is Lemire's bounded draw (Lemire 2019) over 32-bit
      halves, the low half of a word first and its high half kept for the
      next bounded draw, rejection included, for 2 <= k < 2**32.

    A `Generator` keeps that half across `random()` calls too, so the
    two give the same numbers in any order of calls."""

    def __init__(self, bit_generator):
        self._raw = bit_generator.random_raw
        # the block's words, and an iterator over their doubles that is
        # the read position in both
        self._words, self._doubles = [], iter(())
        self._half = None

    def _fill(self):
        words = self._raw(_BLOCK)
        self._words = words.tolist()
        self._doubles = iter(((words >> 11) * 2.0 ** -53).tolist())

    def random(self):
        try:
            return next(self._doubles)
        except StopIteration:
            self._fill()
            return next(self._doubles)

    def _uint32(self):
        half = self._half
        if half is not None:
            self._half = None
            return half
        at = len(self._words) - length_hint(self._doubles)
        if at == len(self._words):
            self._fill()
            at = 0
        next(self._doubles)
        word = self._words[at]
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, k):
        m = self._uint32() * k
        if m & 0xFFFFFFFF < k:
            threshold = (2 ** 32 - k) % k
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * k
        return m >> 32


#: (lo, hi) radial range of each event code's batted balls
_BIP_LO_HI = np.array([_BIP_RANGE.get(e, (60, 250)) for e in EVENT_TYPES], float)
_EVENT_CODE = {e: k for k, e in enumerate(EVENT_TYPES)}
_SPOTS = np.array(list(_FIELDER_SPOTS.values()))
_SPOT_NAMES = np.array(list(_FIELDER_SPOTS), dtype=object)


def _tenths(v):
    """`round(v, 1)` of every value of float array `v`: the tenth nearest
    its exact binary value, ties to even.  10v is exactly s + e, where s is
    8v + 2v rounded and e its rounding error (Knuth's TwoSum); only a
    rounded s that lands on a half can round the other way than 10v."""
    a, b = 8.0 * v, 2.0 * v
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    q = np.rint(s)
    half = s - q
    q += (half == 0.5) & (e > 0)
    q -= (half == -0.5) & (e < 0)
    return np.copysign(q / 10.0, v)  # -0.0 as round gives it


def _bip_locations(events, draws):
    """Batted-ball coordinates (x, y) of in-play events: the event codes
    `events` and, per event, its two uniform draws (radius, angle).  The
    arithmetic is the scalar `lo + (hi - lo) * random()` of
    `Generator.uniform(lo, hi)`, then `round(..., 1)`, done on arrays."""
    lo, hi = _BIP_LO_HI[events].T
    u = np.asarray(draws, dtype=float).reshape(-1, 2)
    r = lo + (hi - lo) * u[:, 0]
    lo = -np.pi / 4  # fair territory spans 90 degrees
    psi = lo + (np.pi / 4 - lo) * u[:, 1]
    return _tenths(r * np.sin(psi)), np.maximum(_tenths(r * np.cos(psi)), 1.0)


def _credited_positions(x, y):
    """The fielder standing spot nearest each (x, y), by position name; the
    first of equally near spots wins."""
    d = (x[:, None] - _SPOTS[:, 0]) ** 2 + (y[:, None] - _SPOTS[:, 1]) ** 2
    return _SPOT_NAMES[np.argmin(d, axis=1)]


def generate_synthetic_season(games, seed, event_probs=None, teams=4):
    """Generate a deterministic synthetic SeasonDataset: `parse_season`
    (strict) of the CSV text `openwar simulate` writes, with every player of
    the league in its roster, those who never appear included.

    games       number of games (>= 1)
    seed        master seed; identical seeds give identical datasets
    event_probs optional dict event type -> probability (must sum to 1)
    teams       league size (>= 2)
    """
    batches, roster = synthetic_season_batches(games, seed, event_probs, teams)
    data, _ = parse_season(SEASON_HEADER + "".join(batches), "strict")
    data.roster = roster
    return data


#: games per batch of `synthetic_season_batches`
_BATCH_GAMES = 100


def synthetic_season_batches(games, seed, event_probs=None, teams=4):
    """The season of `generate_synthetic_season` as (batches, roster): an
    iterator of the CSV text of its records after the header (SEASON_HEADER),
    _BATCH_GAMES games at a time, so that the season need not be held
    whole, and player id -> name.  The text is what `csv.writer` would
    write: no field holds a ',', a quote or a line end, so none is quoted,
    and a coordinate is its float's repr.  The arguments are checked here,
    before the first batch is drawn."""
    if games < 1:
        raise ValueError("games must be >= 1")
    if teams < 2:
        raise ValueError("need at least two teams")
    if event_probs is None:
        probs = np.array([DEFAULT_EVENT_PROBS[e] for e in EVENT_TYPES])
    else:
        unknown = set(event_probs) - set(EVENT_TYPES)
        if unknown:
            raise ValueError(f"unknown event types: {sorted(unknown)}")
        probs = np.array([float(event_probs.get(e, 0.0)) for e in EVENT_TYPES])
        # written so that a NaN fails: it compares false to everything
        if not (np.all(probs >= 0) and abs(probs.sum() - 1.0) <= 1e-9):
            raise ValueError("event probabilities must be nonnegative and sum to 1")

    rng = _Draws(master_rng(seed).bit_generator)
    league = _build_league(teams, rng)

    roster = {}
    for team in league:
        for p in list(team["starters"].values()) + team["bench"] + \
                team["rotation"] + team["relievers"]:
            roster[p.pid] = p.name

    return _batches(games, probs, league, rng), roster


def _batches(games, probs, league, rng):
    """The batches of `synthetic_season_batches`, drawn from `rng` (a
    `_Draws`) for a season of `games` games in `league`."""
    teams = len(league)
    table = _outcome_table()
    random = rng.random
    # one CSV line per plate appearance, up to the fielders; the batted
    # balls of a batch are located after it, from the draws they took, and
    # that pass draws nothing
    lines = []
    in_play = []  # per ball in play: its line, event code, whether out made
    draws = []  # per ball in play: radius draw, then angle draw
    cdfs = {}  # (batter skill, pitcher skill) -> CDF of the event draw
    for g in range(games):
        away = league[(2 * g) % teams]
        home = league[(2 * g + 1) % teams]
        game_id = f"{away['code']}@{home['code']}-{g + 1:04d}"
        park = home["park"]

        # lineups: starters with occasional bench starts
        lineups = {}
        fielders = {}
        for side, team in (("top", away), ("bottom", home)):
            field_map = dict(team["starters"])
            lineup = []
            for pos in _LINEUP_POSITIONS:
                player = field_map[pos]
                if random() < 0.18:
                    player = team["bench"][rng.integers(len(team["bench"]))]
                    field_map[pos] = player
                lineup.append((player, pos))
            lineups[side] = lineup
            fielders[side] = field_map
        pitchers = {
            "top": (home["rotation"][g % 3],
                    home["relievers"][rng.integers(3)]),
            "bottom": (away["rotation"][g % 3],
                       away["relievers"][rng.integers(3)]),
        }

        slot = {"top": 0, "bottom": 0}
        pa_index = 0
        for inning in range(1, 10):
            for half in ("top", "bottom"):
                defense_side = "bottom" if half == "top" else "top"
                starter, reliever = pitchers[half]
                pitcher = starter if inning <= 6 else reliever
                field_map = fielders[defense_side]
                fielder_ids = ",".join(
                    pitcher.pid if pos == "P" else field_map[pos].pid
                    for pos in FIELDING_POSITIONS)

                # state is outs * 8 + the bases mask; r1, r2 and r3 are the
                # ids on 1B, 2B and 3B ("" where empty)
                state, (r1, r2, r3) = 0, ("", "", "")
                while state < 24:
                    batter, position = lineups[half][slot[half] % 9]
                    batter_position = position
                    if inning >= 7 and random() < 0.05:
                        team = away if half == "top" else home
                        batter = team["bench"][rng.integers(len(team["bench"]))]
                        batter_position = "PH"
                    slot[half] += 1

                    skills = (batter.skill, pitcher.skill)
                    cdf = cdfs.get(skills)
                    if cdf is None:
                        cdf = cdfs[skills] = _cdf(_event_weights(probs, *skills))
                    chances, outcomes = table[bisect_right(cdf, random())][state]
                    pattern = 0
                    for p, bit in chances:
                        if random() < p:
                            pattern += bit
                    state, take, head, tail, bip = outcomes[pattern]
                    if bip:
                        in_play += len(lines), *bip
                        draws += random(), random()

                    pa_index += 1
                    lines.append(
                        f"{game_id},{pa_index},{inning},{half},{batter.pid},"
                        f"{pitcher.pid},{head},{r1},{r2},{r3},{tail},{park},"
                        f"{batter.hand},{pitcher.hand},{batter_position},"
                        f"{fielder_ids}")
                    r1, r2, r3 = take(("", r1, r2, r3, batter.pid))

        if (g + 1) % _BATCH_GAMES == 0 or g + 1 == games:
            yield _locate(lines, in_play, draws)
            lines, in_play, draws = [], [], []


def _locate(lines, in_play, draws):
    """The CSV text of `lines`, each line ended with its bip_x, bip_y and
    credited_fielder_position: from the balls in play `in_play` and their
    `draws`, and empty on every other line."""
    ends = [",,,\n"] * len(lines)
    at, events, made_out = np.array(in_play, np.intp).reshape(-1, 3).T
    x, y = _bip_locations(events, draws)
    credited = np.where(made_out == 1, _credited_positions(x, y), "")
    for k, bx, by, position in zip(at.tolist(), x.tolist(), y.tolist(),
                                   credited.tolist()):
        ends[k] = f",{bx!r},{by!r},{position}\n"
    return "".join(map(add, lines, ends))


def _mask(bases):
    m = 0
    for b in bases:
        m |= 1 << (b - 1)
    return m
