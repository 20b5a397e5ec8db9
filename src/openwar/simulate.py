"""Deterministic synthetic season generator.

Produces valid play-by-play datasets at desk scale: a small league of
teams with starter and bench tiers, seeded event sampling from the
observed MLBAM event frequencies, plausible runner advancement, and
batted-ball coordinates inside fair territory.  Identical seeds give
byte-identical output.
"""

from __future__ import annotations

import numpy as np

from .events import (
    BALL_IN_PLAY,
    EVENT_TYPES,
    FIELDING_POSITIONS,
    GameState,
    PlateAppearance,
    SeasonDataset,
)
from .numerics import master_rng

__all__ = ["DEFAULT_EVENT_PROBS", "generate_synthetic_season"]

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


def _build_league(n_teams, rng):
    teams = []
    hands = np.array(["L", "R", "S"])
    for t in range(n_teams):
        code = f"T{t + 1:02d}"
        starters = {}
        for pos in _LINEUP_POSITIONS:
            pid = f"{code}_{pos}"
            starters[pos] = _Player(
                pid, f"{code} starting {pos}",
                str(rng.choice(hands, p=[0.30, 0.62, 0.08])), pos, 1.0)
        bench = []
        for k, pos in enumerate(("C", "SS", "LF", "1B")):
            pid = f"{code}_BN{k + 1}"
            bench.append(_Player(
                pid, f"{code} bench {k + 1}",
                str(rng.choice(hands, p=[0.30, 0.62, 0.08])), pos, 0.60))
        rotation = []
        for k in range(3):
            pid = f"{code}_SP{k + 1}"
            rotation.append(_Player(
                pid, f"{code} starter {k + 1}",
                str(rng.choice(hands, p=[0.28, 0.72, 0.0])), "P", 1.0))
        relievers = []
        for k in range(3):
            pid = f"{code}_RP{k + 1}"
            relievers.append(_Player(
                pid, f"{code} reliever {k + 1}",
                str(rng.choice(hands, p=[0.28, 0.72, 0.0])), "P", 0.70))
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


def _advance(base, n):
    target = base + n
    return "H" if target >= 4 else f"{target}B"


def _apply_event(event, outs, bases, rng):
    """Resolve one event against the current base-out situation.

    `bases` maps base number -> runner id.  Returns (event, batter_dest,
    dests, new_outs, new_bases) where `dests` maps start base -> code and
    `event` may have been downgraded when its prerequisites are unmet
    (e.g. a double play with nobody on).
    """
    lead = max(bases) if bases else None
    n_runners = len(bases)

    # downgrade events whose situation prerequisites are not met
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

    dests = {}
    new_bases = {}
    batter_dest = None
    outs_made = 0

    def place(base, runner, dest):
        dests[base] = dest
        if dest in ("1B", "2B", "3B"):
            tb = int(dest[0])
            while tb in new_bases:  # safety: never stack two runners
                tb += 1
                if tb >= 4:
                    dests[base] = "H"
                    return
            dests[base] = f"{tb}B"
            new_bases[tb] = runner

    def hold_all(skip=()):
        for b, r in bases.items():
            if b not in dests and b not in skip:
                place(b, r, f"{b}B")

    if event in ("Strikeout", "Batter Interference"):
        batter_dest, outs_made = "O", 1
        hold_all()
    elif event == "Strikeout - DP":
        batter_dest, outs_made = "O", 2
        dests[lead] = "O"
        hold_all(skip=(lead,))
    elif event in ("Walk", "Intent Walk", "Hit By Pitch", "Catcher Interference"):
        batter_dest = "1B"
        # forced runners move up one base
        forced = []
        b = 1
        while b in bases:
            forced.append(b)
            b += 1
        for b in sorted(bases, reverse=True):
            if b in forced:
                place(b, bases[b], _advance(b, 1))
            else:
                place(b, bases[b], f"{b}B")
    elif event == "Home Run":
        batter_dest = "H"
        for b in sorted(bases, reverse=True):
            dests[b] = "H"
    elif event == "Single":
        for b in sorted(bases, reverse=True):
            if b == 3:
                place(b, bases[b], "H")
            elif b == 2:
                place(b, bases[b], "H" if rng.random() < 0.55 else "3B")
            else:
                extra = rng.random() < 0.28 and 3 not in new_bases
                place(b, bases[b], "3B" if extra else "2B")
        batter_dest = "1B"
    elif event == "Double":
        for b in sorted(bases, reverse=True):
            if b >= 2:
                place(b, bases[b], "H")
            else:
                place(b, bases[b], "H" if rng.random() < 0.40 else "3B")
        batter_dest = "2B"
    elif event == "Triple":
        for b in sorted(bases, reverse=True):
            dests[b] = "H"
        batter_dest = "3B"
    elif event in ("Field Error", "Fan interference"):
        step = 2 if event == "Fan interference" else 1
        for b in sorted(bases, reverse=True):
            place(b, bases[b], _advance(b, step))
        batter_dest = "2B" if event == "Fan interference" else "1B"
        if int(batter_dest[0]) in new_bases:
            batter_dest = _advance(int(batter_dest[0]), 1)
    elif event in ("Groundout", "Bunt Groundout"):
        batter_dest, outs_made = "O", 1
        if outs < 2:
            for b in sorted(bases, reverse=True):
                if rng.random() < 0.35:
                    place(b, bases[b], _advance(b, 1))
                else:
                    place(b, bases[b], f"{b}B")
        else:
            hold_all()
    elif event in ("Flyout", "Pop Out", "Lineout", "Bunt Pop Out", "Bunt Lineout"):
        batter_dest, outs_made = "O", 1
        hold_all()
    elif event == "Sac Fly":
        batter_dest, outs_made = "O", 1
        dests[3] = "H"
        hold_all(skip=(3,))
    elif event == "Sac Fly DP":
        batter_dest, outs_made = "O", 2
        dests[3] = "H"
        other = max(b for b in bases if b != 3)
        dests[other] = "O"
        hold_all(skip=(3, other))
    elif event == "Sac Bunt":
        batter_dest, outs_made = "O", 1
        for b in sorted(bases, reverse=True):
            place(b, bases[b], _advance(b, 1))
    elif event == "Sacrifice Bunt DP":
        batter_dest, outs_made = "O", 2
        dests[lead] = "O"
        hold_all(skip=(lead,))
    elif event == "Grounded Into DP":
        batter_dest, outs_made = "O", 2
        dests[1] = "O"
        if outs == 0:
            for b in sorted(bases, reverse=True):
                if b != 1:
                    place(b, bases[b], _advance(b, 1))
        else:
            hold_all(skip=(1,))
    elif event == "Double Play":
        batter_dest, outs_made = "O", 2
        dests[lead] = "O"
        hold_all(skip=(lead,))
    elif event == "Triple Play":
        batter_dest, outs_made = "O", 3
        two = sorted(bases, reverse=True)[:2]
        for b in two:
            dests[b] = "O"
        hold_all(skip=tuple(two))
    elif event in ("Forceout", "Fielders Choice Out"):
        outs_made = 1
        dests[1] = "O"
        hold_all(skip=(1,))
        batter_dest = "1B"
        new_bases[1] = None  # batter placed below
    elif event == "Fielders Choice":
        for b in sorted(bases, reverse=True):
            place(b, bases[b], _advance(b, 1))
        batter_dest = "1B"
    elif event == "Runner Out":
        outs_made = 1
        dests[lead] = "O"
        hold_all(skip=(lead,))
        batter_dest = "1B"
    else:  # "null" and anything unhandled: no-op out of caution
        batter_dest, outs_made = "O", 1
        hold_all()

    new_outs = outs + outs_made
    if new_outs >= 3:
        # inning over: runs on the play stand only for destinations already
        # marked "H" before the third out; our resolution above never scores
        # a run on an inning-ending groundout because runners hold at 2 outs
        new_outs = 3
        end_bases = {}
    else:
        end_bases = {b: r for b, r in new_bases.items() if r is not None}

    return event, batter_dest, dests, new_outs, end_bases


def _bip_location(event, rng):
    lo, hi = _BIP_RANGE.get(event, (60, 250))
    r = rng.uniform(lo, hi)
    psi = rng.uniform(-np.pi / 4, np.pi / 4)  # fair territory spans 90 degrees
    x = round(float(r * np.sin(psi)), 1)
    y = round(float(r * np.cos(psi)), 1)
    return (x, max(y, 1.0))


def _credited_position(xy):
    x, y = xy
    best, best_d = None, None
    for pos, (px, py) in _FIELDER_SPOTS.items():
        d = (x - px) ** 2 + (y - py) ** 2
        if best_d is None or d < best_d:
            best, best_d = pos, d
    return best


def generate_synthetic_season(games, seed, event_probs=None, teams=4):
    """Generate a deterministic synthetic SeasonDataset.

    games       number of games (>= 1)
    seed        master seed; identical seeds give identical datasets
    event_probs optional dict event type -> probability (must sum to 1)
    teams       league size (>= 2)
    """
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
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("event probabilities must be nonnegative and sum to 1")

    rng = master_rng(seed)
    league = _build_league(teams, rng)

    roster = {}
    parks = set()
    for team in league:
        parks.add(team["park"])
        for p in list(team["starters"].values()) + team["bench"] + \
                team["rotation"] + team["relievers"]:
            roster[p.pid] = p.name

    pas = []
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
                if rng.random() < 0.18:
                    player = team["bench"][int(rng.integers(len(team["bench"])))]
                    field_map[pos] = player
                lineup.append((player, pos))
            lineups[side] = lineup
            fielders[side] = field_map
        pitchers = {
            "top": (home["rotation"][g % 3],
                    home["relievers"][int(rng.integers(3))]),
            "bottom": (away["rotation"][g % 3],
                       away["relievers"][int(rng.integers(3))]),
        }

        slot = {"top": 0, "bottom": 0}
        pa_index = 0
        for inning in range(1, 10):
            for half in ("top", "bottom"):
                defense_side = "bottom" if half == "top" else "top"
                starter, reliever = pitchers[half]
                pitcher = starter if inning <= 6 else reliever
                field_map = fielders[defense_side]
                fielder_ids = tuple(
                    pitcher.pid if pos == "P" else field_map[pos].pid
                    for pos in FIELDING_POSITIONS)

                outs, bases = 0, {}
                while outs < 3:
                    batter, position = lineups[half][slot[half] % 9]
                    batter_position = position
                    if inning >= 7 and rng.random() < 0.05:
                        team = away if half == "top" else home
                        batter = team["bench"][int(rng.integers(len(team["bench"])))]
                        batter_position = "PH"
                    slot[half] += 1

                    w = _event_weights(probs, batter.skill, pitcher.skill)
                    event = EVENT_TYPES[int(rng.choice(len(EVENT_TYPES), p=w))]
                    event, batter_dest, dests, new_outs, new_bases = \
                        _apply_event(event, outs, bases, rng)
                    if batter_dest in ("1B", "2B", "3B") and new_outs < 3:
                        new_bases[int(batter_dest[0])] = batter

                    runs = sum(1 for d in dests.values() if d == "H")
                    runs += 1 if batter_dest == "H" else 0
                    bip = _bip_location(event, rng) if BALL_IN_PLAY[event] else None
                    outs_on_play = new_outs - outs
                    credited = (
                        _credited_position(bip)
                        if bip is not None and outs_on_play > 0 else None)

                    pa_index += 1
                    pas.append(PlateAppearance(
                        game_id=game_id,
                        pa_index=pa_index,
                        inning=inning,
                        half=half,
                        batter_id=batter.pid,
                        pitcher_id=pitcher.pid,
                        start_state=GameState(outs, _mask(bases)),
                        end_state=GameState(new_outs, _mask(new_bases) if new_outs < 3 else 0),
                        runner_ids=tuple(
                            bases[b].pid if b in bases else None for b in (1, 2, 3)),
                        runner_dests=tuple(
                            dests.get(b) if b in bases else None for b in (1, 2, 3)),
                        batter_dest=batter_dest,
                        runs_scored=runs,
                        event_type=event,
                        ballpark_id=park,
                        batter_hand=batter.hand,
                        pitcher_hand=pitcher.hand,
                        batter_position=batter_position,
                        fielder_ids=fielder_ids,
                        bip_location=bip,
                        credited_fielder_position=credited,
                    ))
                    outs, bases = new_outs, new_bases

    return SeasonDataset.from_records(pas, roster=roster, parks=parks)


def _mask(bases):
    m = 0
    for b in bases:
        m |= 1 << (b - 1)
    return m
