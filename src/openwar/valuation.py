"""Per-player tabulation, replacement level, and the runs-to-wins bridge.

A player's runs above average is the sum of the player's hitting,
baserunning, fielding and pitching credits in the ledger's credit table.
Replacement level is the complement of the top-N players by playing
time within each role (position players by plate appearances, pitchers
by batters faced); a player's replacement shadow applies the
replacement tier's per-event rates to the player's own event counts.
`value_players` returns one `Valuation`: arrays with a row per credited
player, in the credit table's player order, from which the shadow and
WAR are derived.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "COMPONENTS",
    "CreditTable",
    "Valuation",
    "tabulate_raa",
    "build_replacement_pool",
    "value_players",
    "runs_per_win",
    "pythag_wpct",
    "valuation_csv",
    "valuation_json",
]

COMPONENTS = ("hit", "br", "field", "pitch")

DEFAULT_CUTOFF_POS = 390  # 30 teams x 13 position players
DEFAULT_CUTOFF_PITCH = 360  # 30 teams x 12 pitchers
DEFAULT_RUNS_PER_WIN = 10.0


@dataclass
class CreditTable:
    """Every per-plate-appearance credit of a season, one row per credit.

    Row r gives player `player_ids[player[r]]` the value `value[r]` (runs)
    in component `COMPONENTS[component[r]]` on plate appearance `pa[r]`,
    an ordinal below `n_pas`.  `player_ids` is sorted, so player codes
    follow id order.  Rows of one (player, component) pair come in
    plate-appearance order, which fixes the order their sums add in.
    `pa` and `player` are int32, `component` int8 and `value` float64.
    `game_starts` holds the sorted ordinals of the plate appearances that
    begin a game, empty when the games are not known; it shapes only the
    bootstrap's blocks, which no result depends on beyond rounding.
    """

    player_ids: list
    n_pas: int
    pa: np.ndarray
    player: np.ndarray
    component: np.ndarray  # index into COMPONENTS
    value: np.ndarray
    game_starts: np.ndarray

    @classmethod
    def build(cls, n_pas, pa, player, player_ids, component, value,
              game_starts=()):
        """`player` holds codes into the sorted `player_ids`; the table
        keeps only the players with a credit, recoded in the same order:
        a player's new code is the number of used codes below its own."""
        if n_pas >= 2 ** 31:
            raise ValueError(f"{n_pas} plate appearances do not fit the "
                             "int32 pa column")
        game_starts = np.asarray(game_starts, dtype=np.int64)
        if np.any(np.diff(game_starts) <= 0) or np.any(game_starts < 0) \
                or np.any(game_starts >= n_pas):
            raise ValueError("game starts must be increasing plate "
                             f"appearances below {n_pas}")
        player = np.asarray(player)
        used = np.zeros(len(player_ids), dtype=bool)
        used[player] = True
        code = np.cumsum(used, dtype=np.int32) - 1
        return cls(player_ids=[player_ids[k]
                               for k in np.flatnonzero(used).tolist()],
                   n_pas=n_pas, pa=np.asarray(pa, dtype=np.int32),
                   player=code[player],
                   component=np.asarray(component, dtype=np.int8),
                   value=np.asarray(value, dtype=float),
                   game_starts=game_starts)


#: the playing-time columns of each role: plate appearances and batters faced
_HIT, _PITCH = COMPONENTS.index("hit"), COMPONENTS.index("pitch")


def _in_order(terms):
    """Sum of `terms` over axis 0, added one after another from 0.0, as a
    scalar loop adds (np.sum adds pairwise, Python 3.12's sum compensates),
    so every output keeps its last digit."""
    start = np.zeros((1, *terms.shape[1:]))
    return np.cumsum(np.concatenate([start, terms]), axis=0)[-1]


@dataclass
class Valuation:
    """Every credited player's valuation, as arrays indexed like the
    credit table's sorted `player_ids`.

    `raa` and `counts` are (m, 4) in COMPONENTS order: runs above average
    and credited events.  Players in the `replacement` tier set the four
    replacement `rates` (runs per event); the shadow and WAR follow from
    those and `rpw` (runs per win), so they are never stored.
    """

    player_ids: list
    names: list
    raa: np.ndarray
    counts: np.ndarray
    replacement: np.ndarray  # bool
    rates: np.ndarray
    rpw: float

    def __len__(self):
        return len(self.player_ids)

    @property
    def raa_total(self):
        return _in_order(self.raa.T)

    @property
    def raa_repl(self):
        """The replacement shadow: the rates charged to the player's own
        event counts."""
        return _in_order((self.rates * self.counts).T)

    @property
    def war(self):
        return (self.raa_total - self.raa_repl) / self.rpw


def tabulate_raa(credits, roster):
    """Sum the credit table per player: (names, raa, counts), the last two
    (m, 4).  A credited player missing from the roster is an error."""
    for pid in credits.player_ids:
        if pid not in roster:
            raise KeyError(f"player {pid!r} appears in the ledger but not the roster")
    k = len(COMPONENTS)
    key = credits.player * k + credits.component
    size = len(credits.player_ids) * k
    raa = np.bincount(key, weights=credits.value, minlength=size).reshape(-1, k)
    counts = np.bincount(key, minlength=size).reshape(-1, k)
    return [roster[pid] for pid in credits.player_ids], raa, counts


def build_replacement_pool(raa, counts, cutoff_pos=DEFAULT_CUTOFF_POS,
                           cutoff_pitch=DEFAULT_CUTOFF_PITCH):
    """Split the league into major-league and replacement tiers: the
    replacement mask and the tier's per-event rates.

    A player with more batters faced than plate appearances is a
    pitcher.  The top `cutoff_pos` position players by plate appearances
    and top `cutoff_pitch` pitchers by batters faced are major league;
    everyone else is replacement.  Rows are in id order, so a stable sort
    breaks ties at the cutoff by player id.
    """
    if min(cutoff_pos, cutoff_pitch) < 0:
        raise ValueError(f"cutoffs must be >= 0, not {cutoff_pos} and "
                         f"{cutoff_pitch}")
    pitcher = counts[:, _PITCH] > counts[:, _HIT]
    replacement = np.zeros(len(counts), dtype=bool)
    for group, column, cutoff, label in (
            (~pitcher, _HIT, cutoff_pos, "position players"),
            (pitcher, _PITCH, cutoff_pitch, "pitchers")):
        members = np.flatnonzero(group)
        if len(members) <= cutoff:
            warnings.warn(f"only {len(members)} {label} for cutoff {cutoff}; "
                          "replacement pool is empty for that role")
        order = np.argsort(-counts[members, column], kind="stable")
        replacement[members[order[cutoff:]]] = True
    events = counts[replacement].sum(axis=0)
    rates = np.zeros(len(COMPONENTS))
    np.divide(_in_order(raa[replacement]), events, out=rates,
              where=events > 0)
    return replacement, rates


def value_players(credits, roster, cutoff_pos=DEFAULT_CUTOFF_POS,
                  cutoff_pitch=DEFAULT_CUTOFF_PITCH, rpw=DEFAULT_RUNS_PER_WIN):
    """Tabulate the credit table and split it into tiers: the Valuation."""
    names, raa, counts = tabulate_raa(credits, roster)
    replacement, rates = build_replacement_pool(raa, counts, cutoff_pos,
                                                cutoff_pitch)
    return Valuation(player_ids=list(credits.player_ids), names=names,
                     raa=raa, counts=counts, replacement=replacement,
                     rates=rates, rpw=rpw)


def runs_per_win(p, r):
    """Runs equivalent to one win over 162 games: 2r / (81p)."""
    if not (p > 0 and math.isfinite(p) and r > 0 and math.isfinite(r)):
        raise ValueError("exponent and runs-per-season must be positive "
                         "and finite")
    return 2.0 * r / (81.0 * p)


def pythag_wpct(rs, ra, p):
    """Pythagorean expected winning percentage and its gradient.

    Returns (wpct, (d/dRS, d/dRA)).
    """
    if rs <= 0 or ra <= 0:
        raise ValueError("runs scored/allowed must be positive")
    ratio = (ra / rs) ** p
    wpct = 1.0 / (1.0 + ratio)
    common = p * ratio / (1.0 + ratio) ** 2
    return wpct, (common / rs, -common / ra)


#: the columns of valuation_csv, and the keys of each valuation_json entry
_COLUMNS = ("player_id", "name", "PA", "BF", "raa_hit", "raa_br", "raa_field",
            "raa_pitch", "raa", "tier", "raa_repl", "war")


def _rows(valuation):
    """Each player's output fields, in _COLUMNS order, as Python scalars."""
    v = valuation
    tier = np.where(v.replacement, "replacement", "major_league")
    arrays = (v.counts[:, _HIT], v.counts[:, _PITCH], *v.raa.T, v.raa_total,
              tier, v.raa_repl, v.war)
    return zip(v.player_ids, v.names, *(a.tolist() for a in arrays))


def valuation_csv(valuation):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_COLUMNS)
    writer.writerows(_rows(valuation))
    return out.getvalue()


def valuation_json(valuation, config):
    """The JSON document {"config": config, "players": [each player's
    output fields]}."""
    players = [dict(zip(_COLUMNS, row)) for row in _rows(valuation)]
    return json.dumps({"config": config, "players": players}, indent=2,
                      sort_keys=True) + "\n"
