"""Per-player tabulation, replacement level, and the runs-to-wins bridge.

A player's runs above average is the sum of the player's hitting,
baserunning, fielding and pitching credits in the ledger's credit table.
Replacement level is the complement of the top-N players by playing
time within each role (position players by plate appearances, pitchers
by batters faced); a player's replacement shadow applies the
replacement tier's per-event rates to the player's own event counts.
"""

from __future__ import annotations

import io
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "COMPONENTS",
    "CreditTable",
    "PlayerValuation",
    "ReplacementPool",
    "tabulate_raa",
    "build_replacement_pool",
    "shadow_and_war",
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
    """

    player_ids: list
    n_pas: int
    pa: np.ndarray
    player: np.ndarray
    component: np.ndarray  # index into COMPONENTS
    value: np.ndarray

    @classmethod
    def build(cls, n_pas, pa, player, player_ids, component, value):
        """`player` holds codes into the sorted `player_ids`; the table
        keeps only the players with a credit, recoded in the same order."""
        used, player = np.unique(player, return_inverse=True)
        return cls(player_ids=[player_ids[k] for k in used.tolist()],
                   n_pas=n_pas, pa=np.asarray(pa, dtype=np.intp),
                   player=player.reshape(-1),
                   component=np.asarray(component, dtype=np.intp),
                   value=np.asarray(value, dtype=float))


@dataclass
class PlayerValuation:
    player_id: str
    name: str
    raa: dict = field(default_factory=lambda: {c: 0.0 for c in COMPONENTS})
    counts: dict = field(default_factory=lambda: {c: 0 for c in COMPONENTS})
    tier: str = None  # major_league | replacement
    raa_repl: float = 0.0
    war: float = None

    @property
    def raa_total(self):
        return sum(self.raa.values())

    @property
    def plate_appearances(self):
        return self.counts["hit"]

    @property
    def batters_faced(self):
        return self.counts["pitch"]

    @property
    def role(self):
        return "pitcher" if self.counts["pitch"] > self.counts["hit"] \
            else "position"


def tabulate_raa(ledger, roster):
    """Sum the ledger's credit table into per-player valuations.

    `ledger.credits` is a CreditTable; any credited player missing from the
    roster is an error.
    """
    table = ledger.credits
    for pid in table.player_ids:
        if pid not in roster:
            raise KeyError(f"player {pid!r} appears in the ledger but not the roster")
    k = len(COMPONENTS)
    key = table.player * k + table.component
    size = len(table.player_ids) * k
    raa = np.bincount(key, weights=table.value, minlength=size).reshape(-1, k)
    counts = np.bincount(key, minlength=size).reshape(-1, k)
    return {
        pid: PlayerValuation(player_id=pid, name=roster[pid],
                             raa=dict(zip(COMPONENTS, raa[j].tolist())),
                             counts=dict(zip(COMPONENTS, counts[j].tolist())))
        for j, pid in enumerate(table.player_ids)}


@dataclass
class ReplacementPool:
    cutoff_pos: int
    cutoff_pitch: int
    rates: dict  # component -> replacement RAA per event
    replacement_ids: set

    def tier(self, player_id):
        return "replacement" if player_id in self.replacement_ids \
            else "major_league"


def build_replacement_pool(valuations, cutoff_pos=DEFAULT_CUTOFF_POS,
                           cutoff_pitch=DEFAULT_CUTOFF_PITCH):
    """Split the league into major-league and replacement tiers.

    Top `cutoff_pos` position players by plate appearances and top
    `cutoff_pitch` pitchers by batters faced are major league; everyone
    else is replacement.  Ties at the cutoff break by player id.
    """
    if min(cutoff_pos, cutoff_pitch) < 0:
        raise ValueError(f"cutoffs must be >= 0, not {cutoff_pos} and "
                         f"{cutoff_pitch}")
    position = [v for v in valuations.values() if v.role == "position"]
    pitchers = [v for v in valuations.values() if v.role == "pitcher"]
    position.sort(key=lambda v: (-v.plate_appearances, v.player_id))
    pitchers.sort(key=lambda v: (-v.batters_faced, v.player_id))

    repl = set()
    for group, cutoff, label in ((position, cutoff_pos, "position players"),
                                 (pitchers, cutoff_pitch, "pitchers")):
        if len(group) <= cutoff:
            warnings.warn(f"only {len(group)} {label} for cutoff {cutoff}; "
                          "replacement pool is empty for that role")
        repl.update(v.player_id for v in group[cutoff:])

    rates = {}
    ordered = sorted(repl)  # a set's order follows the hash seed
    for comp in COMPONENTS:
        total = sum(valuations[p].raa[comp] for p in ordered)
        events = sum(valuations[p].counts[comp] for p in ordered)
        rates[comp] = total / events if events else 0.0
    return ReplacementPool(cutoff_pos=cutoff_pos, cutoff_pitch=cutoff_pitch,
                           rates=rates, replacement_ids=repl)


def shadow_and_war(valuation, pool, rpw=DEFAULT_RUNS_PER_WIN):
    """Attach tier, replacement shadow, and WAR to one valuation."""
    valuation.tier = pool.tier(valuation.player_id)
    valuation.raa_repl = sum(
        pool.rates[c] * valuation.counts[c] for c in COMPONENTS)
    valuation.war = (valuation.raa_total - valuation.raa_repl) / rpw
    return valuation


def value_players(ledger, roster, cutoff_pos=DEFAULT_CUTOFF_POS,
                  cutoff_pitch=DEFAULT_CUTOFF_PITCH, rpw=DEFAULT_RUNS_PER_WIN):
    """Tabulate, classify, and convert to WAR in one pass."""
    valuations = tabulate_raa(ledger, roster)
    pool = build_replacement_pool(valuations, cutoff_pos, cutoff_pitch)
    for v in valuations.values():
        shadow_and_war(v, pool, rpw)
    return valuations, pool


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


def _row(v):
    """One player's output fields, in _COLUMNS order."""
    return (v.player_id, v.name, v.plate_appearances, v.batters_faced,
            *(v.raa[c] for c in COMPONENTS), v.raa_total, v.tier, v.raa_repl,
            v.war)


def valuation_csv(valuations):
    out = io.StringIO()
    out.write(",".join(_COLUMNS) + "\n")
    for pid in sorted(valuations):
        out.write(",".join(repr(float(x)) if isinstance(x, float) else str(x)
                           for x in _row(valuations[pid])) + "\n")
    return out.getvalue()


def valuation_json(valuations):
    payload = [dict(zip(_COLUMNS, _row(valuations[pid])))
               for pid in sorted(valuations)]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
