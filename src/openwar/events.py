"""Play-by-play data model: event taxonomy, records, CSV parsing and validation.

The on-disk format is a flat UTF-8 CSV with one row per plate appearance.
Base-out states are encoded as an out count (0-3) plus a 3-bit base
occupancy mask (bit0 = first, bit1 = second, bit2 = third).  Runner and
batter destinations use the codes "1B", "2B", "3B", "H" (scored) and
"O" (out); empty string means the field is absent.

In memory a season is a SeasonDataset of integer-coded numpy columns.
`PlateAppearance` is its row view: the input of
`SeasonDataset.from_records` and what `SeasonDataset.record(i)` returns.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import attrgetter, itemgetter, methodcaller, ne

import numpy as np

__all__ = [
    "EVENT_TYPES",
    "BALL_IN_PLAY",
    "DESTINATIONS",
    "FIELDING_POSITIONS",
    "BATTER_POSITIONS",
    "GameState",
    "PlateAppearance",
    "SeasonDataset",
    "ValidationReport",
    "SchemaError",
    "TaxonomyError",
    "ChainError",
    "RecordError",
    "parse_season",
    "season_csv",
    "serialize_season",
    "validate_dataset",
    "aggregate_team_totals",
]

# Closed event taxonomy (MLBAM GameDay event strings).
_NOT_IN_PLAY = frozenset({
    "Strikeout",
    "Walk",
    "Intent Walk",
    "Hit By Pitch",
    "Home Run",
    "Catcher Interference",
    "Batter Interference",
    "Strikeout - DP",
    "null",
})

EVENT_TYPES = (
    "Strikeout", "Groundout", "Single", "Flyout", "Walk", "Pop Out",
    "Double", "Lineout", "Home Run", "Forceout", "Grounded Into DP",
    "Field Error", "Hit By Pitch", "Sac Bunt", "Sac Fly", "Intent Walk",
    "Triple", "Double Play", "Runner Out", "Bunt Groundout",
    "Fielders Choice Out", "Bunt Pop Out", "Strikeout - DP",
    "Fielders Choice", "Fan interference", "Batter Interference",
    "Catcher Interference", "Sac Fly DP", "null", "Bunt Lineout",
    "Triple Play", "Sacrifice Bunt DP",
)

#: event -> True when the ball is fieldable by the defense
BALL_IN_PLAY = {e: e not in _NOT_IN_PLAY for e in EVENT_TYPES}

DESTINATIONS = ("1B", "2B", "3B", "H", "O")

FIELDING_POSITIONS = ("P", "C", "1B", "2B", "3B", "SS", "LF", "CF", "RF")
BATTER_POSITIONS = FIELDING_POSITIONS + ("DH", "PH")
HANDS = ("L", "R", "S")
HALVES = ("top", "bottom")

CSV_COLUMNS = (
    "game_id", "pa_index", "inning", "half", "batter_id", "pitcher_id",
    "start_outs", "start_bases", "end_outs", "end_bases",
    "runner1_id", "runner2_id", "runner3_id",
    "runner1_dest", "runner2_dest", "runner3_dest",
    "batter_dest", "runs_scored", "event_type", "ballpark_id",
    "batter_hand", "pitcher_hand", "batter_position",
    "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9",
    "bip_x", "bip_y",
)
#: optional extra column: which position converted the out on a ball in play
OPTIONAL_COLUMNS = ("credited_fielder_position",)

_INT_COLUMNS = ("pa_index", "inning", "start_outs", "start_bases",
                "end_outs", "end_bases", "runs_scored")
_INT64 = np.iinfo(np.int64)
#: characters read per step of the parser, so the text never all lives at once
_CHUNK_CHARS = 1 << 20
#: a chunk with any of these needs csv.reader's quoting and line-end rules
_READER_ONLY = ('"', "\r", "\0")
#: _MASKS[k] keeps the first k bytes of a little-endian 8-byte word
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


class SchemaError(ValueError):
    """CSV header does not match the documented schema."""


class TaxonomyError(ValueError):
    """Record carries an event_type outside the closed taxonomy."""


class RecordError(ValueError):
    """A record violates a field-level invariant."""


class ChainError(ValueError):
    """Consecutive records within a half-inning disagree on game state."""


@dataclass(frozen=True)
class GameState:
    outs: int
    bases: int

    def __post_init__(self):
        if self.outs not in (0, 1, 2, 3):
            raise RecordError(f"outs must be 0-3, got {self.outs}")
        if not 0 <= self.bases <= 7:
            raise RecordError(f"bases mask must be 0-7, got {self.bases}")
        if self.outs == 3 and self.bases != 0:
            # absorbing state is normalized to an empty-bases mask
            object.__setattr__(self, "bases", 0)


#: the 24 live base-out states, in (outs, bases) order
LIVE_STATES = tuple((o, b) for o in range(3) for b in range(8))


@dataclass
class PlateAppearance:
    game_id: str
    pa_index: int
    inning: int
    half: str  # "top" | "bottom"
    batter_id: str
    pitcher_id: str
    start_state: GameState
    end_state: GameState
    runner_ids: tuple  # (runner on 1B, 2B, 3B); None when base empty
    runner_dests: tuple  # destination code per start base, None when empty
    batter_dest: str
    runs_scored: int
    event_type: str
    ballpark_id: str
    batter_hand: str
    pitcher_hand: str
    batter_position: str
    fielder_ids: tuple  # 9 ids, positions P..RF in FIELDING_POSITIONS order
    bip_location: tuple = None  # (x, y) feet, home plate at origin
    credited_fielder_position: str = None


#: string columns: (dataset column, CSV columns, vocabulary or id table)
_CODED = (
    ("game", ("game_id",), "game"),
    ("half", ("half",), HALVES),
    ("batter", ("batter_id",), "player"),
    ("pitcher", ("pitcher_id",), "player"),
    ("runner", ("runner1_id", "runner2_id", "runner3_id"), "player"),
    ("runner_dest", ("runner1_dest", "runner2_dest", "runner3_dest"),
     DESTINATIONS),
    ("batter_dest", ("batter_dest",), DESTINATIONS),
    ("event", ("event_type",), EVENT_TYPES),
    ("park", ("ballpark_id",), "park"),
    ("batter_hand", ("batter_hand",), HANDS),
    ("pitcher_hand", ("pitcher_hand",), HANDS),
    ("batter_position", ("batter_position",), BATTER_POSITIONS),
    ("fielder", tuple(f"f{j}" for j in range(1, 10)), "player"),
    ("credited", OPTIONAL_COLUMNS, FIELDING_POSITIONS),
)


class SeasonDataset:
    """A season of plate appearances as numpy columns, one entry per plate
    appearance in record order.

    `game`, `park` and the player columns `batter`, `pitcher`, `runner`
    (n, 3: runners on 1B, 2B, 3B) and `fielder` (n, 9: positions in
    FIELDING_POSITIONS order) are codes into the sorted `game_ids`,
    `park_ids` and `player_ids`.  `half`, `event`, `batter_hand`,
    `pitcher_hand`, `batter_position`, `batter_dest`, `runner_dest` (n, 3)
    and `credited` (the credited fielder position) are codes into HALVES,
    EVENT_TYPES, HANDS, BATTER_POSITIONS, DESTINATIONS and
    FIELDING_POSITIONS.  Code -1 means absent, or a value outside the
    vocabulary.  `pa_index`, `inning`, the states `start_outs`,
    `start_bases`, `end_outs`, `end_bases` (3-out states keep an empty
    bases mask) and `runs_scored` are integers; `bip_x`/`bip_y` are NaN
    when a record has no ball-in-play location.
    """

    def __init__(self, columns, game_ids, player_ids, park_ids, roster=None):
        vars(self).update(columns)  # the columns described above
        self.game_ids, self.player_ids, self.park_ids = \
            game_ids, player_ids, park_ids
        self.roster = {p: p for p in player_ids} if roster is None else roster

    def __len__(self):
        return len(self.game)

    @classmethod
    def from_records(cls, records, roster=None):
        """Code a sequence of PlateAppearance rows (see `from_columns`)."""
        return cls.from_columns(_raw_columns(list(records)), roster)

    @classmethod
    def from_columns(cls, raw, roster=None):
        """Code a season given as its CSV fields: `raw` maps each name in
        CSV_COLUMNS + OPTIONAL_COLUMNS to one sequence of values per record,
        with None or "" where a field is absent (coordinates absent only as
        "").  Records are not checked (`validate_dataset` does that): a
        string outside its column's vocabulary is stored as absent.  Numbers
        must parse and coordinates must be finite."""
        tables = {"game": {}, "player": {}, "park": {}}
        cols, malformed = _code_columns(_by_record(raw), tables)
        if malformed.any():
            row = [raw[f][int(np.argmax(malformed))] for f in _FIELDS]
            raise RecordError(_row_problems(_FIELDS, row)[0])
        return _finish([cols], tables, roster)

    def record(self, i):
        """Row view: plate appearance `i` as a PlateAppearance."""
        i = range(len(self))[i]  # negative indices count from the end
        fields = next(zip(*_csv_columns(self, slice(i, i + 1))))
        return _view(dict(zip(_FIELDS, fields)))


def _where(pa):
    return f"game {pa.game_id} pa {pa.pa_index}"


_FIELDS = CSV_COLUMNS + OPTIONAL_COLUMNS


def _raw_columns(pas):
    """The CSV fields of a list of PlateAppearances, one tuple per column of
    _FIELDS; an absent field is None or ""."""
    def get(path, k=None):
        values = map(attrgetter(path), pas)
        return tuple(values if k is None else map(itemgetter(k), values))

    if any(len(ids) != 9 for ids in get("fielder_ids")):
        raise RecordError("fielder_ids must list 9 players")
    raw = {f: get(f) for f in _FIELDS if f in PlateAppearance.__dataclass_fields__}
    for s in ("start", "end"):
        raw[f"{s}_outs"], raw[f"{s}_bases"] = \
            get(f"{s}_state.outs"), get(f"{s}_state.bases")
    for b in range(3):
        raw[f"runner{b + 1}_id"] = get("runner_ids", b)
        raw[f"runner{b + 1}_dest"] = get("runner_dests", b)
    for j in range(9):
        raw[f"f{j + 1}"] = get("fielder_ids", j)
    locations = get("bip_location")
    for k, f in enumerate(("bip_x", "bip_y")):
        raw[f] = tuple("" if xy is None or xy[k] is None else xy[k]
                       for xy in locations)
    return raw


def _codes(values, coding, tables, blank_absent):
    """Codes of `values` into a vocabulary (-1 for "" or None, -2 for any
    other value outside it, which only the parser's checks tell apart) or
    into the growing id table tables[coding] (id -> code in insertion
    order; "" and None are absent when `blank_absent`)."""
    if not isinstance(coding, str):
        index = {w: k for k, w in enumerate(coding)}
        index[""] = index[None] = -1
        return np.fromiter(map(index.get, values, repeat(-2)), np.int8,
                           len(values))
    index = tables[coding]
    for v in set(values).difference(index):
        index[v] = len(index)
    codes = np.fromiter(map(index.__getitem__, values), np.int32, len(values))
    for blank in ("", None):
        if blank_absent and blank in index:
            codes[codes == index[blank]] = -1
    return codes


def _converted(values, convert, dtype):
    """`convert` applied to every value: (array of results, mask of
    failures, whose results are 0).  A result that `dtype` cannot hold, an
    integer beyond int64, is a failure."""
    try:
        return (np.array(list(map(convert, values)), dtype=dtype),
                np.zeros(len(values), bool))
    except (ValueError, OverflowError):
        pass
    results, failed = [], []
    for v in values:
        try:
            results.append(dtype(convert(v)))
            failed.append(False)
        except (ValueError, OverflowError):
            results.append(0)
            failed.append(True)
    return np.array(results, dtype=dtype), np.array(failed, dtype=bool)


def _float_or_nan(s):
    return float(s) if s != "" else math.nan


def _by_record(raw):
    """Fields given as one value per record, in the (values, inverse) form
    of `_code_columns`.  Numbers such as 0.0 and -0.0 are equal keys of a
    dict but not equal values, so each record keeps its own value."""
    return {f: (values, np.arange(len(values))) for f, values in raw.items()}


def _distinct(strings):
    """(distinct strings in first-seen order, the index of each string's
    value in them)."""
    index = dict.fromkeys(strings)
    for k, s in enumerate(index):
        index[s] = k
    return list(index), np.fromiter(map(index.__getitem__, strings), np.intp,
                                    len(strings))


def _code_rows(header, rows, tables):
    """Code one block of raw CSV rows under `header`: (SeasonDataset
    columns, mask of malformed rows).  A row is malformed where `_view`
    would raise: a wrong field count, a number that does not parse, a state
    out of range, or a coordinate pair that is half given or not finite."""
    short = np.fromiter(map(len, rows), np.intp, len(rows)) != len(header)
    if short.any():
        rows = [r if len(r) == len(header) else [""] * len(header) for r in rows]
    columns = zip(*rows) if rows else [()] * len(header)
    raw = {f: _distinct(column) for f, column in zip(header, columns)}
    cols, malformed = _code_columns(raw, tables)
    return cols, malformed | short


def _code_columns(raw, tables):
    """`_code_rows` over the fields of a block given column by column:
    raw[f] = (values, inverse), record r having the value
    values[inverse[r]] in field f.  Each value is converted, checked and
    coded once, and the results are gathered by `inverse`."""
    n = len(raw["game_id"][1])
    absent = ([""], np.zeros(n, np.intp))  # an optional column not given
    malformed = np.zeros(n, dtype=bool)
    cols = {}
    for name in _INT_COLUMNS:
        values, inverse = raw[name]
        converted, failed = _converted(values, int, np.int64)
        cols[name] = converted[inverse]
        malformed |= failed[inverse]
    for s in ("start", "end"):
        outs, bases = cols[f"{s}_outs"], cols[f"{s}_bases"]
        malformed |= (outs < 0) | (outs > 3) | (bases < 0) | (bases > 7)
        cols[f"{s}_outs"] = outs.astype(np.int8)
        cols[f"{s}_bases"] = np.where(outs == 3, 0, bases).astype(np.int8)
    present = []
    for name in ("bip_x", "bip_y"):
        values, inverse = raw[name]
        converted, failed = _converted(values, _float_or_nan, float)
        given = np.fromiter(map(ne, values, repeat("")), bool, len(values))
        cols[name] = converted[inverse]
        present.append(given[inverse])
        malformed |= (failed | (given & ~np.isfinite(converted)))[inverse]
    malformed |= present[0] != present[1]
    # after the header a '#' line is a record, not a comment
    values, inverse = raw["game_id"]
    malformed |= np.fromiter(map(methodcaller("startswith", "#"), values),
                             bool, len(values))[inverse]
    for name, fields, coding in _CODED:
        parts = []
        for f in fields:
            values, inverse = raw.get(f, absent)
            parts.append(_codes(values, coding, tables,
                                name in ("runner", "fielder"))[inverse])
        cols[name] = parts[0] if len(parts) == 1 else \
            np.column_stack(parts).reshape(n, len(parts))
    return cols, malformed


def _renumber(index, columns):
    """Recode id columns (in place) into the sorted ids they use; returns
    those ids."""
    ids = list(index)
    used = np.zeros(len(ids) + 1, dtype=bool)
    for codes in columns:
        used[codes] = True  # absent (-1) marks the spare last slot
    order = sorted(np.flatnonzero(used[:-1]).tolist(), key=ids.__getitem__)
    recode = np.full(len(ids) + 1, -1, dtype=np.int32)
    recode[order] = np.arange(len(order))
    for codes in columns:
        codes[...] = recode[codes]
    return [ids[k] for k in order]


def _finish(blocks, tables, roster=None):
    """Join coded blocks into a SeasonDataset with sorted id tables."""
    cols = {name: np.concatenate([b[name] for b in blocks]) for name in blocks[0]}
    for name, _, coding in _CODED:
        if not isinstance(coding, str):
            np.maximum(cols[name], -1, out=cols[name])
    ids = {t: _renumber(index, [cols[name] for name, _, c in _CODED if c == t])
           for t, index in tables.items()}
    return SeasonDataset(cols, ids["game"], ids["player"], ids["park"], roster)


@dataclass
class ValidationReport:
    errors: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    dropped: int = 0

    @property
    def ok(self):
        return not self.errors


#: event code -> True when the ball is fieldable by the defense
_IN_PLAY = np.array([BALL_IN_PLAY[e] for e in EVENT_TYPES])
_H, _O = DESTINATIONS.index("H"), DESTINATIONS.index("O")


def _rules(c):
    """The invariants of a record, over SeasonDataset columns `c` whose
    string codes may still use -2 for a value outside the vocabulary.
    Yields, in message order, (mask of the records that break a rule,
    message for a broken record's row view)."""
    yield c["half"] < 0, lambda pa: f"half must be top/bottom, got {pa.half!r}"
    yield ((c["batter_hand"] < 0) | (c["pitcher_hand"] < 0),
           lambda pa: "bad handedness")
    yield (c["batter_position"] < 0,
           lambda pa: f"bad batter_position {pa.batter_position!r}")
    yield ((c["fielder"] < 0).any(axis=1),
           lambda pa: "fielder_ids must list 9 players")
    # runner columns must agree with the start-state occupancy mask
    rid, dest = c["runner"] >= 0, c["runner_dest"]
    for b in range(3):
        occupied = (c["start_bases"] >> b) & 1 == 1
        yield (occupied & ~(rid[:, b] & (dest[:, b] != -1)),
               lambda pa, b=b: f"base {b + 1} occupied but runner id/dest missing")
        yield (occupied & rid[:, b] & (dest[:, b] == -2),
               lambda pa, b=b: f"bad destination {pa.runner_dests[b]!r}")
        yield (~occupied & (rid[:, b] | (dest[:, b] != -1)),
               lambda pa, b=b: f"base {b + 1} empty but runner fields present")
    # only a null event may leave batter_dest empty (-1)
    yield (((c["event"] != EVENT_TYPES.index("null")) & (c["batter_dest"] < 0))
           | (c["batter_dest"] == -2),
           lambda pa: f"bad batter_dest {pa.batter_dest!r}")
    scored = (rid & (dest == _H)).sum(axis=1) + (c["batter_dest"] == _H)
    yield (c["runs_scored"] != scored, lambda pa: f"runs_scored={pa.runs_scored} "
           f"but {scored[0]} scored destinations")
    made = c["end_outs"].astype(np.int64) - c["start_outs"]
    outs = (rid & (dest == _O)).sum(axis=1) + (c["batter_dest"] == _O)
    yield made < 0, lambda pa: "outs decrease within a plate appearance"
    yield ((made >= 0) & (outs != made), lambda pa:
           f"{outs[0]} out destinations but outs advanced by {made[0]}")
    in_play = _IN_PLAY[np.maximum(c["event"], 0)]
    located = ~np.isnan(c["bip_x"])
    yield (in_play & ~located, lambda pa:
           f"in-play event {pa.event_type!r} missing bip location")
    yield (~in_play & located, lambda pa:
           f"event {pa.event_type!r} cannot carry a bip location")
    yield c["credited"] == -2, lambda pa: "bad credited_fielder_position"


def _record_mask(c):
    """True where a record breaks a rule or has an unknown event."""
    return np.logical_or.reduce([m for m, _ in _rules(c)] + [c["event"] < 0])


def _check_record(pa):
    """Return a list of invariant-violation messages for one record."""
    if pa.event_type not in BALL_IN_PLAY:
        raise TaxonomyError(f"{_where(pa)}: unknown event_type {pa.event_type!r}")
    c, _ = _code_columns(_by_record(_raw_columns([pa])),
                         {"game": {}, "player": {}, "park": {}})
    return [f"{_where(pa)}: {message(pa)}" for m, message in _rules(c) if m[0]]


def _half_inning_starts(data):
    """True at the first record of each (game, inning, half) run."""
    new = np.zeros(len(data), dtype=bool)
    new[:1] = True
    for col in (data.game, data.inning, data.half):
        new[1:] |= col[1:] != col[:-1]
    return new


def _chain_messages(data):
    """Half-innings that do not start empty, and state chain breaks."""
    new = _half_inning_starts(data)
    bad = new & ((data.start_outs != 0) | (data.start_bases != 0))
    bad[1:] |= ~new[1:] & ((data.end_outs[:-1] != data.start_outs[1:])
                           | (data.end_bases[:-1] != data.start_bases[1:]))
    messages = []
    for i in np.flatnonzero(bad).tolist():
        game = data.game_ids[data.game[i]]
        if new[i]:
            messages.append(
                f"game {game} {(*HALVES, '')[data.half[i]]} {data.inning[i]}: "
                f"half-inning does not start at (0 outs, bases empty)")
        else:
            messages.append(
                f"game {game} pa {data.pa_index[i]}: state chain break "
                f"({data.end_outs[i - 1]},{data.end_bases[i - 1]}) -> "
                f"({data.start_outs[i]},{data.start_bases[i]})")
    return messages


def validate_dataset(dataset, strict=True):
    """Check every record plus the within-half-inning state chain.

    Chain discontinuities (e.g. steals between plate appearances) are
    warnings in lenient mode and ChainErrors in strict mode.
    """
    report = ValidationReport()
    for i in np.flatnonzero(_record_mask(vars(dataset))).tolist():
        report.errors.extend(_check_record(dataset.record(i)))
    chain = _chain_messages(dataset)
    (report.errors if strict else report.warnings).extend(chain)
    if strict and report.errors:
        raise ChainError("; ".join(report.errors[:5]))
    return report


def _view(row):
    """Row view of one record's CSV fields (column -> value), converted
    field by field; raises RecordError on a malformed field."""
    where = f"game {row['game_id']} pa {row['pa_index']}"

    def number(column, convert, kind):
        try:
            return convert(row[column])
        except ValueError:
            raise RecordError(f"{where}: {column} must be {kind}, "
                              f"got {row[column]!r}") from None

    def integer(column, top=None):
        value = number(column, int, "an integer")
        if top is not None and not 0 <= value <= top:
            raise RecordError(f"{where}: {column} must be 0-{top}, got {value}")
        if not _INT64.min <= value <= _INT64.max:
            raise RecordError(f"{where}: {column} must be a 64-bit integer, "
                              f"got {value}")
        return value

    start, end = (GameState(integer(f"{s}_outs", 3), integer(f"{s}_bases", 7))
                  for s in ("start", "end"))
    bx, by = (None if row[c] == "" else number(c, float, "a number")
              for c in ("bip_x", "bip_y"))
    if (bx is None) != (by is None):
        raise RecordError(f"{where}: bip_x/bip_y must both be set")
    if bx is not None and not (math.isfinite(bx) and math.isfinite(by)):
        raise RecordError(f"{where}: bip_x/bip_y must be finite")
    if row["game_id"].startswith("#"):
        raise RecordError(f"{where}: game_id must not start with '#'")
    return PlateAppearance(
        game_id=row["game_id"],
        pa_index=integer("pa_index"),
        inning=integer("inning"),
        half=row["half"],
        batter_id=row["batter_id"],
        pitcher_id=row["pitcher_id"],
        start_state=start,
        end_state=end,
        runner_ids=tuple(row[f"runner{b}_id"] or None for b in (1, 2, 3)),
        runner_dests=tuple(row[f"runner{b}_dest"] or None for b in (1, 2, 3)),
        batter_dest=row["batter_dest"],
        runs_scored=integer("runs_scored"),
        event_type=row["event_type"],
        ballpark_id=row["ballpark_id"],
        batter_hand=row["batter_hand"],
        pitcher_hand=row["pitcher_hand"],
        batter_position=row["batter_position"],
        fielder_ids=tuple(row[f"f{i}"] for i in range(1, 10)),
        bip_location=(bx, by) if bx is not None else None,
        credited_fielder_position=row.get("credited_fielder_position", "") or None,
    )


def _row_problems(header, row):
    """Scalar parse and checks of one raw row: (malformed-field message or
    None, record problems).  Raises TaxonomyError on an unknown event."""
    fields = dict(zip(header, row))
    try:
        if len(row) != len(header):
            raise RecordError(
                f"game {fields.get('game_id')} pa {fields.get('pa_index')}: "
                f"{len(row)} fields, header has {len(header)}")
        pa = _view(fields)
    except ValueError as exc:  # RecordError included
        return str(exc), []
    return None, _check_record(pa)


class _Text:
    """A text file object read on from its position _CHUNK_CHARS characters
    at a time."""

    def __init__(self, source):
        self.source, self.rest = source, ""

    def chunk(self):
        """The next whole lines, the last one without its '\\n' only at the
        end of the text; "" when the text is used up."""
        parts = [self.rest]
        while piece := self.source.read(_CHUNK_CHARS):
            cut = piece.rfind("\n") + 1
            if cut:
                parts.append(piece[:cut])
                self.rest = piece[cut:]
                return "".join(parts)
            parts.append(piece)
        self.rest = ""
        return "".join(parts)

    def line(self):
        """The next line; "" when the text is used up."""
        while not (cut := self.rest.find("\n") + 1):
            piece = self.source.read(_CHUNK_CHARS)
            if not piece:
                line, self.rest = self.rest, ""
                return line
            self.rest += piece
        line, self.rest = self.rest[:cut], self.rest[cut:]
        return line


def _field_values(buf, start, length):
    """(distinct values, inverse) of the fields of one column: field r is
    bytes buf[start[r]:start[r] + length[r]].  Fields are keyed by their
    bytes, 8 at a time, as little-endian words masked to the field's end;
    with no NUL in `buf`, fields share a key only if their bytes are equal.
    `buf` ends with 8 spare bytes."""
    words = np.ndarray(len(buf) - 7, "<u8", buf, strides=(1,))  # word at each byte
    first, inverse = np.unique(words[start] & _MASKS[np.minimum(length, 8)],
                               return_inverse=True)
    codes, rows = len(first), np.arange(len(start))
    for j in range(8, int(length.max(initial=0)), 8):
        # a field longer than j bytes takes a new code for its code so far
        # and its next word, so the work follows the bytes, not the rows
        rows = rows[length[rows] > j]
        keys, word = np.unique(words[start[rows] + j]
                               & _MASKS[np.minimum(length[rows] - j, 8)],
                               return_inverse=True)
        pairs, new = np.unique(inverse[rows] * len(keys) + word,
                               return_inverse=True)
        inverse[rows] = codes + new
        codes += len(pairs)
    if codes > len(first):  # number the codes left in use from 0
        _, inverse = np.unique(inverse, return_inverse=True)
    some = np.zeros(int(inverse.max(initial=-1)) + 1, np.intp)
    some[inverse] = np.arange(len(inverse))  # a record with each value
    values = [buf[s:s + k].decode("utf-8", "surrogatepass") for s, k in
              zip(start[some].tolist(), length[some].tolist())]
    return values, inverse


def _tokenized(chunk, header):
    """Split a chunk of whole lines at ',' and '\\n' with array operations:
    (the `_code_columns` input of its records, mask of records with a wrong
    field count, record k -> its fields, lines in the chunk).  A record
    with a wrong field count has "" in every field.  None when the chunk
    needs csv.reader: it quotes, has '\\r' or NUL, or has a field longer
    than csv.field_size_limit()."""
    if any(c in chunk for c in _READER_ONLY):
        return None
    data = chunk.encode("utf-8", "surrogatepass")
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = data + bytes(8)
    text = np.frombuffer(data, np.uint8)
    sep = np.flatnonzero((text == ord(",")) | (text == ord("\n")))
    last = np.flatnonzero(text[sep] == ord("\n"))  # each line's last separator
    # the field that each separator ends, and one more, empty, that stands
    # for every field of a record with a wrong field count
    begins = np.concatenate([[0], sep[:-1] + 1, [0]])
    lengths = np.concatenate([sep, [0]]) - begins
    if lengths.max() > csv.field_size_limit():
        return None
    count = np.diff(last, prepend=-1)  # fields per line
    # a blank line is one empty field, and carries no record
    record = (count > 1) | (lengths[last] > 0)
    begin, end = begins[last - count + 1][record], sep[last][record]
    width = len(header)
    whole = count[record] == width
    fields = np.where(whole, np.arange(1 - width, 1)[:, None] + last[record],
                      len(sep))
    start, length = begins[fields], lengths[fields]
    raw = {f: _field_values(buf, start[j], length[j])
           for j, f in enumerate(header)}

    def row(k):
        return buf[begin[k]:end[k]].decode("utf-8", "surrogatepass").split(",")
    return raw, ~whole, row, len(last)


def _reader_rows(chunk, text, line):
    """The rows of a chunk by csv.reader, blank lines skipped; a quoted
    field may run on into the lines of `text` after the chunk.  `line`
    lines came before the chunk.  Returns (rows, lines read, a RecordError
    naming the line csv.reader could not read, or None)."""
    lines = chunk.count("\n") + (not chunk.endswith("\n"))
    reader = csv.reader(chain(io.StringIO(chunk), iter(text.line, "")))
    rows = []
    try:
        while reader.line_num < lines:
            row = next(reader, None)
            if row is None:
                break
            if row:
                rows.append(row)
    except csv.Error as exc:
        return rows, reader.line_num, RecordError(
            f"line {line + reader.line_num}: {exc}")
    return rows, reader.line_num, None


def _coded_chunks(text, header, tables, line):
    """Code the records of `text` (after the header, `line` lines in)
    chunk by chunk.  Yields (SeasonDataset columns, mask of malformed
    records, record k -> its raw fields) per chunk; a line that csv.reader
    cannot read raises once the records before it are yielded."""
    while chunk := text.chunk():
        tokens = _tokenized(chunk, header)
        if tokens is not None:
            raw, short, row, lines = tokens
            cols, malformed = _code_columns(raw, tables)
            yield cols, malformed | short, row
        else:
            rows, lines, error = _reader_rows(chunk, text, line)
            yield *_code_rows(header, rows, tables), rows.__getitem__
            if error is not None:
                raise error
        line += lines


def parse_season(source, strictness="strict"):
    """Parse a season CSV into a SeasonDataset.

    `source` may be a str, bytes, or a text file object.  Lines starting
    with '#' before the header are ignored (the CLI writes a provenance
    comment); after it such a line is a malformed record.  In strict
    mode any invariant violation raises; in lenient mode violating records
    are dropped and counted, and chain breaks become warnings.

    The text after the header is read _CHUNK_CHARS characters at a time
    and cut at line ends.  A chunk is split at ',' and '\\n' and each field
    column coded from its distinct values with array operations; a chunk
    that quotes, or has '\\r' or NUL, goes through csv.reader instead.
    Every record is checked with array operations; only a record those
    checks flag is parsed and checked again one field at a time, which
    gives its message.  A line csv.reader cannot read raises RecordError in
    either mode.

    Returns (dataset, report).
    """
    if strictness not in ("strict", "lenient"):
        raise ValueError(f"strictness must be strict|lenient, got {strictness!r}")
    strict = strictness == "strict"
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if isinstance(source, str):
        source = io.StringIO(source)

    comments = 0
    for line in source:
        if not line.startswith("#"):
            break
        comments += 1
    else:
        raise SchemaError("empty input: no header row")
    reader = csv.reader(chain([line], source))
    try:
        header = next(reader)
    except csv.Error as exc:
        raise SchemaError(f"line {comments + reader.line_num}: {exc}") from None
    have = set(header)
    missing = set(CSV_COLUMNS) - have
    unknown = have - set(CSV_COLUMNS) - set(OPTIONAL_COLUMNS)
    if missing or unknown:
        raise SchemaError(
            f"bad header: missing {sorted(missing)}, unknown {sorted(unknown)}")
    if len(have) < len(header):
        duplicated = sorted({c for c in header if header.count(c) > 1})
        raise SchemaError(f"bad header: duplicated columns {duplicated}")

    report = ValidationReport()
    tables = {"game": {}, "player": {}, "park": {}}
    blocks = []
    for cols, malformed, row in _coded_chunks(
            _Text(source), header, tables, comments + reader.line_num):
        flagged = malformed | _record_mask(cols)
        keep = ~flagged
        for k in np.flatnonzero(flagged).tolist():
            message, problems = _row_problems(header, row(k))
            if strict and (message or problems):
                raise RecordError(message or "; ".join(problems))
            report.dropped += bool(message or problems)
            report.warnings.extend(
                [f"dropped malformed row: {message}"] if message else problems)
            keep[k] = not (message or problems)
        blocks.append({name: col[keep] for name, col in cols.items()}
                      if flagged.any() else cols)

    dataset = _finish(blocks or [_code_rows(header, [], tables)[0]], tables)
    breaks = _chain_messages(dataset)
    if strict and breaks:
        raise ChainError("; ".join(breaks[:5]))
    report.warnings.extend(breaks)
    return dataset, report


def _csv_columns(d, index=slice(None)):
    """The CSV fields of the records at `index`, one list per column of
    _FIELDS, "" where absent."""
    out = {f: getattr(d, f)[index].tolist() for f in _INT_COLUMNS}
    for f in ("bip_x", "bip_y"):
        out[f] = [v if v == v else "" for v in getattr(d, f)[index].tolist()]
    ids = {"game": d.game_ids, "player": d.player_ids, "park": d.park_ids}
    for name, fields, coding in _CODED:
        words = [*ids.get(coding, coding), ""]  # code -1 decodes to ""
        codes = getattr(d, name)[index].reshape(-1, len(fields)).T.tolist()
        for f, column in zip(fields, codes):
            out[f] = list(map(words.__getitem__, column))
    return [out[f] for f in _FIELDS]


def season_csv(rows):
    """The canonical CSV string of a season given as rows of its fields in
    CSV_COLUMNS + OPTIONAL_COLUMNS order, None or "" where absent."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_FIELDS)
    writer.writerows(rows)
    return out.getvalue()


def serialize_season(dataset):
    """Serialize a SeasonDataset to its canonical CSV string."""
    return season_csv(zip(*_csv_columns(dataset)))


# Team aggregation.  The schema carries no team column; game ids of the
# form "<away>@<home>..." identify the two clubs, and the batting team of
# a record is the away club in the top half, the home club in the bottom.
def _teams_from_game_id(game_id):
    if "@" in game_id:
        away, rest = game_id.split("@", 1)
        home = rest.split("_")[0].split("-")[0]
        if away and home:
            return away, home
    return None


_NOT_AN_AB = frozenset({
    "Walk", "Intent Walk", "Hit By Pitch", "Sac Bunt", "Sac Fly",
    "Sac Fly DP", "Sacrifice Bunt DP", "Catcher Interference", "null",
})
_HITS = frozenset({"Single", "Double", "Triple", "Home Run"})


def aggregate_team_totals(dataset):
    """Per-team counting statistics (G, PA, AB, R, H, HR, BB, K).

    Returns a dict team -> dict of counts, teams sorted by key.  Records
    whose game_id does not encode teams are keyed by "<game_id>/<half>".
    """
    d = dataset
    sides = [side for g in d.game_ids
             for side in _teams_from_game_id(g) or (f"{g}/top", f"{g}/bottom")]
    names, side = np.unique(sides, return_inverse=True)
    team = side.reshape(-1, 2)[d.game, (d.half != 0) * 1]

    def count(events=EVENT_TYPES, weights=None):
        rows = np.isin(d.event, [EVENT_TYPES.index(e) for e in events])
        return np.bincount(team[rows], weights=None if weights is None
                           else weights[rows], minlength=len(names))

    totals = {"G": np.bincount(np.unique(np.column_stack([team, d.game]),
                                         axis=0)[:, 0], minlength=len(names)),
              "PA": count(), "AB": count(set(EVENT_TYPES) - _NOT_AN_AB),
              "R": count(weights=d.runs_scored), "H": count(_HITS),
              "HR": count({"Home Run"}), "BB": count({"Walk", "Intent Walk"}),
              "K": count({"Strikeout", "Strikeout - DP"})}
    return {name: {k: int(v[t]) for k, v in totals.items()}
            for t, name in enumerate(names.tolist()) if totals["PA"][t]}
