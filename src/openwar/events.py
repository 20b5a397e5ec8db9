"""Play-by-play data model: event taxonomy, records, CSV parsing and validation.

The on-disk format is a flat UTF-8 CSV with one row per plate appearance,
its fields bare or quoted (see `parse_season`).
Base-out states are encoded as an out count (0-3) plus a 3-bit base
occupancy mask (bit0 = first, bit1 = second, bit2 = third).  Runner and
batter destinations use the codes "1B", "2B", "3B", "H" (scored) and
"O" (out); empty string means the field is absent.

In memory a season is a SeasonDataset of integer-coded numpy columns.
Its row view is a record's CSV fields, a dict column -> value: the input
of `SeasonDataset.from_records` and what `SeasonDataset.record(i)`
returns.  `parse_season` is the one checker: it checks a record by one
pass of array rules (`_rules`) over the coded columns; only a record they
flag is read one field at a time, to find its messages.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress, repeat

import numpy as np

from .forking import ordered

__all__ = [
    "EVENT_TYPES",
    "BALL_IN_PLAY",
    "DESTINATIONS",
    "FIELDING_POSITIONS",
    "BATTER_POSITIONS",
    "SeasonDataset",
    "ValidationReport",
    "SchemaError",
    "TaxonomyError",
    "ChainError",
    "RecordError",
    "parse_season",
    "csv_text",
    "SEASON_HEADER",
    "serialize_season",
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
#: the bytes that may come before a quote that opens a field or is the
#: second of a doubled quote, and after one that closes a field or is the
#: first of a doubled quote; a '\r' must also start a '\r\n' line end
_BESIDE_QUOTE = np.zeros(256, dtype=bool)
_BESIDE_QUOTE[list(b',\n\r"')] = True
_MALFORMED = ("malformed CSV: a quote out of place or never closed, "
              "a '\\r' outside a '\\r\\n' line end, or a NUL")
#: _MASKS[k] keeps the first k bytes of a little-endian 8-byte word
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
#: the values of an absent field
_ABSENT = ("", None)


class SchemaError(ValueError):
    """CSV header does not match the documented schema."""


class TaxonomyError(ValueError):
    """Record carries an event_type outside the closed taxonomy."""


class RecordError(ValueError):
    """A record violates a field-level invariant."""


class ChainError(ValueError):
    """Consecutive records within a half-inning disagree on game state."""


#: the 24 live base-out states, in (outs, bases) order
LIVE_STATES = tuple((o, b) for o in range(3) for b in range(8))


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
        """Code a sequence of rows, each a dict of CSV fields as `record`
        returns; a field left out, None or "" is absent.  Records are not
        checked: a string outside its column's vocabulary is stored as
        absent; to check a built dataset `d`, parse `serialize_season(d)`.
        Numbers must parse, coordinates must be finite, and the game,
        batter, pitcher and ballpark ids must be given."""
        records = list(records)
        raw = {f: [r.get(f) for r in records] for f in _FIELDS}
        cols, tables, malformed = _code_columns(_by_record(raw))
        if malformed.any():
            row = [v[int(np.argmax(malformed))] for v in raw.values()]
            raise RecordError(_field_problem(list(raw), row))
        return _finish([(cols, tables)], roster)

    def record(self, i):
        """Row view: plate appearance `i` as a dict of its CSV fields,
        column -> value: an int for the integer columns, a float or "" for
        the coordinates, a string ("" where absent) for the rest."""
        return {f: v for f, (v,) in zip(_FIELDS, _csv_columns(self, [i]))}


def _where(data, i):
    """Names record `i` of a SeasonDataset by its game and pa_index."""
    return f"game {data.game_ids[data.game[i]]} pa {data.pa_index[i]}"


_FIELDS = CSV_COLUMNS + OPTIONAL_COLUMNS
#: the id columns a record must give
_REQUIRED_IDS = ("game_id", "batter_id", "pitcher_id", "ballpark_id")


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
    for blank in _ABSENT:
        if blank_absent and blank in index:
            codes[codes == index[blank]] = -1
    return codes


def _converted(values, convert, dtype):
    """`convert` applied to every value: (array of results, mask of
    failures, whose results are 0).  A value that does not convert, such as
    None for an integer, or a result that `dtype` cannot hold, an integer
    beyond int64, is a failure."""
    try:
        return (np.array(list(map(convert, values)), dtype=dtype),
                np.zeros(len(values), bool))
    except (TypeError, ValueError, OverflowError):
        pass
    results, failed = [], []
    for v in values:
        try:
            results.append(dtype(convert(v)))
            failed.append(False)
        except (TypeError, ValueError, OverflowError):
            results.append(0)
            failed.append(True)
    return np.array(results, dtype=dtype), np.array(failed, dtype=bool)


def _float_or_nan(s):
    return math.nan if s in _ABSENT else float(s)


def _by_record(raw):
    """Fields given as one value per record, in the (values, inverse) form
    of `_code_columns`.  Numbers such as 0.0 and -0.0 are equal keys of a
    dict but not equal values, so each record keeps its own value."""
    return {f: (values, np.arange(len(values))) for f, values in raw.items()}


def _code_columns(raw):
    """Code a block of records given column by column, raw[f] = (values,
    inverse), record r having the value values[inverse[r]] in field f:
    (SeasonDataset columns, id tables of their own, id -> code, one per id
    coding of _CODED, mask of malformed records).  A record is
    malformed where `_field_problem` finds a problem: a number that does
    not parse, a state out of range, bad coordinates, an empty required
    id, a '#' game id.  Each value is converted, checked and coded once,
    and the results are gathered by `inverse`."""
    n = len(raw["game_id"][1])
    absent = ([""], np.zeros(n, np.intp))  # an optional column not given
    tables = {"game": {}, "player": {}, "park": {}}
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
        given = np.array([v not in _ABSENT for v in values], dtype=bool)
        cols[name] = converted[inverse]
        present.append(given[inverse])
        malformed |= (failed | (given & ~np.isfinite(converted)))[inverse]
    malformed |= present[0] != present[1]
    # a required id left empty is malformed; after the header a '#' line
    # is a record, not a comment
    for f in _REQUIRED_IDS:
        values, inverse = raw[f]
        bad = [v in _ABSENT or f == "game_id" and v.startswith("#")
               for v in values]
        malformed |= np.array(bad, dtype=bool)[inverse]
    for name, fields, coding in _CODED:
        parts = []
        for f in fields:
            values, inverse = raw.get(f, absent)
            parts.append(_codes(values, coding, tables,
                                name in ("runner", "fielder"))[inverse])
        cols[name] = parts[0] if len(parts) == 1 else \
            np.column_stack(parts).reshape(n, len(parts))
    return cols, tables, malformed


def _finish(blocks, roster=None):
    """Join blocks of (SeasonDataset columns, id table -> their ids in code
    order) into a SeasonDataset with id tables of the sorted ids its records
    use.  Blocks are recoded in place and each column leaves its block as it
    is joined, so the blocks and the joined columns are never all held."""
    ids = {}
    for t in blocks[0][1]:
        names = [name for name, _, coding in _CODED if coding == t]
        used = set()
        for cols, tables in blocks:
            seen = np.zeros(len(tables[t]) + 1, dtype=bool)
            for name in names:
                seen[cols[name]] = True  # absent (-1) marks the last slot
            used.update(compress(tables[t], seen))
        ids[t] = sorted(used)
        index = {i: k for k, i in enumerate(ids[t])}
        for cols, tables in blocks:
            recode = np.array([index.get(i, -1) for i in tables[t]] + [-1],
                              np.int32)  # absent (-1) stays absent
            for name in names:
                cols[name][...] = recode[cols[name]]
    cols = {name: np.concatenate([b.pop(name) for b, _ in blocks])
            for name in list(blocks[0][0])}
    for name, _, coding in _CODED:
        if not isinstance(coding, str):
            np.maximum(cols[name], -1, out=cols[name])
    return SeasonDataset(cols, ids["game"], ids["player"], ids["park"], roster)


@dataclass
class ValidationReport:
    warnings: list = field(default_factory=list)
    dropped: int = 0


#: event code -> True when the ball is fieldable by the defense
_IN_PLAY = np.array([BALL_IN_PLAY[e] for e in EVENT_TYPES])
_H, _O = DESTINATIONS.index("H"), DESTINATIONS.index("O")


def _rules(c):
    """The invariants of a record, over SeasonDataset columns `c` whose
    string codes may still use -2 for a value outside the vocabulary.
    Yields, in message order, (mask of the records that break a rule,
    message(fields, k) of broken record k, whose CSV fields are `fields`)."""
    yield c["half"] < 0, lambda fields, k: \
        f"half must be top/bottom, got {fields['half']!r}"
    yield ((c["batter_hand"] < 0) | (c["pitcher_hand"] < 0),
           lambda *_: "bad handedness")
    yield c["batter_position"] < 0, lambda fields, k: \
        f"bad batter_position {fields['batter_position']!r}"
    yield ((c["fielder"] < 0).any(axis=1),
           lambda *_: "fielder_ids must list 9 players")
    # runner columns must agree with the start-state occupancy mask
    rid, dest = c["runner"] >= 0, c["runner_dest"]
    for b in range(3):
        occupied = (c["start_bases"] >> b) & 1 == 1
        yield (occupied & ~(rid[:, b] & (dest[:, b] != -1)),
               lambda *_, b=b: f"base {b + 1} occupied but runner id/dest missing")
        yield (occupied & rid[:, b] & (dest[:, b] == -2), lambda fields, k, b=b:
               f"bad destination {fields[f'runner{b + 1}_dest']!r}")
        yield (~occupied & (rid[:, b] | (dest[:, b] != -1)),
               lambda *_, b=b: f"base {b + 1} empty but runner fields present")
    # only a null event may leave batter_dest empty (-1)
    yield (((c["event"] != EVENT_TYPES.index("null")) & (c["batter_dest"] < 0))
           | (c["batter_dest"] == -2),
           lambda fields, k: f"bad batter_dest {fields['batter_dest']!r}")
    runs = c["runs_scored"]
    scored = (rid & (dest == _H)).sum(axis=1) + (c["batter_dest"] == _H)
    yield (runs != scored, lambda fields, k:
           f"runs_scored={runs[k]} but {scored[k]} scored destinations")
    made = c["end_outs"].astype(np.int64) - c["start_outs"]
    outs = (rid & (dest == _O)).sum(axis=1) + (c["batter_dest"] == _O)
    yield made < 0, lambda *_: "outs decrease within a plate appearance"
    yield ((made >= 0) & (outs != made), lambda fields, k:
           f"{outs[k]} out destinations but outs advanced by {made[k]}")
    in_play = _IN_PLAY[np.maximum(c["event"], 0)]
    located = ~np.isnan(c["bip_x"])
    yield (in_play & ~located, lambda fields, k:
           f"in-play event {fields['event_type']!r} missing bip location")
    yield (~in_play & located, lambda fields, k:
           f"event {fields['event_type']!r} cannot carry a bip location")
    yield c["credited"] == -2, lambda *_: "bad credited_fielder_position"


def _problems(rules, c, k, fields):
    """The messages of record k of columns `c`, whose CSV fields are
    `fields`: one per rule of `rules` (from `_rules(c)`) that it breaks.
    Raises TaxonomyError on an unknown event."""
    where = f"game {fields['game_id']} pa {c['pa_index'][k]}"
    if c["event"][k] < 0:
        raise TaxonomyError(
            f"{where}: unknown event_type {fields['event_type']!r}")
    return [f"{where}: {msg(fields, k)}" for mask, msg in rules if mask[k]]


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
        if new[i]:
            messages.append(
                f"game {data.game_ids[data.game[i]]} "
                f"{(*HALVES, '')[data.half[i]]} {data.inning[i]}: "
                f"half-inning does not start at (0 outs, bases empty)")
        else:
            messages.append(
                f"{_where(data, i)}: state chain break "
                f"({data.end_outs[i - 1]},{data.end_bases[i - 1]}) -> "
                f"({data.start_outs[i]},{data.start_bases[i]})")
    return messages


def _field_problem(header, row, count=None):
    """The message of the first malformed field of one record's CSV fields
    `row` under `header`, or None: the scalar reference of the `malformed`
    mask of `_code_columns`, and of a wrong field count.  `count` is the
    record's field count when `row` holds only its first fields."""
    fields = dict(zip(header, row))
    where = f"game {fields.get('game_id')} pa {fields.get('pa_index')}"
    count = len(row) if count is None else count
    if count != len(header):
        return f"{where}: {count} fields, header has {len(header)}"

    def number(column, convert, kind):
        try:
            return convert(fields[column])
        except (TypeError, ValueError):
            raise RecordError(f"{column} must be {kind}, "
                              f"got {fields[column]!r}") from None

    def integer(column, top=None):
        value = number(column, int, "an integer")
        if top is not None and not 0 <= value <= top:
            raise RecordError(f"{column} must be 0-{top}, got {value}")
        if not _INT64.min <= value <= _INT64.max:
            raise RecordError(f"{column} must be a 64-bit integer, "
                              f"got {value}")

    try:
        for s in ("start", "end"):
            integer(f"{s}_outs", 3)
            integer(f"{s}_bases", 7)
        bx, by = (None if fields[c] in _ABSENT else number(c, float, "a number")
                  for c in ("bip_x", "bip_y"))
        if (bx is None) != (by is None):
            raise RecordError("bip_x/bip_y must both be set")
        if bx is not None and not (math.isfinite(bx) and math.isfinite(by)):
            raise RecordError("bip_x/bip_y must be finite")
        for column in _REQUIRED_IDS:
            if fields[column] in _ABSENT:
                raise RecordError(f"{column} must be given")
        if fields["game_id"].startswith("#"):
            raise RecordError("game_id must not start with '#'")
        for column in ("pa_index", "inning", "runs_scored"):
            integer(column)
    except RecordError as exc:
        return f"{where}: {exc}"
    return None


class _Text:
    """A text file object read on from its position _CHUNK_CHARS characters
    at a time."""

    def __init__(self, source):
        self.source, self.rest = source, ""

    def chunk(self):
        """The next whole records: the text up to its last line end outside
        quotes, one that an even number of quote characters come before;
        the last record goes without its '\\n' only at the end of the text.
        "" when the text is used up.

        Text with no such line end is one record, the chunk's first.  The
        chunk ends where the text is read to once `_broken` finds it broken
        whatever follows, so a stray quote, or a quote never closed, does
        not make one chunk of the rest of the text.  A piece with no line
        end outside quotes is checked with only the text before it that it
        can break: its last byte, or its quoted field that may be open."""
        parts, quotes, carry = [self.rest], self.rest.count('"'), b""
        while piece := self.source.read(_CHUNK_CHARS):
            if '"' in piece:  # a fast scan, where counting is not
                quotes += piece.count('"')
            before, end = quotes, len(piece)  # the quotes before piece[end]
            while cut := piece.rfind("\n", 0, end) + 1:
                before -= piece.count('"', cut, end)
                if before % 2 == 0:
                    parts.append(piece[:cut])
                    self.rest = piece[cut:]
                    return "".join(parts)
                end = cut - 1
            parts.append(piece)
            # the chunk starts a field, as the text carried from a check does
            fresh = piece if carry else self.rest + piece
            text = b"".join((carry, fresh.encode("utf-8", "surrogatepass"),
                             b"\n"))
            at, _, resume = _broken(text, len(text) - 1, False)
            if at < math.inf:
                break
            carry = text[resume:-1]
        self.rest = ""
        return "".join(parts)


def _broken(buf, end, final):
    """Where UTF-8 CSV text first breaks, whatever follows it: (its byte
    position or math.inf, why or None, the byte position from which text
    that follows can break it: the opening quote of its last quoted field
    if that may still be open, else its last byte).  The text is buf[:end];
    it starts a field, and a '\\n' follows it in `buf` unless it ends with
    one.  It breaks at malformed CSV (`_MALFORMED`): a quote that breaks the
    quote rule, a '\\r' outside a '\\r\\n' line end, a NUL and, when the
    text is `final`, a quote never closed; and at the first character of a
    quoted field past csv.field_size_limit(), counted from its opening
    quote, which is too long whatever follows in its record."""
    pad = np.frombuffer(buf, np.uint8)
    bad = past = math.inf  # where malformed CSV, a quoted field too long show
    limit, resume = csv.field_size_limit(), end - 1
    if buf.find(b'"', 0, end) >= 0:
        quote = np.flatnonzero(pad[:end] == ord('"'))
        # an even number of quotes come before one that opens a field or is
        # the second of a doubled quote, which follows a separator or a
        # quote; an odd number before one that closes a field or is the
        # first of a doubled quote, which a separator or a quote follows
        odd = np.arange(len(quote)) % 2 == 1
        ok = _BESIDE_QUOTE[np.where(odd, pad[quote + 1], pad[quote - 1])]
        ok[0] |= quote[0] == 0  # the text starts a field
        if not ok.all():
            bad = quote[np.argmin(ok)]
        elif len(quote) % 2 and final:  # a field never closed
            bad = end
        opens = quote[~odd & (pad[quote - 1] != ord('"'))]
        closes = np.append(quote[odd & (pad[quote + 1] != ord('"'))], end)
        closes = closes[:len(opens)]  # opens and closes alternate
        # bytes >= characters
        for j in np.flatnonzero(closes - opens - 1 > limit):
            o, c = int(opens[j]), int(closes[j])
            field = buf[o + 1:c].decode("utf-8", "surrogatepass")
            value = field.replace('""', '"')
            if len(value) > limit:
                first = field[:limit + value[:limit].count('"')]
                past = o + 1 + len(first.encode("utf-8", "surrogatepass"))
                break
        if len(quote) % 2 or quote[-1] == end - 1:  # the last field may be open
            resume = int(opens[-1])
    if buf.find(b"\r", 0, end) >= 0:
        cr = np.flatnonzero(pad[:end] == ord("\r"))
        lone = cr[pad[cr + 1] != ord("\n")]
        bad = min(bad, lone[0] + 1) if len(lone) else bad  # after the '\r'
    if (nul := buf.find(b"\0", 0, end)) >= 0:
        bad = min(bad, nul)
    if bad < past:
        return bad, _MALFORMED, resume
    if past < math.inf:
        return past, f"field larger than field limit ({limit})", resume
    return math.inf, None, resume


def _field_values(buf, start, length):
    """(distinct values, inverse) of the fields of one column: field r is
    bytes buf[start[r]:start[r] + length[r]].  Fields are keyed by their
    bytes, 8 at a time, as little-endian words masked to the field's end;
    with no NUL in a field, fields share a key only if their bytes are
    equal.  `buf` ends with 8 spare bytes."""
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


def _records_before(sep, text, position):
    """The separators `sep` of the records of `text` that end before byte
    `position`."""
    ends = np.flatnonzero(text[sep] == ord("\n"))  # each line's last one
    k = np.searchsorted(sep[ends], position)
    return sep[:ends[k - 1] + 1] if k else sep[:0]


def _tokenized(data, header):
    """Split a chunk of whole records, UTF-8 encoded, at its ',' and '\\n'
    outside quotes with array operations: a separator is outside quotes
    when an even number of quote bytes come before it in the chunk.
    Returns (the `_code_columns` input of its records, mask of records
    with a wrong field count, record k -> (its fields, at most one more
    than the header has, and its field count), lines read, why the text
    breaks off after them or None).  A record with a wrong field
    count has "" in every field.  The text breaks off at the first record
    where `_broken` finds it broken, or with a field longer than
    csv.field_size_limit(); only the records before it are read."""
    end = len(data)  # where the text ends, before a '\n' added to it
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = data + bytes(8)
    pad = np.frombuffer(buf, np.uint8)
    text = pad[:len(data)]
    newline = text == ord("\n")
    sep = np.flatnonzero(newline | (text == ord(",")))
    limit = csv.field_size_limit()
    quoted = b'"' in data
    if quoted:
        is_quote = text == ord('"')
        sep = sep[~np.bitwise_xor.accumulate(is_quote)[sep]]  # even counts
    at, broken, _ = _broken(buf, end, True)
    if broken is not None:
        sep = _records_before(sep, text, at)
    # the field that each separator ends, and one more, empty, that stands
    # for every field of a record with a wrong field count
    begins = np.concatenate([[0], sep + 1])
    lengths = np.append(sep, begins[-1]) - begins
    if b"\r" in data:
        lengths[:-1] -= pad[sep - 1] == ord("\r")  # a '\r\n' line end
    blank = lengths == 0  # a blank line is one empty field, and no record
    if quoted:  # a quoted field is read between its quotes
        inner = pad[begins[:-1]] == ord('"')
        begins[:-1] += inner
        lengths[:-1] -= 2 * inner

    def field(j):
        value = buf[begins[j]:begins[j] + lengths[j]]
        return value.decode("utf-8", "surrogatepass").replace('""', '"')

    for j in np.flatnonzero(lengths > limit).tolist():  # bytes >= characters
        if len(field(j)) > limit:
            broken = f"field larger than field limit ({limit})"
            sep = _records_before(sep, text, begins[j])
            begins, lengths = begins[:len(sep) + 1], lengths[:len(sep) + 1]
            lengths[-1] = 0
            break
    last = np.flatnonzero(text[sep] == ord("\n"))  # each line's last field
    count = np.diff(last, prepend=-1)  # fields per line
    record = (count > 1) | ~blank[last]
    first, count = (last - count + 1)[record], count[record]
    width = len(header)
    whole = count == width
    fields = np.where(whole, first + np.arange(width)[:, None], len(sep))
    start, length = begins[fields], lengths[fields]
    raw = {f: _field_values(buf, start[j], length[j])
           for j, f in enumerate(header)}
    if quoted:
        raw = {f: ([v.replace('""', '"') for v in values], inverse)
               for f, (values, inverse) in raw.items()}

    def row(k):
        n = int(count[k])
        return [field(j) for j in
                range(first[k], first[k] + min(n, width + 1))], n
    lines = int(np.count_nonzero(newline[:sep[-1] + 1])) if len(sep) else 0
    return raw, ~whole, row, lines, broken


@dataclass
class _Chunk:
    """The records of one chunk, coded with id tables of their own and
    checked."""
    columns: dict  # SeasonDataset columns of the records that pass
    ids: dict  # id table -> the chunk's ids, in code order
    dropped: int
    warnings: list
    lines: int  # lines read for the chunk
    error: Exception | None  # what the parse raises at this chunk
    broken: str | None  # why the text breaks off after `lines` lines


def _coded_chunk(header, strict, data):
    """The _Chunk of an encoded chunk, tokenized, coded with id tables of
    its own and checked: the work of a parse worker.  Its error is the
    first of: a record that breaks a check in strict mode, an unknown
    event in either mode; no record after it is checked."""
    raw, short, row, lines, broken = _tokenized(data, header)
    cols, tables, malformed = _code_columns(raw)
    rules = list(_rules(cols))
    flagged = np.logical_or.reduce(
        [malformed, short, cols["event"] < 0] + [m for m, _ in rules])
    warnings, error = [], None
    try:
        for k in np.flatnonzero(flagged).tolist():
            fields, count = row(k)
            message = _field_problem(header, fields, count)
            problems = [message] if message else \
                _problems(rules, cols, k, dict(zip(header, fields)))
            if strict:
                raise RecordError("; ".join(problems))
            warnings.extend(
                [f"dropped malformed row: {message}"] if message else problems)
    except (RecordError, TaxonomyError) as exc:
        error = exc
    del rules  # free the rule masks before the columns are filtered
    if flagged.any():
        cols = {name: col[~flagged] for name, col in cols.items()}
    return _Chunk(cols, {t: list(index) for t, index in tables.items()},
                  int(flagged.sum()), warnings, lines, error, broken)


def parse_season(source, strictness="strict"):
    """Parse a season CSV into a SeasonDataset.

    `source` may be a str, bytes, or a text file object.  One byte-order
    mark at its start is ignored.  Lines starting with '#' before the
    header are ignored (the CLI writes a provenance comment); after it
    such a line is a malformed record.  In strict mode any invariant
    violation raises; in lenient mode violating records are dropped and
    counted, and chain breaks become warnings.

    Fields may be quoted as R's write.csv and csv.writer quote them: a
    quoted field may hold ',', line ends and doubled quotes ('""' is one
    '"'), and reads as the same value bare.  A line may end in '\\r\\n'.
    Malformed CSV raises RecordError naming the line its record starts
    on, in either mode: a quote inside a bare field, text after a closing
    quote, a quote never closed, a '\\r' outside a '\\r\\n' line end, a
    NUL.  So does a field longer than csv.field_size_limit(); a quoted
    field that passes it before malformed CSV shows is too long, whatever
    follows in its record.

    The text after the header is read _CHUNK_CHARS characters at a time
    and cut at line ends outside quotes.  A chunk is split at its ',' and
    '\\n' outside quotes and each field column coded from its distinct
    values with array operations (`_tokenized`).  Every record is checked
    with array operations; only a record those checks flag is read again,
    its fields one at a time, for its messages.  A text of more than one
    chunk is coded and checked by one forked worker process per CPU
    (`forking.ordered`), and the results are merged in file order here,
    so they do not depend on the worker count.

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
        if not comments:  # the first line: a byte-order mark is not text
            line = line.removeprefix("\ufeff")
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
    blocks = []
    line = comments + reader.line_num
    text = _Text(source)
    encoded = (chunk.encode("utf-8", "surrogatepass")
               for chunk in iter(text.chunk, ""))
    with closing(ordered(partial(_coded_chunk, header, strict), encoded,
                         "parse worker")) as chunks:
        for part in chunks:
            if part.error is not None:
                raise part.error
            if part.broken is not None:
                raise RecordError(f"line {line + part.lines + 1}: {part.broken}")
            line += part.lines
            report.warnings.extend(part.warnings)
            report.dropped += part.dropped
            blocks.append((part.columns, part.ids))

    dataset = _finish(blocks) if blocks else SeasonDataset.from_records([])
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


def csv_text(header, rows):
    """The CSV text of a `header` row and `rows`, as every CSV output is
    written: a csv.writer with '\\n' line ends, a float as its repr, None
    as an empty field."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


#: the header line of the canonical season CSV
SEASON_HEADER = csv_text(_FIELDS, ())


def serialize_season(dataset):
    """Serialize a SeasonDataset to its canonical CSV string."""
    return csv_text(_FIELDS, zip(*_csv_columns(dataset)))
