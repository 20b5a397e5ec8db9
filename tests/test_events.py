"""Data model, parsing, validation, and serialization tests."""

import csv
import io
import os
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openwar import events, forking
from openwar.events import (
    BALL_IN_PLAY,
    CSV_COLUMNS,
    EVENT_TYPES,
    ChainError,
    RecordError,
    SchemaError,
    SeasonDataset,
    TaxonomyError,
    parse_season,
    serialize_season,
    _by_record,
    _code_columns,
    _field_problem,
    _problems,
    _rules,
)
from openwar.simulate import generate_synthetic_season
from openwar.forking import WorkerError

from fixtures import build_re_fixture, make_pa, records


def test_taxonomy_is_closed():
    assert len(EVENT_TYPES) == 32
    assert len(set(EVENT_TYPES)) == 32
    assert set(BALL_IN_PLAY) == set(EVENT_TYPES)


def test_pitcher_only_events():
    assert {e for e, bip in BALL_IN_PLAY.items() if not bip} == {
        "Strikeout", "Walk", "Intent Walk", "Hit By Pitch", "Home Run",
        "Catcher Interference", "Batter Interference", "Strikeout - DP",
        "null",
    }
    assert BALL_IN_PLAY["Groundout"]
    assert not BALL_IN_PLAY["Home Run"]


def test_game_state_basics():
    """A base-out state is an out count 0-3 and a base mask 0-7; a state
    outside them is a record error."""
    pa = make_pa("AWY@HOM-0001", 0, 1, "top", 1, 5, "Walk", "1B",
                 {1: "2B", 3: "3B"})
    data = SeasonDataset.from_records([pa])
    assert (data.start_outs[0], data.start_bases[0]) == (1, 5)
    assert data.record(0) == pa
    for column, value in (("start_outs", 4), ("start_bases", 8)):
        with pytest.raises(RecordError, match=f"{column} must be 0-"):
            SeasonDataset.from_records([{**pa, column: value}])


def test_three_out_state_normalizes_bases():
    pa = make_pa("AWY@HOM-0001", 0, 1, "top", 2, 2, "Flyout", "O",
                 {2: "2B"})
    data = SeasonDataset.from_records([{**pa, "end_bases": 6}])
    assert (data.end_outs[0], data.end_bases[0]) == (3, 0)


def test_outs_on_play_and_runners():
    pa = make_pa("AWY@HOM-0001", 0, 1, "top", 0, 3,
                 "Grounded Into DP", "O", {1: "O", 2: "3B"})
    assert [pa[f"runner{b}_id"] for b in (1, 2, 3)] == ["R1", "R2", ""]
    assert [pa[f"runner{b}_dest"] for b in (1, 2, 3)] == ["O", "3B", ""]
    assert (pa["end_outs"], pa["end_bases"]) == (2, 4)


def test_serialize_parse_round_trip():
    data, _, _ = build_re_fixture()
    text = serialize_season(data)
    parsed, report = parse_season(text, "strict")
    assert report.dropped == 0 and report.warnings == []
    assert serialize_season(parsed) == text
    assert records(parsed) == records(data)


def test_parse_skips_comment_lines():
    data, _, _ = build_re_fixture()
    text = "# config: {}\n" + serialize_season(data)
    parsed, report = parse_season(text, "strict")
    assert len(parsed) == len(data)


@pytest.mark.parametrize("newline", [str, "", "\n"],
                         ids=["str", "file newline=''", "file newline=LF"])
def test_comment_lines_end_at_line_feeds_for_every_source(
        tmp_path, monkeypatch, newline):
    """A line before the header ends at '\\n' only, whatever the source: a
    lone '\\r' in a comment is part of it, also where the file object
    splits lines at it.  Lines longer than a read are read whole."""
    data, _, _ = build_re_fixture()
    text = "# note\rmore\r\n# config: {}\n" + serialize_season(data)
    path = tmp_path / "season.csv"
    path.write_bytes(text.encode("utf-8"))
    monkeypatch.setattr(events, "_CHUNK_CHARS", 7)
    if newline is str:
        parsed, report = parse_season(text)
    else:
        with open(path, encoding="utf-8", newline=newline) as fh:
            parsed, report = parse_season(fh)
    assert (report.dropped, report.warnings) == (0, [])
    assert serialize_season(parsed) == serialize_season(data)


@pytest.mark.parametrize("strictness", ["strict", "lenient"])
def test_null_event_batter_dest_must_be_a_code_or_empty(strictness):
    """A null event may leave batter_dest empty, but a value outside the
    destination codes is a record error, as for every other event."""
    pa = make_pa("AWY@HOM-0001", 0, 1, "top", 0, 0, "null", "")
    text = serialize_season(SeasonDataset.from_records([pa]))
    assert len(parse_season(text, strictness)[0]) == 1
    header, row = text.splitlines()
    cells = row.split(",")
    cells[CSV_COLUMNS.index("batter_dest")] = "X"
    bad = "\n".join([header, ",".join(cells)]) + "\n"
    if strictness == "strict":
        with pytest.raises(RecordError, match="bad batter_dest 'X'"):
            parse_season(bad, strictness)
    else:
        parsed, report = parse_season(bad, strictness)
        assert (len(parsed), report.dropped) == (0, 1)
        assert report.warnings == [
            "game AWY@HOM-0001 pa 0: bad batter_dest 'X'"]


def test_parse_rejects_bad_header():
    with pytest.raises(SchemaError):
        parse_season("a,b,c\n1,2,3\n")
    # a missing required column is also a schema error
    data, _, _ = build_re_fixture()
    lines = serialize_season(data).splitlines()
    header = ",".join(c for c in lines[0].split(",") if c != "bip_x")
    with pytest.raises(SchemaError):
        parse_season("\n".join([header] + lines[1:]))
    # so is a column listed twice, even with rows as wide as the header
    k = CSV_COLUMNS.index("bip_y")
    twice = [line + "," + line.split(",")[k] for line in lines]
    with pytest.raises(SchemaError,
                       match=r"^bad header: duplicated columns \['bip_y'\]$"):
        parse_season("\n".join(twice) + "\n")


def test_parse_rejects_unknown_event():
    data, _, _ = build_re_fixture()
    text = serialize_season(data).replace("Groundout", "Ground Rule Kerfuffle")
    with pytest.raises(TaxonomyError):
        parse_season(text, "strict")
    # taxonomy violations are fatal even in lenient mode
    with pytest.raises(TaxonomyError):
        parse_season(text, "lenient")


def test_strict_raises_lenient_drops():
    data, _, _ = build_re_fixture()
    bad = {**data.record(0), "runs_scored": 9}
    rows = [bad] + records(data)[1:]
    text = serialize_season(SeasonDataset.from_records(rows))
    with pytest.raises(RecordError):
        parse_season(text, "strict")
    parsed, report = parse_season(text, "lenient")
    assert report.dropped == 1
    assert len(parsed) == len(data) - 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_bip_coordinates_are_record_errors(value):
    data, _, _ = build_re_fixture()
    rows = records(data)
    k = next(i for i, pa in enumerate(rows) if BALL_IN_PLAY[pa["event_type"]])
    lines = serialize_season(data).splitlines()
    cells = lines[k + 1].split(",")
    cells[CSV_COLUMNS.index("bip_x")] = value
    lines[k + 1] = ",".join(cells)
    text = "\n".join(lines) + "\n"
    with pytest.raises(RecordError, match="bip_x/bip_y must be finite"):
        parse_season(text, "strict")
    parsed, report = parse_season(text, "lenient")
    assert report.dropped == 1
    assert len(parsed) == len(data) - 1
    # NaN marks an absent coordinate in memory, so records are checked too
    bad = {**rows[k], "bip_x": float(value)}
    with pytest.raises(RecordError, match="bip_x/bip_y must be finite"):
        SeasonDataset.from_records([bad])


@pytest.mark.parametrize("location", [(None, 5.0), (5.0, None)])
def test_half_missing_bip_location_is_record_error(location):
    data, _, _ = build_re_fixture()
    pa = next(pa for pa in records(data) if BALL_IN_PLAY[pa["event_type"]])
    bad = {**pa, "bip_x": location[0], "bip_y": location[1]}
    with pytest.raises(RecordError, match="bip_x/bip_y must both be set"):
        SeasonDataset.from_records([bad])


def test_fields_left_out_or_none_are_absent():
    """A dict row may leave a field out, or give it as None: absent
    coordinates code as NaN, and an absent integer is a record error."""
    walk = make_pa("AWY@HOM-0001", 0, 1, "top", 0, 0, "Walk", "1B")
    bare = {f: v for f, v in walk.items() if f not in ("bip_x", "bip_y")}
    assert SeasonDataset.from_records([bare]).record(0) == walk
    with pytest.raises(RecordError, match="runs_scored must be an integer, "
                                          "got None"):
        SeasonDataset.from_records([{**walk, "runs_scored": None}])


@pytest.mark.parametrize("given", ["none", "empty", "left-out"])
@pytest.mark.parametrize("column", ["game_id", "batter_id", "pitcher_id",
                                    "ballpark_id"])
def test_missing_id_is_record_error(column, given):
    """An id a record must give, None, empty or left out of the second
    record, is a RecordError naming the field and the record, from full
    rows, from rows of the CSV columns alone and from CSV text alike."""
    first = make_pa("AWY@HOM-0001", 0, 1, "top", 0, 0, "Walk", "1B")
    second = make_pa("AWY@HOM-0001", 1, 1, "top", 0, 1, "Strikeout", "O",
                     {1: "1B"})
    text = serialize_season(SeasonDataset.from_records([first, second]))
    if given == "left-out":
        del second[column]
    else:
        second[column] = None if given == "none" else ""
    message = f"pa 1: {column} must be given"
    with pytest.raises(RecordError, match=message):
        SeasonDataset.from_records([first, second])
    csv_only = [{f: first[f] for f in CSV_COLUMNS},
                  {f: second.get(f) for f in CSV_COLUMNS}]
    with pytest.raises(RecordError, match=message):
        SeasonDataset.from_records(csv_only)
    if given == "empty":
        header, *rows = text.splitlines()
        cells = rows[1].split(",")
        cells[CSV_COLUMNS.index(column)] = ""
        blanked = "\n".join([header, rows[0], ",".join(cells)]) + "\n"
        with pytest.raises(RecordError, match=message):
            parse_season(blanked, "strict")
        parsed, report = parse_season(blanked, "lenient")
        assert (len(parsed), report.dropped) == (1, 1)


def test_none_coordinates_of_a_season_code_as_absent():
    season = generate_synthetic_season(1, 3, teams=2)
    rows = [season.record(i) for i in range(len(season))]
    none = [{f: None if f.startswith("bip_") and v == "" else v
             for f, v in row.items()} for row in rows]
    assert None in [row["bip_x"] for row in none]
    assert serialize_season(SeasonDataset.from_records(none)) == \
        serialize_season(SeasonDataset.from_records(rows))


def test_bip_presence_must_match_event():
    pa = make_pa("AWY@HOM-0001", 0, 1, "top", 0, 0, "Walk", "1B")
    no_coords = {**make_pa("AWY@HOM-0001", 1, 1, "top", 0, 1, "Single", "1B",
                           {1: "2B"}), "bip_x": "", "bip_y": ""}
    with_coords = {**pa, "bip_x": 10.0, "bip_y": 10.0}
    for bad in (no_coords, with_coords):
        text = serialize_season(SeasonDataset.from_records([bad]))
        parsed, report = parse_season(text, "lenient")
        assert (len(parsed), report.dropped) == (0, 1)
        assert any("bip" in w or "location" in w for w in report.warnings)


_SINGLE = make_pa("AWY@HOM-0001", 0, 1, "top", 0, 0, "Single", "1B")
_WALK = make_pa("AWY@HOM-0001", 0, 1, "top", 0, 0, "Walk", "1B")
_FLYOUT = make_pa("AWY@HOM-0001", 0, 1, "top", 0, 0, "Flyout", "O",
                  credited="CF")


@pytest.mark.parametrize("bad, messages", [
    ({**_SINGLE, "runs_scored": 2},
     ["runs_scored=2 but 0 scored destinations"]),
    ({**_SINGLE, "end_outs": 2},
     ["0 out destinations but outs advanced by 2"]),
    ({**_SINGLE, "end_outs": 0, "start_outs": 1},
     ["outs decrease within a plate appearance"]),
    ({**_SINGLE, "start_bases": 1},
     ["base 1 occupied but runner id/dest missing"]),
    ({**_SINGLE, "runner2_id": "R2", "runner2_dest": "3B"},
     ["base 2 empty but runner fields present"]),
    ({**_SINGLE, "runner3_dest": "H"},
     ["base 3 empty but runner fields present"]),
    ({**_SINGLE, "bip_x": "", "bip_y": ""},
     ["in-play event 'Single' missing bip location"]),
    ({**_WALK, "bip_x": 10.0, "bip_y": 10.0},
     ["event 'Walk' cannot carry a bip location"]),
    ({**_FLYOUT, "credited_fielder_position": "DH"}, []),
    ({**_FLYOUT, "half": "", "batter_dest": "", "f4": ""},
     ["half must be top/bottom, got ''", "fielder_ids must list 9 players",
      "bad batter_dest ''", "0 out destinations but outs advanced by 1"]),
    ({**_FLYOUT, "event_type": "Ground Rule Kerfuffle"},
     ["unknown event_type ''"]),
], ids=["runs", "outs", "outs-decrease", "occupied", "empty", "empty-dest",
        "bip-missing", "bip-present", "credited", "absent", "taxonomy"])
def test_validate_and_parse_report_the_same_problems(bad, messages):
    """A record broken with values a SeasonDataset can hold, written by
    `serialize_season`, is dropped by a lenient parse with its messages
    and raises them in a strict one.  A credited position outside the
    vocabulary is stored as absent, so the parse finds nothing wrong with
    it; an unknown event is stored as absent too, and raises TaxonomyError
    in both modes."""
    text = serialize_season(SeasonDataset.from_records([bad]))
    expected = [f"game AWY@HOM-0001 pa 0: {m}" for m in messages]
    if bad["event_type"] not in EVENT_TYPES:
        for strictness in ("strict", "lenient"):
            with pytest.raises(TaxonomyError) as exc:
                parse_season(text, strictness)
            assert [str(exc.value)] == expected
        return
    parsed, report = parse_season(text, "lenient")
    assert report.warnings == expected
    if not messages:  # the credited DH, stored as absent
        assert (len(parsed), report.dropped) == (1, 0)
        assert parsed.record(0)["credited_fielder_position"] == ""
        return
    assert (len(parsed), report.dropped) == (0, 1)
    with pytest.raises(RecordError) as exc:
        parse_season(text, "strict")
    assert str(exc.value) == "; ".join(expected)


def test_chain_break_strict_vs_lenient():
    data, _, _ = build_re_fixture()
    rows = records(data)
    # make the second record start from the wrong state
    rows[1] = make_pa("AWY@HOM-0001", 1, 1, "top", 1, 0, "Single", "1B")
    text = serialize_season(SeasonDataset.from_records(rows))
    with pytest.raises(ChainError):
        parse_season(text, "strict")
    parsed, report = parse_season(text, "lenient")
    assert any("chain break" in w for w in report.warnings)
    assert (len(parsed), report.dropped) == (len(rows), 0)


def test_half_inning_must_start_clean():
    rows = [make_pa("AWY@HOM-0001", 0, 1, "top", 1, 0, "Strikeout", "O")]
    with pytest.raises(ChainError):
        parse_season(serialize_season(SeasonDataset.from_records(rows)),
                     "strict")


def test_parse_builds_player_and_park_ids():
    data, _, _ = build_re_fixture()
    parsed, _ = parse_season(serialize_season(data))
    assert "B1" in parsed.player_ids and "P1" in parsed.player_ids
    assert "R1" in parsed.player_ids  # runners are players too
    assert parsed.park_ids == ["PK"]


def test_optional_credited_column_round_trips():
    pa = make_pa("AWY@HOM-0001", 0, 1, "top", 0, 0, "Flyout", "O",
                 credited="CF")
    data = SeasonDataset.from_records([pa])
    parsed, _ = parse_season(serialize_season(data))
    assert parsed.record(0)["credited_fielder_position"] == "CF"
    # the column, the last one, may be omitted entirely
    without = "".join(line.rsplit(",", 1)[0] + "\n" for line in
                      serialize_season(data).splitlines())
    parsed2, _ = parse_season(without)
    assert parsed2.record(0)["credited_fielder_position"] == ""


def test_csv_column_order_is_stable():
    assert CSV_COLUMNS[0] == "game_id"
    assert CSV_COLUMNS[-2:] == ("bip_x", "bip_y")
    data, _, _ = build_re_fixture()
    header = serialize_season(data).splitlines()[0]
    assert header == ",".join(CSV_COLUMNS + ("credited_fielder_position",))


# One valid season as raw CSV rows, for mutating one field at a time; its
# last row is a null event, the one event whose batter_dest may be empty.
_HEADER, *_ROWS = csv.reader(io.StringIO(serialize_season(
    SeasonDataset.from_records(records(build_re_fixture()[0]) + [
        make_pa("AWY@HOM-0001", 30, 3, "top", 0, 0, "null", "")]))))
_FIELD_VALUES = st.one_of(
    st.sampled_from([
        "", "0", "3", "4", "7", "8", "-1", " 2", "1_0", "1.5", "1e400", "nan",
        "inf", "H", "O", "1B", "3B", "top", "bottom", "L", "S", "P", "CF",
        "DH", "Single", "Walk", "Groundout", "Home Run", "null", "R1", "B1",
        "D1", "#", "# AWY@HOM-0001", "9223372036854775807",
        "9223372036854775808", "-9223372036854775809"]),
    st.integers(-2, 9).map(str),
    st.floats().map(repr),
    # no line breaks
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(row=st.integers(0, len(_ROWS) - 1),
       column=st.integers(0, len(_HEADER) - 1), value=_FIELD_VALUES)
def test_array_checks_agree_with_scalar_checks(row, column, value):
    """Mutate one field of a valid season: the array checks flag exactly the
    rows whose scalar parse reports a problem, and a lenient parse warns
    with exactly the scalar messages."""
    rows = [list(r) for r in _ROWS]
    rows[row][column] = value
    cols, _, malformed = _code_columns(
        _by_record(dict(zip(_HEADER, map(list, zip(*rows))))))
    rules = list(_rules(cols))
    flagged = np.logical_or.reduce(
        [malformed, cols["event"] < 0] + [m for m, _ in rules])
    # the scalar reads: the other rows are valid as they stand
    malformed = _field_problem(_HEADER, rows[row])
    try:
        problems = [] if malformed else \
            _problems(rules, cols, row, dict(zip(_HEADER, rows[row])))
    except TaxonomyError:
        assert flagged.tolist() == [k == row for k in range(len(rows))]
        with pytest.raises(TaxonomyError):
            parse_season(_csv(rows), "lenient")
        return
    bad = bool(malformed or problems)
    assert flagged.tolist() == [k == row and bad for k in range(len(rows))]

    _, report = parse_season(_csv(rows), "lenient")
    assert report.dropped == bad
    messages = [f"dropped malformed row: {malformed}"] if malformed else problems
    assert report.warnings[:len(messages)] == messages
    if bad:
        with pytest.raises(RecordError) as exc:
            parse_season(_csv(rows), "strict")
        assert str(exc.value) == (malformed or "; ".join(problems))


def _csv(rows):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([_HEADER] + rows)
    return out.getvalue()


def test_a_long_record_is_read_only_past_the_header():
    """A record with far more fields than the header is dropped for its
    field count after at most one field past the header's is decoded; its
    message keeps the true count."""
    long_row = _ROWS[1] + ["x"] * (10_000 - len(_HEADER))
    body = _csv([_ROWS[0], long_row]).split("\n", 1)[1]
    _, short, row, _, _ = events._tokenized(body.encode(), _HEADER)
    assert short.tolist() == [False, True]
    fields, count = row(1)
    assert count == 10_000
    assert len(fields) <= len(_HEADER) + 1
    message = _field_problem(_HEADER, long_row)
    assert message.endswith(": 10000 fields, header has 35")
    assert _field_problem(_HEADER, fields, count) == message
    _, report = parse_season(_csv([_ROWS[0], long_row]), "lenient")
    assert report.warnings == [f"dropped malformed row: {message}"]


@pytest.mark.parametrize("strictness", ["strict", "lenient"])
@pytest.mark.parametrize("column,value,expected", [
    ("start_outs", "x", "start_outs must be an integer, got 'x'"),
    ("runs_scored", "1.5", "runs_scored must be an integer, got '1.5'"),
    ("bip_x", "abc", "bip_x must be a number, got 'abc'"),
])
def test_malformed_number_names_its_record(strictness, column, value,
                                           expected):
    rows = [list(r) for r in _ROWS]
    k = next(i for i, r in enumerate(rows)
             if r[_HEADER.index("bip_x")] != "")
    rows[k][_HEADER.index(column)] = value
    message = f"game {rows[k][0]} pa {rows[k][1]}: {expected}"
    if strictness == "strict":
        with pytest.raises(RecordError) as exc:
            parse_season(_csv(rows), strictness)
        assert str(exc.value) == message
    else:
        parsed, report = parse_season(_csv(rows), strictness)
        assert (len(parsed), report.dropped) == (len(rows) - 1, 1)
        # chain warnings about the gap the dropped row leaves follow
        assert report.warnings[0] == f"dropped malformed row: {message}"


@pytest.mark.parametrize("reader", [False, True], ids=["arrays", "csv.reader"])
@pytest.mark.parametrize("strictness", ["strict", "lenient"])
@pytest.mark.parametrize("column,value,expected", [
    ("pa_index", "99999999999999999999",
     "pa_index must be a 64-bit integer, got 99999999999999999999"),
    ("runs_scored", "-9223372036854775809",
     "runs_scored must be a 64-bit integer, got -9223372036854775809"),
    ("start_outs", "5", "start_outs must be 0-3, got 5"),
    ("end_bases", "9", "end_bases must be 0-7, got 9"),
    ("start_bases", "-1", "start_bases must be 0-7, got -1"),
], ids=["pa_index", "runs_scored", "start_outs", "end_bases", "start_bases"])
def test_out_of_range_integer_names_its_record(strictness, reader, column,
                                               value, expected):
    """An integer beyond int64 or a state out of range is a record error
    naming the record and column, in a chunk with no quote and in one with
    a field quoted as csv.writer quotes it, which csv.reader reads as the
    same row."""
    rows = [list(r) for r in _ROWS]
    k = 4
    rows[k][_HEADER.index(column)] = value
    if reader:
        rows[1][_HEADER.index("batter_id")] = "B,1"
    message = f"game {rows[k][0]} pa {rows[k][1]}: {expected}"
    if strictness == "strict":
        with pytest.raises(RecordError) as exc:
            parse_season(_csv(rows), strictness)
        assert str(exc.value) == message
    else:
        parsed, report = parse_season(_csv(rows), strictness)
        assert (len(parsed), report.dropped) == (len(rows) - 1, 1)
        assert report.warnings[0] == f"dropped malformed row: {message}"


@pytest.mark.parametrize("chunk", [1 << 20, 64])
@pytest.mark.parametrize("strictness", ["strict", "lenient"])
def test_line_csv_reader_cannot_read_is_a_record_error(strictness, chunk,
                                                       monkeypatch):
    """csv.reader stops at a '\\r' inside an unquoted field and cannot go
    on, and the tokenizer reads no '\\r' outside a '\\r\\n' line end, so
    both modes raise, naming the line, also in a later chunk; a bad row
    before it in the file is reported first."""
    monkeypatch.setattr(events, "_CHUNK_CHARS", chunk)
    rows = [list(r) for r in _ROWS]
    rows[3][_HEADER.index("batter_id")] = "B\r1"
    with pytest.raises(RecordError) as exc:
        parse_season(_csv(rows), strictness)
    assert str(exc.value) == f"line 5: {events._MALFORMED}"
    rows[1][_HEADER.index("runs_scored")] = "x"
    if strictness == "strict":
        with pytest.raises(RecordError, match="runs_scored must be an integer"):
            parse_season(_csv(rows), strictness)


@pytest.mark.parametrize("chunk", [1, 100, 1 << 20])
def test_quoted_line_break_may_span_chunks(chunk, monkeypatch):
    monkeypatch.setattr(events, "_CHUNK_CHARS", chunk)
    rows = [list(r) for r in _ROWS]
    for k in (2, 5):
        rows[k][_HEADER.index("batter_id")] = "B\n\n1"
    data, report = parse_season(_csv(rows), "strict")
    assert len(data) == len(rows) and "B\n\n1" in data.player_ids
    assert [data.player_ids[data.batter[k]] for k in (1, 2, 5)] == \
        ["B1", "B\n\n1", "B\n\n1"]


def test_ids_that_differ_past_byte_eight_stay_apart():
    rows = [list(r) for r in _ROWS]
    names = ["ABCDEFGH", "ABCDEFGH1", "ABCDEFGH2", "ABCDEFGH12345678",
             "ABCDEFGH12345679", "Bätter", "Bätte"]
    for k, row in enumerate(rows):
        row[_HEADER.index("batter_id")] = names[k % len(names)]
    data, report = parse_season(_csv(rows), "strict")
    assert set(names) <= set(data.player_ids)
    assert [data.player_ids[b] for b in data.batter] == \
        [names[k % len(names)] for k in range(len(rows))]
    # a NUL would key "B1\0" as "B1": it is malformed CSV instead
    rows[3][_HEADER.index("batter_id")] = "B1\0"
    assert _outcome(_csv(rows), "lenient") == \
        (RecordError, f"line 5: {events._MALFORMED}")


def test_long_field_costs_its_bytes_not_the_rows(monkeypatch):
    """Guard against keying every field of a column 8 bytes at a time up to
    the longest one: past their first 8 bytes only the fields that long are
    sorted, so one 10,000-byte id adds about 2 x 1,250 sorted words."""
    rows = [list(r) for r in _ROWS]
    rows[0][_HEADER.index("batter_id")] = "B" * 10_000
    sorted_words = []
    unique = np.unique
    monkeypatch.setattr(events.np, "unique", lambda a, *args, **kwargs: (
        sorted_words.append(np.size(a)) or unique(a, *args, **kwargs)))
    data, report = parse_season(_csv(rows), "strict")
    assert data.player_ids[data.batter[0]] == "B" * 10_000
    assert sum(sorted_words) < 2 * (len(_HEADER) * len(rows) + 2 * 1_250)


def test_parse_reads_the_source_in_chunks(season, monkeypatch):
    """The text is read a chunk at a time, never whole."""
    text = serialize_season(season)
    monkeypatch.setattr(events, "_CHUNK_CHARS", 1 << 14)
    sizes = []

    class Recorded(io.StringIO):
        def read(self, size=-1):
            sizes.append(size)
            return super().read(size)

    data, report = parse_season(Recorded(text))
    assert report.dropped == 0 and report.warnings == []
    assert len(data) == len(season)
    assert len(sizes) > len(text) >> 14
    assert all(0 < size <= 1 << 14 for size in sizes)
    assert serialize_season(data) == text


def _outcome(text, strictness):
    """What parse_season makes of `text`: its columns, id tables and
    report, or the type and text of what it raises."""
    try:
        data, report = parse_season(text, strictness)
    except Exception as exc:  # any failure, compared by type and text
        return type(exc), str(exc)
    columns = {name: (col.dtype.str, col.shape, col.tobytes())
               for name, col in vars(data).items()
               if isinstance(col, np.ndarray)}
    return (columns, data.game_ids, data.player_ids, data.park_ids,
            report.dropped, report.warnings)


_RENAMES = st.sampled_from([
    {}, {"B1": "Bätter"}, {"P1": "名前"}, {"PK": "PARKPARK" * 3 + "Bätter"},
    {"B1": "ABCDEFGH1", "R1": "ABCDEFGH2", "R2": "ABCDEFGH"},
    {"B1": 'B "1"', "PK": "P,K"}, {"P1": "P\n1", "R1": "R\r\n1"}])
_ODD_VALUES = st.one_of(
    st.sampled_from([
        "", "x", " 2", "1_0", "-0.0", "1e400", "nan", "B1", "B1\0", "R1",
        "ABCDEFGH", "ABCDEFGH1", "ABCDEFGH2", "Bätter", "名前", "#", "# AWY",
        "a\nb", "x,y", '5"', '"', '""', 'say "hi"', "a\rb", "a\r\nb",
        "X" * 40, "Bätter" * 5, "Single", "O", "1B"]),
    st.text(max_size=10))


def _quoted(value):
    return '"' + value.replace('"', '""') + '"'


@st.composite
def _season_texts(draw):
    """A season CSV drawn around the valid rows: blank lines, '#' rows,
    rows with a field changed or missing or added, fields quoted as R and
    csv.writer quote them (holding ',', line ends and doubled quotes),
    quotes put anywhere in a line, non-ASCII and long ids, CRLF line ends
    and a last line with no line end."""
    rename = draw(_RENAMES)
    first = draw(st.integers(0, len(_ROWS) - 1))
    lines = [",".join(_HEADER)]
    for row in _ROWS[first:first + draw(st.integers(0, 12))]:
        row = [rename.get(v, v) for v in row]
        kind = draw(st.sampled_from(
            ["keep"] * 2 + ["field", "short", "long", "blank", "comment"]))
        if kind == "field":
            row[draw(st.integers(0, len(row) - 1))] = draw(_ODD_VALUES)
        elif kind == "short":
            row.pop()
        elif kind == "long":
            row.append("")
        elif kind == "blank":
            lines.append("")
        elif kind == "comment":
            lines.append("# " + ",".join(row[:3]))
        # "minimal" quotes as csv.writer does, "some" more fields than that
        quoting = draw(st.sampled_from(
            ["minimal", "minimal", "none", "some", "all"]))
        cells = []
        for v in row:
            if quoting == "all" or quoting != "none" and (
                    any(c in v for c in ',"\r\n')
                    or quoting == "some" and draw(st.booleans())):
                v = _quoted(v)
            cells.append(v)
        line = ",".join(cells)
        if draw(st.integers(0, 24)) == 0:  # most likely malformed
            k = draw(st.integers(0, len(line)))
            line = line[:k] + '"' + line[k:]
        lines.append(line)
    ends = draw(st.lists(st.sampled_from(["\n"] * 5 + ["\r\n"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[:-len(ends[-1])] if draw(st.booleans()) else text


def _bare_quote(raw, row):
    """Whether record text `raw`, read by csv.reader as `row`, holds a
    quote in a field that is not quoted.  A quoted field reads as
    _quoted(value), so each field is the one form or the other."""
    raw = raw.removesuffix("\n").removesuffix("\r")
    at = 0
    for value in row:
        if raw.startswith(_quoted(value), at):
            at += len(_quoted(value)) + 1
        elif '"' in value:
            return True
        else:
            at += len(value) + 1
    return False


def _past_limit(text, limit):
    """The index in `text` of the first character of a quoted field that
    comes after `limit` characters of it, reading fields as csv.reader
    does, or None."""
    quoted, at = False, 0
    while at < len(text):
        c = text[at]
        if quoted and c == '"' and text[at + 1:at + 2] != '"':
            quoted = False
        elif quoted:
            if count == limit:
                return at
            count += 1
            at += c == '"'  # a doubled quote is one character
        elif c == '"' and (at == 0 or text[at - 1] in ",\n"):
            quoted, count = True, 0
        at += 1
    return None


def _nul_or_lone_cr(raw):
    return "\0" in raw or re.search("\r(?!\n)", raw + "\n")


def _oracle(text, strictness):
    """What parse_season makes of `text`, a drawn season whose header is
    its first line, in the form of `_outcome`, as csv.reader(strict=True)
    reads it: the records before the first it cannot read, or that is
    malformed CSV by the rules csv.reader does not have (a quote in a
    field that is not quoted, a '\\r' outside a '\\r\\n' line end, a NUL),
    or that holds a field over csv.field_size_limit(), are coded one at a
    time by the library's row path (`_field_problem`, `_rules`,
    `SeasonDataset.from_records`, then `_chain_messages` for the state
    chain); then that record raises RecordError
    naming its first line.  A quoted field read past the limit ends the
    text there, as csv.reader stops at it: its record is too long, unless
    malformed CSV shows before that point."""
    limit = csv.field_size_limit(sys.maxsize)  # checked after the rules
    too_long = f"field larger than field limit ({limit})"
    try:
        body = text.partition("\n")[2]
        past = _past_limit(body, limit)
        body = io.StringIO(body[:past]).readlines()
        reader = csv.reader(body, strict=True)
        rows, broken = [], None
        while True:
            line = reader.line_num
            try:
                row = next(reader, None)
            except csv.Error as exc:
                broken = events._MALFORMED
                raw = "".join(body[line:])
                if past is not None and str(exc) == "unexpected end of data":
                    # the field cut at the limit, closed to read its record
                    row = next(csv.reader([raw + '"']))
                    if not (_nul_or_lone_cr(raw)
                            or _bare_quote(raw + '"', row)):
                        broken = too_long
                break
            if row is None:
                break
            raw = "".join(body[line:reader.line_num])
            if _nul_or_lone_cr(raw) or _bare_quote(raw, row):
                broken = events._MALFORMED
                break
            if any(len(value) > limit for value in row):
                broken = too_long
                break
            if row:
                rows.append(row)
    finally:
        csv.field_size_limit(limit)
    strict = strictness == "strict"
    kept, warnings = [], []
    try:
        for row in rows:
            fields = dict(zip(_HEADER, row))
            message = _field_problem(_HEADER, row)
            if not message:
                cols, *_ = _code_columns(_by_record(
                    {f: [v] for f, v in fields.items()}))
                problems = _problems(list(_rules(cols)), cols, 0, fields)
                if not problems:
                    kept.append(row)
                    continue
            if strict:
                raise RecordError(message or "; ".join(problems))
            warnings.extend([f"dropped malformed row: {message}"] if message
                            else problems)
        if broken is not None:
            raise RecordError(f"line {line + 2}: {broken}")
        data = SeasonDataset.from_records(dict(zip(_HEADER, row))
                                          for row in kept)
        breaks = events._chain_messages(data)
        if strict and breaks:
            raise ChainError("; ".join(breaks[:5]))
        warnings += breaks
    except (RecordError, TaxonomyError, ChainError) as exc:
        return type(exc), str(exc)
    columns = {name: (col.dtype.str, col.shape, col.tobytes())
               for name, col in vars(data).items()
               if isinstance(col, np.ndarray)}
    return (columns, data.game_ids, data.player_ids, data.park_ids,
            len(rows) - len(kept), warnings)


@settings(max_examples=300, deadline=None)
@given(text=_season_texts(), chunk=st.integers(1, 300),
       strictness=st.sampled_from(["strict", "lenient"]),
       limit=st.sampled_from([None, 30]))
def test_tokenizer_agrees_with_csv_reader(text, chunk, strictness, limit):
    """The array tokenizer, on records across chunk boundaries coded by
    two parse workers and on the whole text in one chunk, gives what
    csv.reader(strict=True) and the rules it does not have give: the same
    columns, id tables and report, or the same error, also for malformed
    quoting and for fields too long to read under a lowered
    csv.field_size_limit."""
    outcomes = []
    previous = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        for size in (chunk, len(text) + 1):
            with mock.patch.object(events, "_CHUNK_CHARS", size), \
                    mock.patch.object(forking, "usable_cpus", lambda: 2):
                outcomes.append(_outcome(text, strictness))
            _no_child_left()
        expected = _oracle(text, strictness)
    finally:
        csv.field_size_limit(previous)
    assert outcomes[0] == expected
    assert outcomes[1] == expected


def _no_child_left():
    """Every process a parse forked has been waited for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _many_chunk_season(season):
    """The session season as CSV text, with two records flagged in the
    middle (one malformed, one breaking a rule) and one record quoted
    between them, as csv.writer quotes, so that one chunk of many holds
    quotes."""
    lines = serialize_season(season).splitlines(keepends=True)
    mid = len(lines) // 2
    header = lines[0].rstrip("\n").split(",")
    for k, column, value in ((mid - 40, "runs_scored", "x"),
                             (mid + 40, "half", "middle")):
        fields = lines[k].rstrip("\n").split(",")
        fields[header.index(column)] = value
        lines[k] = ",".join(fields) + "\n"
    out = io.StringIO()
    csv.writer(out, quoting=csv.QUOTE_ALL, lineterminator="\n").writerow(
        lines[mid].rstrip("\n").split(","))
    lines[mid] = out.getvalue()
    return "".join(lines)


#: the columns R's write.csv writes bare: its numeric columns
_NUMBERS = set(events._INT_COLUMNS) | {"bip_x", "bip_y"}


def _r_style(text, end="\n"):
    """CSV `text` as R's write.csv writes its data frame: the header and
    every field of a string column quoted, an empty one as "", and the
    numbers bare."""
    header, *rows = csv.reader(io.StringIO(text))
    bare = [f in _NUMBERS for f in header]
    lines = [",".join(map(_quoted, header))]
    lines += [",".join(v if b else _quoted(v) for v, b in zip(row, bare))
              for row in rows]
    return end.join(lines) + end


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["LF", "CRLF"])
@pytest.mark.parametrize("strictness", ["strict", "lenient"])
def test_r_style_quoting_parses_as_the_plain_text(season, strictness, end,
                                                  monkeypatch):
    """A season of about a hundred chunks with every string field quoted
    as R writes it gives the same columns, dtypes, id tables and report,
    or the same error, as the plain text, with 1, 2 and 3 workers."""
    plain = _many_chunk_season(season)
    quoted = _r_style(plain, end)
    assert quoted.count('"') > len(plain) // 10
    monkeypatch.setattr(events, "_CHUNK_CHARS", 1 << 13)
    expected = _outcome(plain, strictness)
    for workers in (1, 2, 3):
        monkeypatch.setattr(forking, "usable_cpus", lambda w=workers: w)
        assert _outcome(quoted, strictness) == expected
        _no_child_left()


def test_every_quoted_chunk_is_coded_by_a_worker(season, monkeypatch):
    """Quoted chunks are tokenized like the others: a text of many, each
    with quotes on every line, is coded wholly by the parse workers."""
    text = _r_style(serialize_season(season))
    monkeypatch.setattr(events, "_CHUNK_CHARS", 1 << 13)
    monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
    source = io.StringIO(text)
    source.readline()  # the header
    chunks = events._Text(source)
    count = sum(1 for _ in iter(chunks.chunk, ""))
    assert count > 50
    coded = events._coded_chunk

    def signed(*args):  # the chunk's warnings name the process coding it
        part = coded(*args)
        part.warnings.append(os.getpid())
        return part

    monkeypatch.setattr(events, "_coded_chunk", signed)
    data, report = parse_season(text, "lenient")
    assert len(data) == len(season)
    assert len(report.warnings) == count
    assert os.getpid() not in report.warnings
    _no_child_left()


@pytest.mark.parametrize("chunk", [1 << 20, 64])
@pytest.mark.parametrize("strictness", ["strict", "lenient"])
@pytest.mark.parametrize("field", ['B"1', '"B1"x', '"B1'],
                         ids=["bare-field", "after-closing", "never-closed"])
def test_malformed_quoting_is_a_record_error(field, strictness, chunk,
                                             monkeypatch):
    """A quote inside a bare field, text after a closing quote and a quote
    never closed are each a RecordError naming the line of their record,
    in either mode, also in a later chunk, where csv.reader's default
    dialect reads them as B"1, B1x and a field running on to the end of
    the text."""
    monkeypatch.setattr(events, "_CHUNK_CHARS", chunk)
    lines = _csv(_ROWS).splitlines(keepends=True)
    cells = lines[4].split(",")
    cells[_HEADER.index("batter_id")] = field
    lines[4] = ",".join(cells)
    with pytest.raises(RecordError) as exc:
        parse_season("".join(lines), strictness)
    assert str(exc.value) == f"line 5: {events._MALFORMED}"


@pytest.mark.parametrize("strictness", ["strict", "lenient"])
def test_long_field_names_the_line_its_record_starts_on(strictness):
    """A field longer than csv.field_size_limit() is a RecordError naming
    the first line of its record, also when a quoted field before it runs
    on over a line end."""
    rows = [list(r) for r in _ROWS]
    rows[3][_HEADER.index("batter_id")] = "B\n1"
    rows[3][_HEADER.index("pitcher_id")] = "P" * 40
    previous = csv.field_size_limit(30)
    try:
        with pytest.raises(RecordError) as exc:
            parse_season(_csv(rows), strictness)
    finally:
        csv.field_size_limit(previous)
    assert str(exc.value) == "line 5: field larger than field limit (30)"


@pytest.mark.parametrize("chunk", [1 << 20, 64])
@pytest.mark.parametrize("strictness", ["strict", "lenient"])
@pytest.mark.parametrize("long_first", [True, False])
def test_a_quoted_field_past_the_limit_is_too_long_whatever_follows(
        long_first, strictness, chunk, monkeypatch):
    """A quoted field that passes the field limit makes its record too
    long, as csv.reader stops at it, though a quote out of place follows
    it in the record; a quote out of place before it makes the record
    malformed CSV."""
    monkeypatch.setattr(events, "_CHUNK_CHARS", chunk)
    lines = _csv(_ROWS).splitlines(keepends=True)
    cells = lines[4].split(",")
    long, stray = (_HEADER.index(c) for c in ("batter_id", "pitcher_id"))
    if not long_first:
        long, stray = stray, long
    cells[long] = _quoted("B" * 40)
    cells[stray] = 'P"1'
    lines[4] = ",".join(cells)
    previous = csv.field_size_limit(30)
    try:
        with pytest.raises(RecordError) as exc:
            parse_season("".join(lines), strictness)
    finally:
        csv.field_size_limit(previous)
    assert str(exc.value) == "line 5: " + (
        "field larger than field limit (30)" if long_first
        else events._MALFORMED)


def _read_in_pieces(text, strictness, monkeypatch):
    """What parse_season makes of `text` under a field limit of 30, read
    64 characters at a time, with the largest chunk it read, and what it
    makes of it read in one chunk."""
    chunk, sizes = events._Text.chunk, []

    def recorded(self):
        sizes.append(len(part := chunk(self)))
        return part

    monkeypatch.setattr(events._Text, "chunk", recorded)
    previous = csv.field_size_limit(30)
    try:
        outcomes = []
        for size in (64, len(text) + 1):
            monkeypatch.setattr(events, "_CHUNK_CHARS", size)
            outcomes.append((_outcome(text, strictness), max(sizes)))
            sizes.clear()
    finally:
        csv.field_size_limit(previous)
    (outcome, size), (whole, _) = outcomes
    return outcome, size, whole


@pytest.mark.parametrize("strictness", ["strict", "lenient"])
def test_a_stray_quote_does_not_grow_the_chunk(season, strictness,
                                               monkeypatch):
    """A quote inside a bare field on line 11 leaves no line end outside
    quotes after it, so the chunk it starts in would run on to the end of
    the text.  It ends within a read of the stray quote instead, with the
    error the text gives in one chunk, also under a small field limit."""
    lines = serialize_season(season).splitlines(keepends=True)
    cells = lines[10].split(",")
    b = _HEADER.index("batter_id")
    cells[b] = 'T"' + cells[b]
    lines[10] = ",".join(cells)
    outcome, size, whole = _read_in_pieces("".join(lines), strictness,
                                           monkeypatch)
    assert size <= len(lines[10]) + 2 * 64
    assert outcome == whole == \
        (RecordError, f"line 11: {events._MALFORMED}")


@pytest.mark.parametrize("strictness", ["strict", "lenient"])
def test_a_quote_never_closed_does_not_grow_the_chunk(season, strictness,
                                                      monkeypatch):
    """R-quoted text whose first field on line 11 is never closed has an
    odd number of quotes before every later line end, so the chunk it
    starts in would run on to the end of the text.  The quote that opens
    the next quoted field closes that one instead, and a letter follows
    it: the chunk ends within a read of it, with the error the text gives
    in one chunk."""
    lines = _r_style(serialize_season(season)).splitlines(keepends=True)
    assert lines[10].startswith('"')
    lines[10] = lines[10].replace('",', ",", 1)
    outcome, size, whole = _read_in_pieces("".join(lines), strictness,
                                           monkeypatch)
    assert size <= len(lines[10]) + 2 * 64
    assert outcome == whole == \
        (RecordError, f"line 11: {events._MALFORMED}")


@pytest.mark.parametrize("strictness", ["strict", "lenient"])
def test_a_quote_never_closed_in_bare_text_does_not_grow_the_chunk(
        season, strictness, monkeypatch):
    """Bare text whose first field on line 11 opens with a quote that no
    quote after it closes has an odd number of quotes before every later
    line end, so the chunk it starts in would run on to the end of the
    text.  It ends within a read of the field passing the field limit
    instead, and the record is too long, as csv.reader reads it, also in
    one chunk."""
    lines = serialize_season(season).splitlines(keepends=True)
    lines[10] = '"' + lines[10]
    assert "".join(lines).count('"') == 1
    outcome, size, whole = _read_in_pieces("".join(lines), strictness,
                                           monkeypatch)
    assert size <= len(lines[10]) + 2 * 64
    assert outcome == whole == \
        (RecordError, "line 11: field larger than field limit (30)")


@pytest.mark.parametrize("strictness", ["strict", "lenient"])
def test_a_quote_never_closed_before_doubled_quotes_does_not_grow_the_chunk(
        season, strictness, monkeypatch):
    """As above, with a doubled quote every 20 characters after the quote
    that opens line 11: each is one character of the field left open, so
    the field passes the field limit, counted from its opening quote,
    though no read goes past the limit after a quote."""
    lines = serialize_season(season).splitlines(keepends=True)
    rest = "".join(lines[10:])
    rest = '""'.join(rest[k:k + 20] for k in range(0, len(rest), 20))
    text = "".join(lines[:10]) + '"' + rest
    line = text.splitlines(keepends=True)[10]
    outcome, size, whole = _read_in_pieces(text, strictness, monkeypatch)
    assert size <= len(line) + 2 * 64
    assert outcome == whole == \
        (RecordError, "line 11: field larger than field limit (30)")


@pytest.mark.parametrize("style", ["bare", "R"])
def test_text_with_no_line_end_is_checked_in_one_pass(season, style,
                                                      monkeypatch):
    """Records joined by ',' on one line, bare or quoted as R writes them,
    leave no line end outside quotes until the last, so every piece read
    is checked by `_broken`.  Each is checked with only the few bytes
    before it that it can break, not the chunk read so far: the bytes
    handed to `_broken` stay within twice the text."""
    text = serialize_season(season)
    if style == "R":
        text = _r_style(text)
    line = ",".join(text.splitlines()[1:]) + "\n"
    handed, broken = [], events._broken

    def recorded(buf, end, final):
        handed.append(len(buf))
        return broken(buf, end, final)

    monkeypatch.setattr(events, "_broken", recorded)
    monkeypatch.setattr(events, "_CHUNK_CHARS", 64)
    chunks = events._Text(io.StringIO(line))
    assert list(iter(chunks.chunk, "")) == [line]
    size = len(line.encode("utf-8"))
    assert len(handed) >= size // 64 - 1
    assert sum(handed) <= 2 * size


def test_id_tables_hold_only_the_ids_of_kept_records(season, monkeypatch):
    """Three batters with one record each, each record malformed, one in
    the first chunk, one in a middle chunk and one in the last: a lenient
    parse with one worker and with two drops the three records and codes
    the same columns and id tables as the text without them."""
    lines = serialize_season(season).splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    marked = (1, len(lines) // 2, len(lines) - 1)
    for k in marked:
        fields = lines[k].rstrip("\n").split(",")
        fields[header.index("batter_id")] = f"ONLY{k}"
        fields[header.index("half")] = "middle"
        lines[k] = ",".join(fields) + "\n"
    text = "".join(lines)
    kept = "".join(line for k, line in enumerate(lines) if k not in marked)
    monkeypatch.setattr(events, "_CHUNK_CHARS", 1 << 13)
    assert len(text) >> 13 > 50
    for workers in (1, 2):
        monkeypatch.setattr(forking, "usable_cpus", lambda w=workers: w)
        data, report = parse_season(text, "lenient")
        assert report.dropped == 3
        assert not {f"ONLY{k}" for k in marked} & set(data.player_ids)
        assert _outcome(text, "lenient")[:4] == _outcome(kept, "lenient")[:4]
        _no_child_left()


def test_quoted_and_bare_ids_share_a_code():
    """An id quoted on one line and bare on another is one id, as is a
    number quoted; a doubled quote inside a quoted field is one quote."""
    rows = [list(r) for r in _ROWS]
    b = _HEADER.index("batter_id")
    rows[3][b] = rows[2][b] = 'say "B1"'
    lines = _csv(rows).splitlines(keepends=True)
    lines[1] = ",".join(map(_quoted, lines[1].rstrip("\n").split(","))) + "\n"
    data, report = parse_season("".join(lines), "strict")
    assert data.player_ids.count("B1") == 1
    assert [data.player_ids[k] for k in data.batter[:4]] == \
        ["B1", "B1", 'say "B1"', 'say "B1"']
    assert _outcome("".join(lines), "strict") == _outcome(_csv(rows), "strict")


@pytest.mark.parametrize("strictness", ["strict", "lenient"])
def test_worker_count_does_not_change_the_parse(season, strictness,
                                                monkeypatch):
    """1, 2 and 3 parse workers over a season of about a hundred chunks
    give the same columns, dtypes, id tables, dropped count and warnings
    in order, or the same error; and every worker has exited after the
    parse, whether it returned or raised mid-stream."""
    text = _many_chunk_season(season)
    monkeypatch.setattr(events, "_CHUNK_CHARS", 1 << 13)
    assert len(text) >> 13 > 50
    outcomes = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(forking, "usable_cpus", lambda w=workers: w)
        outcomes.append(_outcome(text, strictness))
        _no_child_left()
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
    if strictness == "strict":
        error, message = outcomes[0]
        assert error is RecordError
        assert message.endswith("runs_scored must be an integer, got 'x'")
    else:
        *_, dropped, warnings = outcomes[0]
        assert dropped == 2 and len(warnings) == 2
        assert warnings[0].startswith("dropped malformed row: ")
        assert warnings[1].endswith("half must be top/bottom, got 'middle'")


def test_one_chunk_forks_no_worker(monkeypatch):
    """A text of one chunk, as every season of the tests but the
    many-chunk ones is, is parsed in the calling process."""
    monkeypatch.setattr(forking, "usable_cpus", lambda: 2)

    def must_not_fork():
        raise AssertionError("a text of one chunk forks no worker")

    monkeypatch.setattr(os, "fork", must_not_fork)
    data, report = parse_season(_csv(_ROWS), "strict")
    assert len(data) == len(_ROWS)
    assert report.dropped == 0 and report.warnings == []


def test_a_failing_parse_worker_fails_the_parse(season, monkeypatch):
    """A worker that fails raises WorkerError with its exit status once
    every worker has exited."""
    coded, parent = events._coded_chunk, os.getpid()

    def fails_in_a_worker(*args):
        if os.getpid() != parent:
            raise FloatingPointError("in a parse worker")
        return coded(*args)

    monkeypatch.setattr(events, "_CHUNK_CHARS", 1 << 13)
    monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
    monkeypatch.setattr(events, "_coded_chunk", fails_in_a_worker)
    with pytest.raises(WorkerError,
                       match="parse worker 1 of 2 exited with status 1"):
        parse_season(serialize_season(season))
    _no_child_left()


@pytest.mark.parametrize("kind", ["str", "file"])
def test_byte_order_mark_is_ignored(season, kind, tmp_path):
    """A season saved with a UTF-8 byte-order mark, as spreadsheet "CSV
    UTF-8" exports are, parses as the same season without it."""
    text = "# config: {}\n" + serialize_season(season)
    if kind == "file":  # opened as the command line opens it
        path = tmp_path / "season.csv"
        path.write_text(text, encoding="utf-8-sig")
        with open(path, encoding="utf-8") as fh:
            assert fh.read(1) == "\ufeff"
            fh.seek(0)
            marked = _outcome(fh, "strict")
    else:
        marked = _outcome("\ufeff" + text, "strict")
    assert marked == _outcome(text, "strict")
    assert isinstance(marked[0], dict)
