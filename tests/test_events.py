"""Data model, parsing, validation, and serialization tests."""

import csv
import dataclasses
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openwar.events import (
    BALL_IN_PLAY,
    CSV_COLUMNS,
    EVENT_TYPES,
    PITCHER_ONLY,
    ChainError,
    GameState,
    RecordError,
    SchemaError,
    SeasonDataset,
    TaxonomyError,
    aggregate_team_totals,
    parse_season,
    serialize_season,
    validate_dataset,
    _code_rows,
    _record_mask,
    _row_problems,
)

from fixtures import build_re_fixture, make_pa, records


def test_taxonomy_is_closed():
    assert len(EVENT_TYPES) == 32
    assert len(set(EVENT_TYPES)) == 32
    assert set(BALL_IN_PLAY) == set(EVENT_TYPES)


def test_pitcher_only_events():
    assert PITCHER_ONLY == {
        "Strikeout", "Walk", "Intent Walk", "Hit By Pitch", "Home Run",
        "Catcher Interference", "Batter Interference", "Strikeout - DP",
        "null",
    }
    assert BALL_IN_PLAY["Groundout"]
    assert not BALL_IN_PLAY["Home Run"]


def test_game_state_basics():
    s = GameState(1, 5)
    assert s.occupied(1) and not s.occupied(2) and s.occupied(3)
    assert s.live
    with pytest.raises(RecordError):
        GameState(4, 0)
    with pytest.raises(RecordError):
        GameState(0, 8)


def test_three_out_state_normalizes_bases():
    assert GameState(3, 6) == GameState(3, 0)
    assert not GameState(3, 0).live


def test_outs_on_play_and_runners():
    pa = make_pa("AWY@HOM-0001", 0, 1, "top", 0, 3,
                 "Grounded Into DP", "O", {1: "O", 2: "3B"})
    assert pa.outs_on_play == 2
    assert list(pa.runners()) == [(1, "R1", "O"), (2, "R2", "3B")]
    assert pa.end_state == GameState(2, 4)


def test_serialize_parse_round_trip():
    data, _, _ = build_re_fixture()
    text = serialize_season(data)
    parsed, report = parse_season(text, "strict")
    assert report.ok and report.dropped == 0
    assert serialize_season(parsed) == text
    assert records(parsed) == records(data)


def test_parse_skips_comment_lines():
    data, _, _ = build_re_fixture()
    text = "# config: {}\n" + serialize_season(data)
    parsed, report = parse_season(text, "strict")
    assert len(parsed) == len(data)


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
    bad = dataclasses.replace(data.record(0), runs_scored=9)
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
    k = next(i for i, pa in enumerate(rows) if pa.ball_in_play)
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
    bad = dataclasses.replace(rows[k], bip_location=(float(value), 150.0))
    with pytest.raises(RecordError, match="bip_x/bip_y must be finite"):
        SeasonDataset.from_records([bad])


@pytest.mark.parametrize("location", [(None, 5.0), (5.0, None)])
def test_half_missing_bip_location_is_record_error(location):
    data, _, _ = build_re_fixture()
    pa = next(pa for pa in records(data) if pa.ball_in_play)
    bad = dataclasses.replace(pa, bip_location=location)
    with pytest.raises(RecordError, match="bip_x/bip_y must both be set"):
        SeasonDataset.from_records([bad])


def test_bip_presence_must_match_event():
    pa = make_pa("AWY@HOM-0001", 0, 1, "top", 0, 0, "Walk", "1B")
    no_coords = dataclasses.replace(
        make_pa("AWY@HOM-0001", 1, 1, "top", 0, 1, "Single", "1B", {1: "2B"}),
        bip_location=None)
    with_coords = dataclasses.replace(pa, bip_location=(10.0, 10.0))
    for bad in (no_coords, with_coords):
        report = validate_dataset(
            SeasonDataset.from_records([bad]), strict=False)
        assert any("bip" in e or "location" in e for e in report.errors)


def test_chain_break_strict_vs_lenient():
    data, _, _ = build_re_fixture()
    rows = records(data)
    # make the second record start from the wrong state
    rows[1] = make_pa("AWY@HOM-0001", 1, 1, "top", 1, 0, "Single", "1B")
    broken = SeasonDataset.from_records(rows)
    with pytest.raises(ChainError):
        validate_dataset(broken, strict=True)
    report = validate_dataset(broken, strict=False)
    assert any("chain break" in w for w in report.warnings)


def test_half_inning_must_start_clean():
    rows = [make_pa("AWY@HOM-0001", 0, 1, "top", 1, 0, "Strikeout", "O")]
    with pytest.raises(ChainError):
        validate_dataset(SeasonDataset.from_records(rows), strict=True)


def test_parse_builds_roster_and_parks():
    data, _, _ = build_re_fixture()
    parsed, _ = parse_season(serialize_season(data))
    assert "B1" in parsed.roster and "P1" in parsed.roster
    assert "R1" in parsed.roster  # runners belong to the roster too
    assert parsed.park_ids == ["PK"]


def test_optional_credited_column_round_trips():
    pa = make_pa("AWY@HOM-0001", 0, 1, "top", 0, 0, "Flyout", "O",
                 credited="CF")
    data = SeasonDataset.from_records([pa])
    parsed, _ = parse_season(serialize_season(data))
    assert parsed.record(0).credited_fielder_position == "CF"
    # the column may be omitted entirely
    parsed2, _ = parse_season(serialize_season(data, include_credited=False))
    assert parsed2.record(0).credited_fielder_position is None


def test_csv_column_order_is_stable():
    assert CSV_COLUMNS[0] == "game_id"
    assert CSV_COLUMNS[-2:] == ("bip_x", "bip_y")
    data, _, _ = build_re_fixture()
    header = serialize_season(data).splitlines()[0]
    assert header == ",".join(CSV_COLUMNS + ("credited_fielder_position",))


def test_aggregate_team_totals_hand_case():
    g = "AWY@HOM-0001"
    rows = [
        make_pa(g, 0, 1, "top", 0, 0, "Home Run", "H"),
        make_pa(g, 1, 1, "top", 0, 0, "Walk", "1B"),
        make_pa(g, 2, 1, "top", 0, 1, "Strikeout", "O", {1: "1B"}),
        make_pa(g, 3, 1, "bottom", 0, 0, "Single", "1B"),
        make_pa(g, 4, 1, "bottom", 0, 1, "Sac Bunt", "O", {1: "2B"}),
    ]
    totals = aggregate_team_totals(SeasonDataset.from_records(rows))
    assert totals["AWY"] == {"G": 1, "PA": 3, "AB": 2, "R": 1, "H": 1,
                             "HR": 1, "BB": 1, "K": 1}
    assert totals["HOM"] == {"G": 1, "PA": 2, "AB": 1, "R": 0, "H": 1,
                             "HR": 0, "BB": 0, "K": 0}


def test_aggregate_runs_match_season_totals(season):
    totals = aggregate_team_totals(season)
    assert sum(t["R"] for t in totals.values()) == season.runs_scored.sum()
    assert sum(t["PA"] for t in totals.values()) == len(season)


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
        "D1", "#", "# AWY@HOM-0001"]),
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
    cols, malformed = _code_rows(_HEADER, rows,
                                 {"game": {}, "player": {}, "park": {}})
    flagged = malformed | _record_mask(cols)
    try:  # the other rows are valid as they stand
        malformed, problems = _row_problems(_HEADER, rows[row])
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
