"""Command-line interface tests."""

import csv
import errno
import json
import os
import re
import shutil
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from openwar import cli, events, forking, uncertainty
from openwar.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, main
from openwar.events import parse_season, serialize_season
from openwar.pipeline import SeasonLedger


def _simulate(tmp_path, games=3, seed=5, name="season.csv"):
    out = tmp_path / name
    assert main(["simulate", "--games", str(games), "--seed", str(seed),
                 "--out", str(out)]) == EXIT_OK
    return out


def test_pythag_prints_runs_per_win(capsys):
    assert main(["pythag", "--pythag-p", "2", "--pythag-r", "810"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "10.0"


@pytest.mark.parametrize("p,r", [("0", "810"), ("0", "800"), ("nan", "800"),
                                 ("inf", "800"), ("2", "nan"), ("2", "inf")])
def test_pythag_bad_input_is_validation_error(capsys, p, r):
    """Bad flags of `pythag` are a configuration error, as on `war`."""
    assert main(["pythag", "--pythag-p", p, "--pythag-r", r]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "config"


def test_unknown_flag_is_config_error(capsys):
    assert main(["pythag", "--no-such-flag", "1"]) == EXIT_CONFIG
    capsys.readouterr()
    assert main(["pythag", "--pythag-p", "2", "--pythag-r", "810",
                 "--no-such-flag", "1"]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "config" and "--no-such-flag" in err["error"]


def test_simulate_writes_config_comment(tmp_path):
    path = _simulate(tmp_path)
    first = path.read_text().splitlines()[0]
    assert first.startswith("# config: ")
    cfg = json.loads(first[len("# config: "):])
    assert cfg["games"] == 3 and cfg["seed"] == 5
    data, report = parse_season(path.read_text(), "strict")
    assert report.dropped == 0 and report.warnings == [] and len(data) > 0


def test_simulate_determinism_via_cli(tmp_path):
    a = _simulate(tmp_path, name="a.csv").read_bytes()
    b = _simulate(tmp_path, name="b.csv").read_bytes()
    # identical apart from the differing --out path in the config comment
    assert a.split(b"\n", 1)[1] == b.split(b"\n", 1)[1]


def test_seed_flag_and_default(tmp_path):
    out1 = tmp_path / "seed1.csv"
    out2 = tmp_path / "seed2.csv"
    assert main(["simulate", "--games", "2", "--seed", "123",
                 "--out", str(out1)]) == EXIT_OK
    assert main(["simulate", "--games", "2", "--out", str(out2)]) == EXIT_OK
    body = lambda p: p.read_bytes().split(b"\n", 1)[1]
    assert body(out1) != body(out2)  # seed 123 vs default seed 0
    # the config line records the seed that was used, the default too
    seed = lambda p: json.loads(
        p.read_text().splitlines()[0][len("# config: "):])["seed"]
    assert (seed(out1), seed(out2)) == (123, 0)


def test_validate_ok(tmp_path, capsys):
    path = _simulate(tmp_path)
    assert main(["validate", "--input", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ok" in out


@pytest.mark.parametrize("credited", [True, False])
def test_header_only_season_is_empty_and_valid(tmp_path, capsys, credited):
    """A season of its header alone, with or without the optional
    credited_fielder_position column, is an empty dataset of the usual
    column shapes, and `validate` passes it."""
    columns = events.CSV_COLUMNS + events.OPTIONAL_COLUMNS * credited
    text = ",".join(columns) + "\n"
    data, report = parse_season(text)
    assert len(data) == 0
    assert (data.fielder.shape, data.runner.shape) == ((0, 9), (0, 3))
    assert (report.warnings, report.dropped) == ([], 0)
    path = tmp_path / "header.csv"
    path.write_text(text)
    assert main(["validate", "--input", str(path)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "records: 0" and out[-1] == "ok"


def test_validate_rejects_corrupt_file(tmp_path, capsys):
    path = _simulate(tmp_path)
    text = path.read_text().replace("Groundout", "Banana", 1)
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    assert main(["validate", "--input", str(bad)]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "validation"


def test_validate_lenient_counts_drops(tmp_path, capsys):
    path = _simulate(tmp_path)
    lines = path.read_text().splitlines()
    # corrupt one data row's runs_scored
    for i, line in enumerate(lines):
        cells = line.split(",")
        if len(cells) > 18 and cells[17] == "0" and not line.startswith("#"):
            cells[17] = "7"
            lines[i] = ",".join(cells)
            break
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["validate", "--input", str(bad), "--lenient"]) \
        == EXIT_VALIDATION
    out = capsys.readouterr().out
    assert "dropped: 1" in out


def _write_as_is(path, text):
    """Write `text` with its line ends as they are."""
    path.write_bytes(text.encode("utf-8"))
    return path


def test_validate_rejects_a_lone_carriage_return(tmp_path, capsys):
    """The CLI hands the parser the line ends as written: a '\\r' inside a
    field of record 1 is the library's malformed-CSV error, not a row cut
    in two."""
    lines = _simulate(tmp_path).read_text().split("\n")
    lines[2] = lines[2][:2] + "\r" + lines[2][2:]  # [0] config, [1] header
    text = "\n".join(lines)
    with pytest.raises(events.RecordError) as raised:
        parse_season(text)
    assert str(raised.value).startswith("line 3: malformed CSV")
    bad = _write_as_is(tmp_path / "bad.csv", text)
    assert main(["validate", "--strict", "--input", str(bad)]) \
        == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err) == {
        "error": str(raised.value), "kind": "validation"}


def test_load_keeps_line_ends_inside_quotes(tmp_path):
    """A quoted batter id holding '\\r\\n' reads from the file as the
    library reads it from the text."""
    lines = _simulate(tmp_path).read_text().split("\n")
    column = lines[1].split(",").index("batter_id")
    cells = lines[2].split(",")
    cells[column] = '"T01\r\nC"'
    lines[2] = ",".join(cells)
    text = "\n".join(lines)
    path = _write_as_is(tmp_path / "quoted.csv", text)
    data, _ = cli._load(SimpleNamespace(input=str(path), strict=True))
    assert "T01\r\nC" in data.player_ids
    assert data.player_ids == parse_season(text)[0].player_ids


def test_validate_crlf_season_ok(tmp_path, capsys, season):
    """The session season with '\\r\\n' line ends validates."""
    text = serialize_season(season).replace("\n", "\r\n")
    path = _write_as_is(tmp_path / "crlf.csv", text)
    assert main(["validate", "--strict", "--input", str(path)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"records: {len(season)}" and out[-1] == "ok"


@pytest.mark.parametrize("lenient", [False, True])
@pytest.mark.parametrize("fields", [20, 36])
def test_validate_rejects_row_with_wrong_field_count(tmp_path, capsys, fields,
                                                      lenient):
    """A row cut short or carrying an extra field is a record error: strict
    exits with the JSON error, lenient drops and counts the row."""
    lines = _simulate(tmp_path).read_text().splitlines()
    cells = lines[5].split(",")  # lines[0] is the config comment, [1] the header
    lines[5] = ",".join((cells + [""])[:fields])
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    args = ["validate", "--input", str(bad)] + (["--lenient"] if lenient else [])
    assert main(args) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    if lenient:
        assert "dropped: 1" in out
        assert f"{fields} fields, header has 35" in out
    else:
        err = json.loads(err)
        assert err["kind"] == "validation"
        assert f"{fields} fields, header has 35" in err["error"]


def test_validate_splits_comment_lines_as_the_str_parse(tmp_path, capsys):
    """A lone '\\r' in a comment line before the header ends no line, in a
    file as in a str: `validate` reads the records `parse_season` reads
    from the text."""
    body = _simulate(tmp_path).read_text().split("\n", 1)[1]
    text = "# note\rmore\n" + body
    season = tmp_path / "cr.csv"
    season.write_bytes(text.encode("utf-8"))
    assert main(["validate", "--input", str(season)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert f"records: {len(parse_season(text)[0])}" in out


@pytest.mark.parametrize("lenient", [False, True])
def test_validate_rejects_commented_out_row(tmp_path, capsys, lenient):
    """Only lines before the header are comments: a data row that starts
    with '#' is a record error, not a row skipped without a trace."""
    lines = _simulate(tmp_path).read_text().splitlines()
    lines[5] = "#" + lines[5]  # lines[0] is the config comment, [1] the header
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    args = ["validate", "--input", str(bad)] + (["--lenient"] if lenient else [])
    assert main(args) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    if lenient:
        assert "dropped: 1" in out
        assert "game_id must not start with '#'" in out
    else:
        err = json.loads(err)
        assert err["kind"] == "validation"
        assert "game_id must not start with '#'" in err["error"]


@pytest.mark.parametrize("lenient", [False, True])
def test_validate_rejects_field_over_the_csv_limit(tmp_path, capsys, lenient):
    """csv.reader cannot read on past a field over csv.field_size_limit(),
    so both modes exit with the JSON error, which names the line."""
    lines = _simulate(tmp_path).read_text().splitlines()
    cells = lines[5].split(",")  # lines[0] is the config comment, [1] the header
    cells[0] = "G" * 140_000
    lines[5] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    args = ["validate", "--input", str(bad)] + (["--lenient"] if lenient else [])
    assert main(args) == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err) == {
        "error": "line 6: field larger than field limit (131072)",
        "kind": "validation"}


@pytest.mark.parametrize("lenient", [False, True])
def test_validate_rejects_integer_beyond_int64(tmp_path, capsys, lenient):
    """An integer field beyond int64 is a validation failure naming its
    record, not a numeric one."""
    lines = _simulate(tmp_path).read_text().splitlines()
    cells = lines[5].split(",")
    cells[1] = "99999999999999999999"  # pa_index
    lines[5] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    message = (f"game {cells[0]} pa {cells[1]}: pa_index must be a 64-bit "
               f"integer, got {cells[1]}")
    args = ["validate", "--input", str(bad)] + (["--lenient"] if lenient else [])
    assert main(args) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    if lenient:
        assert "dropped: 1" in out.splitlines()
        assert f"warning: dropped malformed row: {message}" in out.splitlines()
    else:
        assert json.loads(err) == {"error": message, "kind": "validation"}


def test_missing_input_is_config_error(tmp_path, capsys):
    assert main(["validate", "--input", str(tmp_path / "nope.csv")]) \
        == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "config"


@pytest.fixture(scope="module")
def war_season(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli-war")
    return _simulate(tmp, games=50, seed=2, name="season50.csv")


def test_war_outputs(tmp_path, war_season, capsys):
    out = tmp_path / "war"
    code = main(["war", "--input", str(war_season), "--out", str(out),
                 "--cutoff-pos", "40", "--cutoff-pitch", "18"])
    assert code == EXIT_OK
    for name in ("valuation.csv", "valuation.json", "run_expectancy.csv",
                 "fielding_surface.csv", "fielding_models.csv"):
        assert (out / name).exists()
    assert (out / "valuation.csv").read_text().startswith("# config: ")
    payload = json.loads((out / "valuation.json").read_text())
    assert payload["config"]["cutoff_pos"] == 40
    assert len(payload["players"]) > 0
    assert "np.float64" not in (out / "valuation.csv").read_text()


def test_war_honors_pythag_rpw(tmp_path, war_season, capsys):
    """`pythag` prints the runs per win that --runs-per-win takes."""
    out1 = tmp_path / "w1"
    out2 = tmp_path / "w2"
    base = ["war", "--input", str(war_season),
            "--cutoff-pos", "40", "--cutoff-pitch", "18"]
    assert main(base + ["--out", str(out1)]) == EXIT_OK
    # p=2, r=405 halves runs-per-win, doubling every WAR figure
    capsys.readouterr()
    assert main(["pythag", "--pythag-p", "2", "--pythag-r", "405"]) == EXIT_OK
    rpw = capsys.readouterr().out.strip()
    assert main(base + ["--out", str(out2), "--runs-per-win", rpw]) == EXIT_OK
    assert json.loads((out2 / "valuation.json").read_text())["config"][
        "runs_per_win"] == float(rpw)
    p1 = json.loads((out1 / "valuation.json").read_text())["players"]
    p2 = json.loads((out2 / "valuation.json").read_text())["players"]
    for a, b in zip(p1, p2):
        assert b["war"] == pytest.approx(2 * a["war"], abs=1e-9)


def test_boot_outputs_and_compare(tmp_path, war_season):
    out = tmp_path / "boot"
    # pick two real player ids out of the season
    data, _ = parse_season(war_season.read_text())
    a = data.record(0)["batter_id"]
    b = data.record(0)["pitcher_id"]
    code = main(["boot", "--input", str(war_season), "--out", str(out),
                 "--replicates", "25", "--seed", "4",
                 "--cutoff-pos", "40", "--cutoff-pitch", "18",
                 "--compare", a, b])
    assert code == EXIT_OK
    q = (out / "war_quantiles.csv").read_text()
    assert q.startswith("# config: ")
    assert "q2.5" in q.splitlines()[1]
    comps = json.loads((out / "comparisons.json").read_text())
    assert comps[0]["player_a"] == a
    assert 0.0 <= comps[0]["pr_a_exceeds_b"] <= 1.0


def test_boot_is_seed_deterministic(tmp_path, war_season):
    outs = []
    for name in ("b1", "b2"):
        out = tmp_path / name
        assert main(["boot", "--input", str(war_season), "--out", str(out),
                     "--replicates", "10", "--seed", "6",
                     "--cutoff-pos", "40", "--cutoff-pitch", "18"]) == EXIT_OK
        # strip the config comment, which embeds the differing out path
        outs.append((out / "war_quantiles.csv")
                    .read_bytes().split(b"\n", 1)[1])
    assert outs[0] == outs[1]


def test_boot_releases_the_ledger_before_resampling(tmp_path, war_season,
                                                    monkeypatch):
    """The bootstrap workers are forked from `boot` and count the pages
    they inherit, so `boot` resamples holding the credit table and the
    valuation only: the ledger, with the season and the chains'
    internals, is gone when `bootstrap_war` is called."""
    pipeline, bootstrap, ledgers = cli.run_pipeline, cli.bootstrap_war, []

    def run_pipeline(*args, **kwargs):
        result = pipeline(*args, **kwargs)
        ledgers.append(weakref.ref(result.ledger))
        return result

    def bootstrap_war(*args, **kwargs):
        assert [ref() for ref in ledgers] == [None]
        return bootstrap(*args, **kwargs)

    monkeypatch.setattr(cli, "run_pipeline", run_pipeline)
    monkeypatch.setattr(cli, "bootstrap_war", bootstrap_war)
    assert main(["boot", "--input", str(war_season),
                 "--out", str(tmp_path / "boot"), "--replicates", "5",
                 "--cutoff-pos", "40", "--cutoff-pitch", "18"]) == EXIT_OK
    assert (tmp_path / "boot" / "war_quantiles.csv").exists()


def _csv_rows(path):
    """The rows of an output CSV, its config comment skipped."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def test_outputs_quote_a_player_id_with_a_comma(tmp_path):
    """A player id holding a comma is legal input; the output CSVs quote
    it, so every column of its row stays in place."""
    season = _simulate(tmp_path, games=20)
    comment, body = season.read_text(encoding="utf-8").split("\n", 1)
    with open(season, "w", newline="", encoding="utf-8") as fh:
        fh.write(comment + "\n")
        csv.writer(fh, lineterminator="\n").writerows(
            ["Doe, J" if f == "T01_C" else f for f in row]
            for row in csv.reader(body.splitlines()))
    common = ["--input", str(season), "--cutoff-pos", "40",
              "--cutoff-pitch", "18"]
    assert main(["war", *common, "--out", str(tmp_path / "war")]) == EXIT_OK
    assert main(["boot", *common, "--out", str(tmp_path / "boot"),
                 "--replicates", "20", "--compare", "Doe, J",
                 "T02_C"]) == EXIT_OK
    text = ("player_id", "name", "tier")
    for path in (tmp_path / "war" / "valuation.csv",
                 tmp_path / "boot" / "war_quantiles.csv"):
        rows = _csv_rows(path)
        assert "Doe, J" in [row["player_id"] for row in rows]
        for row in rows:
            assert None not in row and None not in row.values()
            for col, value in row.items():
                if col not in text:
                    float(value)
    doe = next(row for row in _csv_rows(tmp_path / "war" / "valuation.csv")
               if row["player_id"] == "Doe, J")
    assert doe["name"] == "Doe, J" and int(doe["PA"]) > 0
    comparison = json.loads((tmp_path / "boot" / "comparisons.json")
                            .read_text())
    assert comparison[0]["player_a"] == "Doe, J"


def test_config_echo_has_no_threads_key(tmp_path, war_season):
    """Flags that `war` never read are gone: not echoed, and rejected."""
    out = tmp_path / "war"
    assert main(["war", "--input", str(war_season), "--out", str(out),
                 "--cutoff-pos", "40", "--cutoff-pitch", "18"]) == EXIT_OK
    config = json.loads((out / "valuation.json").read_text())["config"]
    for flag in ("threads", "seed"):
        assert flag not in config
        assert main(["war", "--input", str(war_season), "--out", str(out),
                     f"--{flag}", "2"]) == EXIT_CONFIG


def test_war_writes_nothing_when_a_late_output_fails(tmp_path, war_season,
                                                    capsys, monkeypatch):
    """`war` computes every output before it writes the first, so a
    failure in the last ones (here the contour grid) leaves no output
    directory behind."""
    def failing(self):
        raise ValueError("contour grid failed")

    monkeypatch.setattr(SeasonLedger, "surface_grid_csv", failing)
    out = tmp_path / "war"
    assert main(["war", "--input", str(war_season), "--out", str(out),
                 "--cutoff-pos", "40", "--cutoff-pitch", "18"]) \
        == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err) == {
        "error": "contour grid failed", "kind": "validation"}
    assert not out.exists()


@pytest.mark.parametrize("command", ["war", "boot"])
def test_bandwidth_too_small_for_the_grid_is_config_error(
        tmp_path, war_season, capsys, monkeypatch, command):
    """A bandwidth whose smoothing grid, even at its capped step, would be
    coarser than MAX_STEP_RATIO bandwidths exits 2, names each axis, the
    bandwidth given and the smallest the grid takes, and writes
    nothing."""
    monkeypatch.setattr(cli, "bootstrap_war", _must_not_run)
    out = tmp_path / "out"
    assert main([command, "--input", str(war_season), "--out", str(out),
                 "--bandwidth-x", "0.5", "--bandwidth-y", "0.5"]) \
        == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "config"
    assert re.fullmatch(
        r"x bandwidth 0\.5 ft is too small for the smoother's grid over "
        r"[\d.]+ ft, which takes [\d.]+ ft or more; y bandwidth 0\.5 ft .*",
        err["error"])
    assert not out.exists()


@pytest.mark.parametrize("command", ["war", "boot"])
@pytest.mark.parametrize("flag", ["--bandwidth-x", "--bandwidth-y"])
def test_half_given_flag_pair_is_config_error(tmp_path, war_season, capsys,
                                              command, flag):
    assert main([command, "--input", str(war_season), "--out",
                 str(tmp_path / "out"), flag, "2"]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "config" and "given together" in err["error"]
    assert not (tmp_path / "out").exists()


def test_war_takes_no_pythag_flags(tmp_path, war_season, capsys):
    """Runs per win is set one way, by --runs-per-win: the Pythagorean
    pair is a flag of `pythag` only."""
    out = tmp_path / "out"
    assert main(["war", "--input", str(war_season), "--out", str(out),
                 "--pythag-p", "2", "--pythag-r", "810"]) == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def _must_not_run(*args, **kwargs):
    raise AssertionError("a rejected configuration must stop before this")


_BAD_RPW = (["--runs-per-win", "0"], ["--runs-per-win", "-1"],
            ["--runs-per-win", "nan"])
_BAD_FIT = (["--bandwidth-x", "0", "--bandwidth-y", "30"],
            ["--bandwidth-x", "30", "--bandwidth-y", "-5"],
            ["--bandwidth-x", "nan", "--bandwidth-y", "30"],
            ["--bandwidth-x", "30", "--bandwidth-y", "inf"],
            ["--cutoff-pos", "-1"], ["--cutoff-pitch", "-1"])


@pytest.mark.parametrize("command,flags", [
    pytest.param(command, flags, id=f"{command} {' '.join(flags)}")
    for command, flags in
    [(c, f) for c in ("war", "boot") for f in _BAD_RPW + _BAD_FIT]
    # the Pythagorean pair is a flag of `pythag` only
    + [(c, ["--pythag-p", "0", "--pythag-r", "800"]) for c in ("war", "boot")]
    + [("boot", ["--replicates", "0"]), ("boot", ["--replicates", "-2"])]
    + [(c, ["--seed", "-1"]) for c in ("boot", "simulate")]
    + [("simulate", ["--games", "0"]), ("simulate", ["--teams", "1"])]])
def test_bad_config_value_is_config_error(tmp_path, war_season, capsys,
                                          monkeypatch, command, flags):
    """Flags that make no configuration exit 2 with a JSON error before
    the season is read or generated, and write nothing."""
    monkeypatch.setattr(cli, "parse_season", _must_not_run)
    monkeypatch.setattr(cli, "synthetic_season_batches", _must_not_run)
    source = [] if command == "simulate" else ["--input", str(war_season)]
    assert main([command, *source, "--out", str(tmp_path / "out"),
                 *flags]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "config"
    assert not (tmp_path / "out").exists()


def test_boot_compare_unknown_player_fails_before_any_work(
        tmp_path, war_season, capsys, monkeypatch):
    data, _ = parse_season(war_season.read_text())
    known = data.record(0)["batter_id"]
    monkeypatch.setattr(cli, "run_pipeline", _must_not_run)
    out = tmp_path / "boot"
    assert main(["boot", "--input", str(war_season), "--out", str(out),
                 "--replicates", "5", "--compare", known, "nobody"]) \
        == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "config" and "nobody" in err["error"]
    assert known not in err["error"]
    assert not out.exists()


def test_boot_compare_uncredited_player_fails_before_resampling(
        tmp_path, capsys, monkeypatch):
    """A player who plays but has no credit, here a right fielder on one
    strikeout only, has no replicates to compare: `boot` says so from the
    parsed season, before the pipeline runs."""
    path = _simulate(tmp_path, games=20)
    config, header, *lines = path.read_text().splitlines()
    rows = list(csv.DictReader(lines, fieldnames=header.split(",")))
    strikeout = next(r for r in rows if r["event_type"] == "Strikeout")
    strikeout["f9"] = "SUB1"
    with path.open("w", newline="") as fh:
        fh.write(f"{config}\n{header}\n")
        csv.DictWriter(fh, header.split(","), lineterminator="\n") \
            .writerows(rows)
    monkeypatch.setattr(cli, "run_pipeline", _must_not_run)
    monkeypatch.setattr(cli, "bootstrap_war", _must_not_run)
    out = tmp_path / "boot"
    assert main(["boot", "--input", str(path), "--out", str(out),
                 "--replicates", "5", "--compare", rows[0]["batter_id"],
                 "SUB1"]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "--compare players with no credit in the "
                            "season: SUB1", "kind": "config"}
    assert not out.exists()


def test_failing_solve_is_numeric_error(tmp_path, war_season, monkeypatch,
                                        capsys):
    def failing_solve(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    assert main(["war", "--input", str(war_season), "--out",
                 str(tmp_path / "war")]) == EXIT_NUMERIC
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "SVD did not converge", "kind": "numeric"}


def test_failed_boot_worker_is_reported_failure(tmp_path, war_season,
                                               monkeypatch, capsys):
    """A bootstrap worker that fails makes `boot` exit 3 with a JSON error
    giving the worker's exit status, after every worker has exited and
    before any output is written.  Ten replicates in blocks of two make
    block 1 the second task sent, the first of worker 2."""
    block = uncertainty._block

    def fails_on_odd_blocks(reps, *args):
        if reps.start // 2 % 2:
            raise FloatingPointError(f"block {reps.start // 2}")
        return block(reps, *args)

    monkeypatch.setattr(uncertainty, "BLOCK_ROWS", 2)
    monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
    monkeypatch.setattr(uncertainty, "_block", fails_on_odd_blocks)
    out = tmp_path / "boot"
    assert main(["boot", "--input", str(war_season), "--out", str(out),
                 "--replicates", "10", "--cutoff-pos", "40",
                 "--cutoff-pitch", "18"]) == EXIT_NUMERIC
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err == {"error": "bootstrap worker 2 of 2 exited with status 1",
                   "kind": "worker"}
    assert not out.exists()


def test_boot_checks_its_fold_before_resampling(tmp_path, war_season,
                                                monkeypatch, capsys):
    """A fold that loses one block's worth no longer sums to the point
    WAR: `boot` exits 3 with a JSON error naming a player credited in
    that block, before any replicate is drawn or output written."""
    of, zeroed = uncertainty._Dense.of, []

    def losing_a_block(credits, valuation):
        dense = of(credits, valuation)
        start, stop, worth, _, _ = dense.blocks[1]
        worth[:] = 0.0
        on = (credits.pa >= start) & (credits.pa < stop)
        zeroed.extend(credits.player_ids[k]
                      for k in np.unique(credits.player[on]).tolist())
        return dense

    monkeypatch.setattr(uncertainty._Dense, "of", losing_a_block)
    monkeypatch.setattr(uncertainty, "_block", _must_not_run)
    out = tmp_path / "boot"
    assert main(["boot", "--input", str(war_season), "--out", str(out),
                 "--replicates", "10", "--cutoff-pos", "40",
                 "--cutoff-pitch", "18"]) == EXIT_NUMERIC
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    named = re.fullmatch(r"the bootstrap's folded worth of (\S+) is "
                         r"\S+ wins off its WAR", err["error"])
    assert err["kind"] == "numeric" and named[1] in zeroed
    assert not out.exists()


def test_failed_parse_worker_is_reported_failure(war_season, monkeypatch,
                                                 capsys):
    """A parse worker that fails makes `validate` exit 3 with a JSON error
    giving the worker's exit status, after every worker has exited."""
    coded, parent = events._coded_chunk, os.getpid()

    def fails_in_a_worker(*args):
        if os.getpid() != parent:
            raise FloatingPointError("in a parse worker")
        return coded(*args)

    monkeypatch.setattr(events, "_CHUNK_CHARS", 1 << 14)
    monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
    monkeypatch.setattr(events, "_coded_chunk", fails_in_a_worker)
    assert main(["validate", "--input", str(war_season)]) == EXIT_NUMERIC
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err == {"error": "parse worker 1 of 2 exited with status 1",
                   "kind": "worker"}


@pytest.mark.parametrize("command", ["validate", "boot"])
def test_failed_fork_is_reported_as_a_worker_failure(war_season, command,
                                                     tmp_path, monkeypatch,
                                                     capsys):
    """A fork the system refuses (EAGAIN, at a process limit) makes
    `validate` and `boot` exit 3 with kind "worker", as a worker that
    fails does, and not 2 as a bad configuration."""
    def refused():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", refused)
    args = ["--input", str(war_season)]
    if command == "validate":  # many chunks; `boot` parses one
        monkeypatch.setattr(events, "_CHUNK_CHARS", 1 << 14)
    else:  # five blocks
        monkeypatch.setattr(uncertainty, "BLOCK_ROWS", 2)
        args += ["--out", str(tmp_path / "boot"), "--replicates", "10",
                 "--cutoff-pos", "40", "--cutoff-pitch", "18"]
    assert main([command, *args]) == EXIT_NUMERIC
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    name = "parse" if command == "validate" else "bootstrap"
    assert err == {"error": f"{name} worker 1 could not be forked: [Errno "
                            f"{errno.EAGAIN}] {os.strerror(errno.EAGAIN)}",
                   "kind": "worker"}


def test_war_artifacts_independent_of_hash_seed(tmp_path, war_season):
    out = tmp_path / "war"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"),
        env.get("PYTHONPATH")]))
    artifacts = []
    for hash_seed in ("1", "2"):
        env["PYTHONHASHSEED"] = hash_seed
        subprocess.run(
            [sys.executable, "-m", "openwar.cli", "war",
             "--input", str(war_season), "--out", str(out),
             "--cutoff-pos", "40", "--cutoff-pitch", "18"],
            env=env, check=True, capture_output=True, timeout=300)
        artifacts.append({p.name: p.read_bytes() for p in out.iterdir()})
        shutil.rmtree(out)
    assert len(artifacts[0]) == 5
    assert artifacts[0] == artifacts[1]
