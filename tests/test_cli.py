"""Command-line interface tests."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from openwar.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, main
from openwar.events import parse_season


def _simulate(tmp_path, games=3, seed=5, name="season.csv"):
    out = tmp_path / name
    assert main(["simulate", "--games", str(games), "--seed", str(seed),
                 "--out", str(out)]) == EXIT_OK
    return out


def test_pythag_prints_runs_per_win(capsys):
    assert main(["pythag", "--pythag-p", "2", "--pythag-r", "810"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "10.0"


def test_pythag_bad_input_is_validation_error(capsys):
    assert main(["pythag", "--pythag-p", "0", "--pythag-r", "810"]) \
        == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "validation"


def test_unknown_flag_is_config_error(capsys):
    assert main(["pythag", "--no-such-flag", "1"]) == EXIT_CONFIG


def test_simulate_writes_config_comment(tmp_path):
    path = _simulate(tmp_path)
    first = path.read_text().splitlines()[0]
    assert first.startswith("# config: ")
    cfg = json.loads(first[len("# config: "):])
    assert cfg["games"] == 3 and cfg["seed"] == 5
    data, report = parse_season(path.read_text(), "strict")
    assert report.ok and len(data) > 0


def test_simulate_determinism_via_cli(tmp_path):
    a = _simulate(tmp_path, name="a.csv").read_bytes()
    b = _simulate(tmp_path, name="b.csv").read_bytes()
    # identical apart from the differing --out path in the config comment
    assert a.split(b"\n", 1)[1] == b.split(b"\n", 1)[1]


def test_seed_env_fallback(tmp_path, monkeypatch):
    out1 = tmp_path / "env1.csv"
    out2 = tmp_path / "env2.csv"
    monkeypatch.setenv("OPENWAR_SEED", "123")
    assert main(["simulate", "--games", "2", "--out", str(out1)]) == EXIT_OK
    monkeypatch.delenv("OPENWAR_SEED")
    assert main(["simulate", "--games", "2", "--out", str(out2)]) == EXIT_OK
    body = lambda p: p.read_bytes().split(b"\n", 1)[1]
    assert body(out1) != body(out2)  # env seed 123 vs default seed 0


def test_validate_ok(tmp_path, capsys):
    path = _simulate(tmp_path)
    assert main(["validate", "--input", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ok" in out


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


def test_war_honors_pythag_rpw(tmp_path, war_season):
    out1 = tmp_path / "w1"
    out2 = tmp_path / "w2"
    base = ["war", "--input", str(war_season),
            "--cutoff-pos", "40", "--cutoff-pitch", "18"]
    assert main(base + ["--out", str(out1)]) == EXIT_OK
    # p=2, r=405 halves runs-per-win, doubling every WAR figure
    assert main(base + ["--out", str(out2), "--pythag-p", "2",
                        "--pythag-r", "405"]) == EXIT_OK
    p1 = json.loads((out1 / "valuation.json").read_text())["players"]
    p2 = json.loads((out2 / "valuation.json").read_text())["players"]
    for a, b in zip(p1, p2):
        assert b["war"] == pytest.approx(2 * a["war"], abs=1e-9)


def test_boot_outputs_and_compare(tmp_path, war_season):
    out = tmp_path / "boot"
    # pick two real player ids out of the roster
    data, _ = parse_season(war_season.read_text())
    a = data.record(0).batter_id
    b = data.record(0).pitcher_id
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


@pytest.mark.parametrize("command", ["war", "boot"])
@pytest.mark.parametrize("flag", ["--pythag-p", "--pythag-r",
                                  "--bandwidth-x", "--bandwidth-y"])
def test_half_given_flag_pair_is_config_error(tmp_path, war_season, capsys,
                                              command, flag):
    assert main([command, "--input", str(war_season), "--out",
                 str(tmp_path / "out"), flag, "2"]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "config" and "given together" in err["error"]
    assert not (tmp_path / "out").exists()


def test_failing_solve_is_numeric_error(tmp_path, war_season, monkeypatch,
                                        capsys):
    def failing_lstsq(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "lstsq", failing_lstsq)
    assert main(["war", "--input", str(war_season), "--out",
                 str(tmp_path / "war")]) == EXIT_NUMERIC
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "SVD did not converge", "kind": "numeric"}


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
