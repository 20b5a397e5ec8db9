"""Tabulation, replacement level, WAR, and Pythagorean bridge tests."""

import json

import numpy as np
import pytest

from openwar.valuation import (
    COMPONENTS,
    PlayerValuation,
    build_replacement_pool,
    pythag_wpct,
    runs_per_win,
    shadow_and_war,
    tabulate_raa,
    valuation_csv,
    valuation_json,
    value_players,
)

from fixtures import credit_ledger


def _line_ledger(lines):
    """One plate appearance per credit line."""
    return credit_ledger([[line] for line in lines])


def test_tabulate_sums_components():
    lines = [("a", "hit", 0.5), ("a", "hit", -0.2), ("a", "br", 0.1),
             ("b", "pitch", -0.4), ("b", "pitch", -0.1), ("b", "field", 0.2)]
    vals = tabulate_raa(_line_ledger(lines), {"a": "Able", "b": "Baker"})
    assert vals["a"].raa["hit"] == pytest.approx(0.3)
    assert vals["a"].counts == {"hit": 2, "br": 1, "field": 0, "pitch": 0}
    assert vals["a"].raa_total == pytest.approx(0.4)
    assert vals["b"].raa_total == pytest.approx(-0.3)
    assert vals["a"].role == "position"
    assert vals["b"].role == "pitcher"
    assert list(vals) == ["a", "b"]  # sorted by id


def test_tabulate_rejects_unrostered_player():
    with pytest.raises(KeyError, match="ghost"):
        tabulate_raa(_line_ledger([("ghost", "hit", 1.0)]), {"a": "Able"})


def test_role_uses_batters_faced_vs_plate_appearances():
    v = PlayerValuation(player_id="x", name="X")
    v.counts["hit"] = 10
    v.counts["pitch"] = 11
    assert v.role == "pitcher"
    v.counts["pitch"] = 10
    assert v.role == "position"


def _uniform_league(n_pos=8, n_pitch=4, pa_each=30, rate_hit=-0.02,
                    rate_pitch=0.01):
    """Every player produces identical per-event value in each component."""
    lines = []
    for k in range(n_pos):
        lines += [(f"pos{k}", "hit", rate_hit)] * pa_each
        lines += [(f"pos{k}", "br", 0.005)] * pa_each
    for k in range(n_pitch):
        lines += [(f"pit{k}", "pitch", rate_pitch)] * (3 * pa_each)
    roster = {pid: pid for pid, _, _ in lines}
    return _line_ledger(lines), roster


def test_uniform_rates_give_zero_war():
    ledger, roster = _uniform_league()
    # cutoffs of zero put the whole league in the replacement tier
    vals, pool = value_players(ledger, roster, cutoff_pos=0, cutoff_pitch=0)
    assert pool.rates["hit"] == pytest.approx(-0.02)
    for v in vals.values():
        assert abs(v.war) < 1e-9


def test_replacement_pool_top_n_and_tie_break():
    vals = {}
    for pid, pa in (("a", 50), ("b", 40), ("c", 40), ("d", 10)):
        v = PlayerValuation(player_id=pid, name=pid)
        v.counts["hit"] = pa
        vals[pid] = v
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # no pitchers in this toy league
        pool = build_replacement_pool(vals, cutoff_pos=2, cutoff_pitch=0)
    # "a" is in; the 40-PA tie breaks by id, so "b" is major league
    assert pool.replacement_ids == {"c", "d"}
    assert pool.tier("a") == "major_league"
    assert pool.tier("c") == "replacement"


def test_empty_replacement_pool_warns():
    vals = {"a": PlayerValuation(player_id="a", name="a")}
    vals["a"].counts["hit"] = 5
    with pytest.warns(UserWarning, match="replacement pool is empty"):
        pool = build_replacement_pool(vals, cutoff_pos=10, cutoff_pitch=0)
    assert pool.rates == {c: 0.0 for c in COMPONENTS}


@pytest.mark.parametrize("cutoffs", [(-1, 0), (0, -1)])
def test_negative_cutoff_is_rejected(cutoffs):
    vals = {"a": PlayerValuation(player_id="a", name="a")}
    with pytest.raises(ValueError, match="cutoffs must be >= 0"):
        build_replacement_pool(vals, *cutoffs)


def test_shadow_scales_with_playing_time():
    ledger, roster = _uniform_league()
    vals, pool = value_players(ledger, roster, cutoff_pos=0, cutoff_pitch=0)
    v = vals["pos0"]
    expected = pool.rates["hit"] * 30 + pool.rates["br"] * 30
    assert v.raa_repl == pytest.approx(expected)
    assert v.war == pytest.approx((v.raa_total - expected) / 10.0)


def test_runs_per_win_values():
    assert runs_per_win(2.0, 810.0) == 10.0  # exact
    assert runs_per_win(1.83, 714.0) == pytest.approx(2 * 714 / (81 * 1.83),
                                                      abs=1e-12)
    with pytest.raises(ValueError):
        runs_per_win(0.0, 700.0)
    with pytest.raises(ValueError):
        runs_per_win(2.0, -1.0)


def test_pythag_even_teams_are_500():
    wpct, _ = pythag_wpct(700.0, 700.0, 1.83)
    assert wpct == pytest.approx(0.5)


def test_pythag_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    for _ in range(10):
        rs = rng.uniform(550, 900)
        ra = rng.uniform(550, 900)
        p = rng.uniform(1.8, 2.0)
        _, (drs, dra) = pythag_wpct(rs, ra, p)
        h = 1e-4
        num_rs = (pythag_wpct(rs + h, ra, p)[0]
                  - pythag_wpct(rs - h, ra, p)[0]) / (2 * h)
        num_ra = (pythag_wpct(rs, ra + h, p)[0]
                  - pythag_wpct(rs, ra - h, p)[0]) / (2 * h)
        assert drs == pytest.approx(num_rs, rel=1e-6)
        assert dra == pytest.approx(num_ra, rel=1e-6)
        assert drs > 0 and dra < 0


def test_pythag_rejects_nonpositive_runs():
    with pytest.raises(ValueError):
        pythag_wpct(0.0, 700.0, 1.83)


def test_valuation_outputs_round_trip():
    ledger, roster = _uniform_league(n_pos=2, n_pitch=1)
    vals, _ = value_players(ledger, roster, cutoff_pos=1, cutoff_pitch=0)
    csv_text = valuation_csv(vals)
    lines = csv_text.splitlines()
    assert lines[0].startswith("player_id,name,PA,BF,")
    assert len(lines) == 1 + len(vals)
    # float fields round-trip through repr
    war_col = lines[1].split(",")[-1]
    assert float(war_col) == vals[sorted(vals)[0]].war
    payload = json.loads(valuation_json(vals))
    assert {p["player_id"] for p in payload} == set(vals)
    for p in payload:
        assert p["war"] == vals[p["player_id"]].war


def test_league_war_on_pipeline(pipeline):
    """Total RAA is conserved at zero; WAR totals reflect the shadow only."""
    vals = pipeline.valuations
    total_raa = sum(v.raa_total for v in vals.values())
    scale = float(np.sum(np.abs(pipeline.ledger.deltas)))
    assert abs(total_raa) < 1e-8 * scale
    total_shadow = sum(v.raa_repl for v in vals.values())
    total_war = sum(v.war for v in vals.values())
    assert total_war == pytest.approx(-total_shadow / 10.0)


def test_tabulate_matches_per_pa_loop(pipeline):
    """The bincount sums equal, bit for bit, a loop that walks the credits
    plate appearance by plate appearance."""
    table = pipeline.ledger.credits
    raa, counts = {}, {}
    for r in np.argsort(table.pa, kind="stable"):
        key = (table.player_ids[table.player[r]],
               COMPONENTS[table.component[r]])
        raa[key] = raa.get(key, 0.0) + float(table.value[r])
        counts[key] = counts.get(key, 0) + 1
    for (pid, comp), total in raa.items():
        assert pipeline.valuations[pid].raa[comp] == total
        assert pipeline.valuations[pid].counts[comp] == counts[(pid, comp)]
    assert sum(sum(v.counts.values()) for v in pipeline.valuations.values()) \
        == len(table.value)
