"""Tabulation, replacement level, WAR, and Pythagorean bridge tests."""

import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from openwar.valuation import (
    COMPONENTS,
    CreditTable,
    build_replacement_pool,
    runs_per_win,
    tabulate_raa,
    valuation_csv,
    valuation_json,
    value_players,
)

from fixtures import credit_table, pythag_wpct


def _line_table(lines):
    """One plate appearance per credit line."""
    return credit_table([[line] for line in lines])


def test_tabulate_sums_components():
    lines = [("a", "hit", 0.5), ("a", "hit", -0.2), ("a", "br", 0.1),
             ("b", "pitch", -0.4), ("b", "pitch", -0.1), ("b", "field", 0.2)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a two-player league has no tier
        val = value_players(_line_table(lines), {"a": "Able", "b": "Baker"})
    assert val.player_ids == ["a", "b"]  # sorted by id
    assert val.names == ["Able", "Baker"]
    assert val.raa[0].tolist() == pytest.approx([0.3, 0.1, 0.0, 0.0])
    assert val.counts.tolist() == [[2, 1, 0, 0], [0, 0, 1, 2]]
    assert val.raa_total.tolist() == pytest.approx([0.4, -0.3])


def _coded(n_ids, codes):
    """A CreditTable with one hitting credit per code, of ids p00, p01..."""
    return CreditTable.build(
        n_pas=len(codes), pa=np.arange(len(codes)), player=codes,
        player_ids=[f"p{k:02d}" for k in range(n_ids)],
        component=np.zeros(len(codes)), value=np.zeros(len(codes)))


@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, n - 1), min_size=1, max_size=60))))
@example((10, [3, 3, 7, 5, 3]))  # unused ids first, between and last
@example((1, [0]))
@settings(max_examples=100, deadline=None)
def test_credit_table_recodes_players_like_unique_inverse(case):
    n_ids, codes = case
    table = _coded(n_ids, codes)
    used, inverse = np.unique(codes, return_inverse=True)
    assert table.player.dtype == np.int32
    assert np.array_equal(table.player, inverse)
    assert table.player_ids == [f"p{k:02d}" for k in used.tolist()]


def test_credit_table_rejects_pa_beyond_int32():
    with pytest.raises(ValueError, match="int32"):
        CreditTable.build(n_pas=2 ** 31, pa=[0], player=[0],
                          player_ids=["a"], component=[0], value=[0.0])


@pytest.mark.parametrize("starts", [[2, 1], [0, 0], [-1], [3]])
def test_credit_table_rejects_game_starts_out_of_order(starts):
    with pytest.raises(ValueError, match="game starts"):
        CreditTable.build(n_pas=3, pa=[0], player=[0], player_ids=["a"],
                          component=[0], value=[0.0], game_starts=starts)


def test_tabulate_rejects_unrostered_player():
    with pytest.raises(KeyError, match="ghost"):
        value_players(_line_table([("ghost", "hit", 1.0)]), {"a": "Able"})


def _counts(hit, pitch):
    """(m, 4) event counts with `hit` plate appearances and `pitch`
    batters faced per player, and no baserunning or fielding events."""
    return np.column_stack([hit, np.zeros(len(hit), dtype=int),
                            np.zeros(len(hit), dtype=int), pitch])


def _tiers(counts, cutoff_pos, cutoff_pitch):
    """The replacement mask of `counts`, its warnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_replacement_pool(np.zeros(counts.shape), counts,
                                      cutoff_pos, cutoff_pitch)[0]


def test_role_uses_batters_faced_vs_plate_appearances():
    # more batters faced than plate appearances makes a pitcher, kept by
    # a pitcher cutoff of 1; a tie makes a position player, dropped by 0
    counts = _counts(hit=[10, 10], pitch=[11, 10])
    assert _tiers(counts, cutoff_pos=0, cutoff_pitch=1).tolist() \
        == [False, True]
    assert _tiers(counts, cutoff_pos=1, cutoff_pitch=0).tolist() \
        == [True, False]


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
    return _line_table(lines), roster


def test_uniform_rates_give_zero_war():
    credits, roster = _uniform_league()
    # cutoffs of zero put the whole league in the replacement tier
    val = value_players(credits, roster, cutoff_pos=0, cutoff_pitch=0)
    assert val.replacement.all()
    assert val.rates[COMPONENTS.index("hit")] == pytest.approx(-0.02)
    assert np.max(np.abs(val.war)) < 1e-9


def test_replacement_pool_top_n_and_tie_break():
    # players a, b, c, d in id order
    counts = _counts(hit=[50, 40, 40, 10], pitch=[0, 0, 0, 0])
    # "a" is in; the 40-PA tie breaks by id, so "b" is major league
    assert _tiers(counts, cutoff_pos=2, cutoff_pitch=0).tolist() \
        == [False, False, True, True]
    # the sort is by playing time, not by id
    counts = _counts(hit=[10, 40, 50, 40], pitch=[0, 0, 0, 0])
    assert _tiers(counts, cutoff_pos=2, cutoff_pitch=0).tolist() \
        == [True, False, False, True]


def test_empty_replacement_pool_warns():
    counts = _counts(hit=[5], pitch=[0])
    with pytest.warns(UserWarning, match="replacement pool is empty"):
        replacement, rates = build_replacement_pool(
            np.ones(counts.shape), counts, cutoff_pos=10, cutoff_pitch=0)
    assert not replacement.any()
    assert rates.tolist() == [0.0] * len(COMPONENTS)


@pytest.mark.parametrize("cutoffs", [(-1, 0), (0, -1)])
def test_negative_cutoff_is_rejected(cutoffs):
    counts = _counts(hit=[5], pitch=[0])
    with pytest.raises(ValueError, match="cutoffs must be >= 0"):
        build_replacement_pool(np.zeros(counts.shape), counts, *cutoffs)


def test_shadow_scales_with_playing_time():
    credits, roster = _uniform_league()
    val = value_players(credits, roster, cutoff_pos=0, cutoff_pitch=0)
    j = val.player_ids.index("pos0")
    expected = val.rates[0] * 30 + val.rates[1] * 30
    assert val.raa_repl[j] == pytest.approx(expected)
    assert val.war[j] == pytest.approx((val.raa_total[j] - expected) / 10.0)
    # the shadow and WAR follow whatever rates and runs per win it holds
    other = dataclasses.replace(val, rates=np.array([0.1, 0.0, 0.0, -0.2]),
                                rpw=4.0)
    k = val.player_ids.index("pit0")
    assert other.raa_repl[[j, k]].tolist() == pytest.approx([3.0, -18.0])
    assert other.war[k] == pytest.approx((other.raa_total[k] + 18.0) / 4.0)


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
    credits, roster = _uniform_league(n_pos=2, n_pitch=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # one pitcher, cutoff 0
        val = value_players(credits, roster, cutoff_pos=1, cutoff_pitch=0)
    csv_text = valuation_csv(val)
    lines = csv_text.splitlines()
    assert lines[0].startswith("player_id,name,PA,BF,")
    assert len(lines) == 1 + len(val)
    # float fields round-trip through repr
    assert [float(ln.split(",")[-1]) for ln in lines[1:]] == val.war.tolist()
    assert [ln.split(",")[9] for ln in lines[1:]] == \
        ["replacement", "major_league", "replacement"]  # pit0, pos0, pos1
    document = json.loads(valuation_json(val, {"runs_per_win": 10.0}))
    assert document["config"] == {"runs_per_win": 10.0}
    payload = document["players"]
    assert [p["player_id"] for p in payload] == val.player_ids
    assert [p["war"] for p in payload] == val.war.tolist()
    assert [p["PA"] for p in payload] == [0, 30, 30]


def test_league_war_on_pipeline(pipeline):
    """Total RAA is conserved at zero; WAR totals reflect the shadow only."""
    val = pipeline.valuation
    total_raa = val.raa_total.sum()
    scale = float(np.sum(np.abs(pipeline.ledger.deltas)))
    assert abs(total_raa) < 1e-8 * scale
    assert val.war.sum() == pytest.approx(-val.raa_repl.sum() / 10.0)


def test_tabulate_matches_per_pa_loop(pipeline):
    """The bincount sums, and the component total, replacement rates,
    shadow and WAR derived from them, equal bit for bit a scalar loop
    that walks the credits plate appearance by plate appearance and adds
    every sum left to right."""
    table, val = pipeline.ledger.credits, pipeline.valuation
    raa, counts = {}, {}
    for r in np.argsort(table.pa, kind="stable"):
        key = (table.player_ids[table.player[r]],
               COMPONENTS[table.component[r]])
        raa[key] = raa.get(key, 0.0) + float(table.value[r])
        counts[key] = counts.get(key, 0) + 1
    players = table.player_ids
    for j, pid in enumerate(players):
        for c, comp in enumerate(COMPONENTS):
            assert val.raa[j, c] == raa.get((pid, comp), 0.0)
            assert val.counts[j, c] == counts.get((pid, comp), 0)
    assert int(val.counts.sum()) == len(table.value)

    # the tiers at the session's cutoffs 40/18, ties broken by id
    def events(pid, comp):
        return counts.get((pid, comp), 0)

    repl = set()
    for pitching, cutoff in ((False, 40), (True, 18)):
        comp = "pitch" if pitching else "hit"
        group = [p for p in players
                 if (events(p, "pitch") > events(p, "hit")) == pitching]
        group.sort(key=lambda p: (-events(p, comp), p))
        repl.update(group[cutoff:])
    assert val.replacement.tolist() == [p in repl for p in players]

    rates = []
    for comp in COMPONENTS:
        total, n = 0.0, 0
        for pid in sorted(repl):
            total += raa.get((pid, comp), 0.0)
            n += events(pid, comp)
        rates.append(total / n if n else 0.0)
    assert val.rates.tolist() == rates

    for j, pid in enumerate(players):
        total = shadow = 0.0
        for rate, comp in zip(rates, COMPONENTS):
            total += raa.get((pid, comp), 0.0)
            shadow += rate * events(pid, comp)
        assert val.raa_total[j] == total
        assert val.raa_repl[j] == shadow
        assert val.war[j] == (total - shadow) / 10.0
