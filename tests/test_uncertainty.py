"""Bootstrap resampling tests."""

import dataclasses
import os
import warnings
from statistics import NormalDist
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from openwar import uncertainty
from openwar.forking import fork_worker
from openwar.numerics import empirical_quantiles
from openwar.uncertainty import (
    BootstrapConfig,
    bootstrap_war,
    compare_players,
    comparison_json,
)
from openwar.valuation import COMPONENTS, CreditTable, Valuation, tabulate_raa

from fixtures import bootstrap_reference, credit_table


def _valued(credits, rates=(0.0,) * len(COMPONENTS), rpw=1.0):
    """The Valuation of `credits` at the given replacement rates and runs
    per win, with no player in the replacement tier."""
    names, raa, counts = tabulate_raa(
        credits, {p: p.upper() for p in credits.player_ids})
    return Valuation(player_ids=credits.player_ids, names=names, raa=raa,
                     counts=counts, replacement=np.zeros(len(raa), bool),
                     rates=np.array(rates, dtype=float), rpw=rpw)


def test_bootstrap_is_deterministic():
    rng = np.random.default_rng(0)
    bundles = [[("a", "hit", float(v))] for v in rng.normal(0, 0.1, 50)]
    credits = credit_table(bundles)
    val = _valued(credits)
    cfg = BootstrapConfig(replicates=40, master_seed=9)
    d1 = bootstrap_war(credits, val, cfg)
    d2 = bootstrap_war(credits, val, cfg)
    assert d1.quantile_csv() == d2.quantile_csv()
    assert np.array_equal(d1.replicates, d2.replicates)
    d3 = bootstrap_war(credits, val,
                       BootstrapConfig(replicates=40, master_seed=10))
    assert not np.array_equal(d1.replicates, d3.replicates)


def test_single_pa_season_has_zero_dispersion():
    credits = credit_table([[("a", "hit", 0.7)]])
    val = _valued(credits)
    dist = bootstrap_war(credits, val,
                         BootstrapConfig(replicates=30, master_seed=1))
    assert np.all(dist.replicates == 0.7)
    assert np.all(dist.quantiles == 0.7)
    # a valuation pairs only with the credit table it was built from
    with pytest.raises(ValueError, match="not of this credit table"):
        bootstrap_war(credit_table([[("b", "hit", 0.7)]]), val,
                      BootstrapConfig(replicates=30, master_seed=1))


def test_bootstrap_sd_matches_analytic_value():
    """Resampling n iid single-credit bundles: Var(total) = n * pop var."""
    rng = np.random.default_rng(2)
    values = rng.normal(0.0, 0.1, 400)
    bundles = [[("a", "hit", float(v))] for v in values]
    credits = credit_table(bundles)
    val = _valued(credits)
    dist = bootstrap_war(credits, val,
                         BootstrapConfig(replicates=500, master_seed=3))
    analytic = np.sqrt(len(values) * np.var(values))
    observed = dist.replicates[:, 0].std()
    assert abs(observed - analytic) / analytic < 0.15


def test_bundles_are_resampled_jointly():
    """A PA's hitter and pitcher credits always travel together, so two
    players defined as mirror images stay perfectly anticorrelated."""
    rng = np.random.default_rng(4)
    bundles = [[("a", "hit", float(v)), ("b", "pitch", float(-v))]
               for v in rng.normal(0, 1, 80)]
    credits = credit_table(bundles)
    val = _valued(credits)
    dist = bootstrap_war(credits, val,
                         BootstrapConfig(replicates=60, master_seed=5))
    a = dist.players.index("a")
    b = dist.players.index("b")
    assert np.allclose(dist.replicates[:, a], -dist.replicates[:, b],
                       atol=1e-12)


def test_quantiles_monotone_and_ordered(pipeline):
    dist = bootstrap_war(pipeline.ledger.credits, pipeline.valuation,
                         BootstrapConfig(replicates=50, master_seed=0))
    assert dist.quantiles.shape == (len(dist.players), len(dist.probs))
    assert np.all(np.diff(dist.quantiles, axis=1) >= -1e-12)
    assert dist.probs == (0.0, 0.025, 0.25, 0.5, 0.75, 0.975, 1.0)
    # extremes are the observed min and max
    assert np.allclose(dist.quantiles[:, 0], dist.replicates.min(axis=0))
    assert np.allclose(dist.quantiles[:, -1], dist.replicates.max(axis=0))


def test_block_quantiles_match_per_player_loop(pipeline, monkeypatch):
    """Quantiles taken along axis 0 of blocks of 7 player columns, the last
    block short, equal those of each column alone."""
    monkeypatch.setattr(uncertainty, "QUANTILE_BLOCK_ELEMENTS", 40 * 7)
    dist = bootstrap_war(pipeline.ledger.credits, pipeline.valuation,
                         BootstrapConfig(replicates=40, master_seed=2))
    loop = np.vstack([empirical_quantiles(dist.replicates[:, j], dist.probs)
                      for j in range(len(dist.players))])
    assert np.array_equal(dist.quantiles, loop)


def test_bootstrap_matches_reference_on_session_season(pipeline):
    """The folded, per-(player, PA) kernel against the two-scatter-add
    oracle, with the season's nonzero replacement rates."""
    credits, val = pipeline.ledger.credits, pipeline.valuation
    assert val.rates.any()
    cfg = BootstrapConfig(replicates=30, master_seed=12)
    dist = bootstrap_war(credits, val, cfg)
    ref = bootstrap_reference(credits, val, cfg)
    assert dist.players == credits.player_ids
    assert np.max(np.abs(dist.replicates - ref)) < 1e-12


_CREDIT = st.tuples(st.sampled_from(["p1", "p3", "p5"]),
                    st.sampled_from(COMPONENTS),
                    st.floats(-2.0, 2.0, allow_nan=False))


@given(bundles=st.lists(st.lists(_CREDIT, max_size=4), min_size=1,
                        max_size=25).filter(any),
       rates=st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4),
       rpw=st.floats(2.0, 15.0),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_bootstrap_matches_reference_on_drawn_ledgers(bundles, rates, rpw,
                                                      seed):
    """Drawn ledgers: repeated (player, PA) pairs, PAs without credits,
    drawn rates and runs per win, and the last credited player's rows as
    the final reduced segment."""
    credits = credit_table(bundles)
    val = _valued(credits, rates, rpw)
    cfg = BootstrapConfig(replicates=8, master_seed=seed)
    dist = bootstrap_war(credits, val, cfg)
    ref = bootstrap_reference(credits, val, cfg)
    assert np.max(np.abs(dist.replicates - ref)) < 1e-12


@given(bundles=st.lists(st.lists(_CREDIT, max_size=4), min_size=1,
                        max_size=25).filter(any),
       starts=st.sets(st.integers(0, 24)), pas=st.integers(1, 6),
       rows=st.integers(1, 4), seed=st.integers(0, 2 ** 16))
@example(bundles=[[("p1", "hit", 0.5)], [("p3", "br", -0.25)],
                  [("p1", "field", 0.125), ("p1", "pitch", 1.0)],
                  [("p5", "hit", 2.0)], [], [("p1", "br", -1.5)]],
         starts={0, 3}, pas=2, rows=2, seed=7)  # p1 in both games, one cut
@settings(max_examples=60, deadline=None)
def test_block_layout_matches_reference(bundles, starts, pas, rows, seed):
    """Drawn game boundaries cut into blocks of at most `pas` plate
    appearances: players credited in several games and blocks, games
    longer than a block, and blocks with no credit.  Nine replicates in
    blocks of `rows`, filled by one worker and by three."""
    credits = credit_table(
        bundles, sorted(s for s in starts if s < len(bundles)))
    val = _valued(credits, (0.1, -0.2, 0.05, 0.3), 9.0)
    cfg = BootstrapConfig(replicates=9, master_seed=seed)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(uncertainty, "BLOCK_PAS", pas)
        dists = _by_workers(monkeypatch, credits, val, cfg, counts=(1, 3),
                            rows=rows)
    _assert_same(dists)
    assert np.max(np.abs(dists[0].replicates - bootstrap_reference(
        credits, val, cfg))) < 1e-12


def test_session_blocks_are_games(pipeline):
    """The session season's blocks are its games, none cut: each starts
    where a game starts and holds that game's players once each, and the
    slots sort by player, in block order, into the runs `starts` begins."""
    credits, data = pipeline.ledger.credits, pipeline.ledger.data
    dense = uncertainty._Dense.of(credits, pipeline.valuation)
    assert [block[0] for block in dense.blocks] == \
        credits.game_starts.tolist()
    assert len(dense.blocks) == len(data.game_ids)
    slot_player = []
    for start, stop, worth, lo, hi in dense.blocks:
        assert len(set(data.game[start:stop].tolist())) == 1
        assert stop - start <= uncertainty.BLOCK_PAS
        on = (credits.pa >= start) & (credits.pa < stop)
        assert lo == len(slot_player)
        slot_player.extend(np.unique(credits.player[on]).tolist())
        assert worth.shape == (stop - start, hi - lo)
    by_player = np.array(slot_player)[dense.order]
    same = np.diff(by_player) == 0
    assert np.all(np.diff(by_player) >= 0)
    assert np.all(np.diff(dense.order)[same] > 0)
    assert np.array_equal(by_player[dense.starts],
                          np.arange(len(credits.player_ids)))


def test_rows_do_not_depend_on_the_replicate_count(pipeline):
    """Row `rep` is the same whether it is the only row, one of a padded
    last block (41) or of a full block (100)."""
    credits, val = pipeline.ledger.credits, pipeline.valuation
    assert uncertainty._block_rows(credits.n_pas) == 32
    rows = [bootstrap_war(credits, val, BootstrapConfig(
        replicates=r, master_seed=8)).replicates for r in (1, 41, 100)]
    assert np.array_equal(rows[0], rows[1][:1])
    assert np.array_equal(rows[1], rows[2][:41])


def test_replicates_estimate_the_exact_moments(pipeline):
    """What the bootstrap estimates.  Models and rates are frozen, so a
    player's replicate WAR is Σ a_i c_i: a_i is the player's summed worth
    on plate appearance i and the draw counts c are Multinomial(n, 1/n).
    Its mean is Σ a_i, the point WAR, and its variance is
    var_ex = Σ a_i² − (Σ a_i)²/n.  Each replicate mean must lie within z
    standard errors √(var_ex / R) of Σ a_i, and each replicate variance
    over var_ex within z standard errors of 1, that error estimated from
    the replicates' own fourth moment.  z is Bonferroni over the players
    at a family-wise level of 1e-3."""
    table, val = pipeline.ledger.credits, pipeline.valuation
    n, replicates = table.n_pas, 1000
    a = np.zeros((len(table.player_ids), n))
    np.add.at(a, (table.player, table.pa),
              (table.value - val.rates[table.component]) / val.rpw)
    total = a.sum(axis=1)
    assert np.max(np.abs(total - val.war)) < 1e-12

    dist = bootstrap_war(table, val,
                         BootstrapConfig(replicates=replicates, master_seed=0))
    assert dist.players == table.player_ids
    z = NormalDist().inv_cdf(1.0 - 1e-3 / len(dist.players) / 2.0)
    var_ex = (a * a).sum(axis=1) - total ** 2 / n
    mean = dist.replicates.mean(axis=0)
    assert np.all(np.abs(mean - total) <= z * np.sqrt(var_ex / replicates))
    dev = dist.replicates - mean
    var = (dev ** 2).sum(axis=0) / (replicates - 1)
    se = np.sqrt(((dev ** 4).mean(axis=0) - var ** 2) / replicates)
    assert np.all(np.abs(var / var_ex - 1.0) <= z * se / var_ex)


def test_every_pa_once_reproduces_point_war(pipeline, monkeypatch):
    """Folded-rate identity: a replicate that counts every plate
    appearance once is the point WAR, replacement shadow included."""
    once = SimpleNamespace(integers=lambda low, high, size: np.arange(high))
    monkeypatch.setattr(uncertainty, "replicate_rng", lambda *key: once)
    dist = bootstrap_war(pipeline.ledger.credits, pipeline.valuation,
                         BootstrapConfig(replicates=2))
    assert np.max(np.abs(dist.replicates - dist.point)) < 1e-12


def test_bootstrap_keys_beyond_int32():
    """With 2,200 players over 1,000,003 plate appearances, player code x
    n_pas passes 2**31, and with no games the blocks are runs of
    BLOCK_PAS plate appearances: the int32 table resamples exactly like
    the same table with int64 columns."""
    rng = np.random.default_rng(13)
    players, n = 2200, 1_000_003
    player = np.repeat(np.arange(players), 3)
    credits = CreditTable.build(
        n_pas=n, pa=rng.integers(0, n, len(player)), player=player,
        player_ids=[f"p{k:04d}" for k in range(players)],
        component=rng.integers(0, len(COMPONENTS), len(player)),
        value=rng.normal(0.0, 0.1, len(player)))
    assert int(credits.player.max()) * n > 2 ** 31
    wide = dataclasses.replace(credits, pa=credits.pa.astype(np.int64),
                               player=credits.player.astype(np.int64))
    val = _valued(credits, rates=(0.01, -0.02, 0.03, 0.0), rpw=10.0)
    cfg = BootstrapConfig(replicates=3, master_seed=4)
    assert np.array_equal(bootstrap_war(credits, val, cfg).replicates,
                          bootstrap_war(wide, val, cfg).replicates)


def _no_child_left():
    """Every process a bootstrap forked has been waited for."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _by_workers(monkeypatch, credits, val, cfg, counts=(1, 2, 3), rows=1):
    """The distributions of `bootstrap_war` run with each worker count, in
    blocks of `rows` replicates.  W workers on at least W blocks must fork
    W − 1 children, so a layout that leaves too few blocks fails here."""
    monkeypatch.setattr(uncertainty, "BLOCK_ROWS", rows)
    blocks = -(-cfg.replicates // uncertainty._block_rows(credits.n_pas))
    forks = []

    def counted_fork(work):
        forks.append(work)
        return fork_worker(work)

    monkeypatch.setattr(uncertainty, "fork_worker", counted_fork)
    dists = []
    for workers in counts:
        monkeypatch.setattr(uncertainty, "_workers",
                            lambda n, w=workers: min(w, n))
        forks.clear()
        dists.append(bootstrap_war(credits, val, cfg))
        _no_child_left()
        assert len(forks) == min(workers, blocks) - 1
    return dists


def _assert_same(dists):
    for dist in dists[1:]:
        assert np.array_equal(dist.replicates, dists[0].replicates)
        assert dist.quantile_csv() == dists[0].quantile_csv()


def test_worker_count_does_not_change_results(pipeline, monkeypatch):
    """Row `rep` depends only on (master_seed, rep), so 1, 2 and 3 worker
    processes fill the same matrix."""
    _assert_same(_by_workers(monkeypatch, pipeline.ledger.credits,
                             pipeline.valuation,
                             BootstrapConfig(replicates=41, master_seed=3),
                             rows=8))


@given(bundles=st.lists(st.lists(_CREDIT, max_size=4), min_size=1,
                        max_size=25).filter(any),
       replicates=st.integers(1, 7), seed=st.integers(0, 2 ** 16))
@settings(max_examples=15, deadline=None)
def test_worker_count_does_not_change_drawn_ledgers(bundles, replicates, seed):
    credits = credit_table(bundles)
    val = _valued(credits, (0.1, -0.2, 0.0, 0.3), 9.0)
    cfg = BootstrapConfig(replicates=replicates, master_seed=seed)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_same(_by_workers(monkeypatch, credits, val, cfg))


def _must_not_fork():
    raise AssertionError("one worker runs in the calling process")


def test_one_replicate_runs_in_one_worker(pipeline, monkeypatch):
    assert uncertainty._workers(1) == 1
    monkeypatch.setattr(os, "fork", _must_not_fork)
    dist = bootstrap_war(pipeline.ledger.credits, pipeline.valuation,
                         BootstrapConfig(replicates=1))
    assert dist.replicates.shape == (1, len(pipeline.valuation))


def test_fork_warning_of_threaded_process_is_ignored(pipeline, monkeypatch):
    """Python 3.12+ warns when a process with threads forks, and the suite
    turns a DeprecationWarning into an error; the fork helper that the
    bootstrap and the parser share ignores that one warning around its
    fork.  Here the warning is raised before the real fork, so a fork it
    stops leaves no child."""
    fork = os.fork
    warned = []

    def warning_fork():
        warned.append(os.getpid())
        warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, "
                      f"use of fork() may lead to deadlocks in the child.",
                      DeprecationWarning, stacklevel=2)
        return fork()

    monkeypatch.setattr(os, "fork", warning_fork)
    _by_workers(monkeypatch, pipeline.ledger.credits, pipeline.valuation,
                BootstrapConfig(replicates=4), counts=(2,))
    assert warned


@pytest.mark.parametrize("failing", [0, 1], ids=["caller", "child"])
def test_a_failing_worker_fails_the_call(pipeline, monkeypatch, failing):
    """A failure in the calling process (worker 0) propagates as it is,
    and one in a forked worker as WorkerError with its exit status; either
    way every worker has exited when the call returns.  Six replicates in
    blocks of two give worker 0 blocks 0 and 2, and worker 1 block 1."""
    block = uncertainty._block

    def fails_on_some_blocks(reps, *args):
        if reps.start // 2 % 2 == failing:
            raise FloatingPointError(f"block {reps.start // 2}")
        return block(reps, *args)

    monkeypatch.setattr(uncertainty, "BLOCK_ROWS", 2)
    monkeypatch.setattr(uncertainty, "_workers", lambda blocks: 2)
    monkeypatch.setattr(uncertainty, "_block", fails_on_some_blocks)
    expected = (FloatingPointError, "block 0") if failing == 0 else \
        (uncertainty.WorkerError, "worker 1 of 2 exited with status 1")
    with pytest.raises(expected[0], match=expected[1]):
        bootstrap_war(pipeline.ledger.credits, pipeline.valuation,
                      BootstrapConfig(replicates=6))
    _no_child_left()


def test_compare_players_matches_recount():
    rng = np.random.default_rng(6)
    bundles = []
    for v in rng.normal(0.05, 1.0, 100):
        bundles.append([("a", "hit", float(v))])
    for v in rng.normal(-0.05, 1.0, 100):
        bundles.append([("b", "hit", float(v))])
    credits = credit_table(bundles)
    val = _valued(credits)
    dist = bootstrap_war(credits, val,
                         BootstrapConfig(replicates=80, master_seed=7))
    pr = compare_players(dist, "a", "b")
    a = dist.players.index("a")
    b = dist.players.index("b")
    manual = float((dist.replicates[:, a] > dist.replicates[:, b]).sum()) / 80
    assert pr == pytest.approx(manual)
    assert 0.0 <= pr <= 1.0
    with pytest.raises(KeyError):
        compare_players(dist, "a", "nobody")


def test_comparison_json_shape():
    credits = credit_table([[("a", "hit", 0.5), ("b", "hit", -0.5)]])
    val = _valued(credits)
    dist = bootstrap_war(credits, val,
                         BootstrapConfig(replicates=5, master_seed=0))
    import json
    payload = json.loads(comparison_json(dist, [("a", "b")]))
    assert payload == [{"player_a": "a", "player_b": "b",
                        "pr_a_exceeds_b": payload[0]["pr_a_exceeds_b"]}]


def test_config_validation():
    with pytest.raises(ValueError):
        BootstrapConfig(replicates=0)
    assert BootstrapConfig().replicates == 3500
