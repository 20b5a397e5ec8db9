"""Bootstrap resampling tests."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openwar import uncertainty
from openwar.numerics import empirical_quantiles
from openwar.uncertainty import (
    BootstrapConfig,
    bootstrap_war,
    compare_players,
    comparison_json,
)
from openwar.valuation import (
    COMPONENTS,
    PlayerValuation,
    ReplacementPool,
    shadow_and_war,
    tabulate_raa,
)

from fixtures import bootstrap_reference, credit_ledger


def _zero_pool():
    return ReplacementPool(cutoff_pos=0, cutoff_pitch=0,
                           rates={c: 0.0 for c in COMPONENTS},
                           replacement_ids=set())


def _valued(ledger, roster, rpw=1.0):
    vals = tabulate_raa(ledger, roster)
    pool = _zero_pool()
    for v in vals.values():
        shadow_and_war(v, pool, rpw)
    return vals, pool


def test_bootstrap_is_deterministic():
    rng = np.random.default_rng(0)
    bundles = [[("a", "hit", float(v))] for v in rng.normal(0, 0.1, 50)]
    ledger = credit_ledger(bundles)
    vals, pool = _valued(ledger, {"a": "A"})
    cfg = BootstrapConfig(replicates=40, master_seed=9)
    d1 = bootstrap_war(ledger, vals, pool, cfg, rpw=1.0)
    d2 = bootstrap_war(ledger, vals, pool, cfg, rpw=1.0)
    assert d1.quantile_csv() == d2.quantile_csv()
    assert np.array_equal(d1.replicates, d2.replicates)
    d3 = bootstrap_war(ledger, vals, pool,
                       BootstrapConfig(replicates=40, master_seed=10), rpw=1.0)
    assert not np.array_equal(d1.replicates, d3.replicates)


def test_single_pa_season_has_zero_dispersion():
    ledger = credit_ledger([[("a", "hit", 0.7)]])
    vals, pool = _valued(ledger, {"a": "A"})
    dist = bootstrap_war(ledger, vals, pool,
                         BootstrapConfig(replicates=30, master_seed=1),
                         rpw=1.0)
    assert np.all(dist.replicates == 0.7)
    assert np.all(dist.quantiles == 0.7)


def test_bootstrap_sd_matches_analytic_value():
    """Resampling n iid single-credit bundles: Var(total) = n * pop var."""
    rng = np.random.default_rng(2)
    values = rng.normal(0.0, 0.1, 400)
    bundles = [[("a", "hit", float(v))] for v in values]
    ledger = credit_ledger(bundles)
    vals, pool = _valued(ledger, {"a": "A"})
    dist = bootstrap_war(ledger, vals, pool,
                         BootstrapConfig(replicates=500, master_seed=3),
                         rpw=1.0)
    analytic = np.sqrt(len(values) * np.var(values))
    observed = dist.replicates[:, 0].std()
    assert abs(observed - analytic) / analytic < 0.15


def test_bundles_are_resampled_jointly():
    """A PA's hitter and pitcher credits always travel together, so two
    players defined as mirror images stay perfectly anticorrelated."""
    rng = np.random.default_rng(4)
    bundles = [[("a", "hit", float(v)), ("b", "pitch", float(-v))]
               for v in rng.normal(0, 1, 80)]
    ledger = credit_ledger(bundles)
    vals, pool = _valued(ledger, {"a": "A", "b": "B"})
    dist = bootstrap_war(ledger, vals, pool,
                         BootstrapConfig(replicates=60, master_seed=5),
                         rpw=1.0)
    a = dist.players.index("a")
    b = dist.players.index("b")
    assert np.allclose(dist.replicates[:, a], -dist.replicates[:, b],
                       atol=1e-12)


def test_quantiles_monotone_and_ordered(pipeline):
    dist = bootstrap_war(pipeline.ledger, pipeline.valuations, pipeline.pool,
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
    dist = bootstrap_war(pipeline.ledger, pipeline.valuations, pipeline.pool,
                         BootstrapConfig(replicates=40, master_seed=2))
    loop = np.vstack([empirical_quantiles(dist.replicates[:, j], dist.probs)
                      for j in range(len(dist.players))])
    assert np.array_equal(dist.quantiles, loop)


def test_bootstrap_matches_reference_on_session_season(pipeline):
    """The folded, per-(player, PA) kernel against the two-scatter-add
    oracle, with the season's nonzero replacement rates."""
    assert any(pipeline.pool.rates.values())
    cfg = BootstrapConfig(replicates=30, master_seed=12)
    dist = bootstrap_war(pipeline.ledger, pipeline.valuations, pipeline.pool,
                         cfg)
    ref = bootstrap_reference(pipeline.ledger, pipeline.valuations,
                              pipeline.pool, cfg)
    assert dist.players == sorted(pipeline.valuations)
    assert np.max(np.abs(dist.replicates - ref)) < 1e-12


_CREDIT = st.tuples(st.sampled_from(["p1", "p3", "p5"]),
                    st.sampled_from(COMPONENTS),
                    st.floats(-2.0, 2.0, allow_nan=False))


@given(bundles=st.lists(st.lists(_CREDIT, max_size=4), min_size=1,
                        max_size=25).filter(any),
       idle=st.sampled_from(["p0", "p2", "p9"]),
       rates=st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4),
       rpw=st.floats(2.0, 15.0),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_bootstrap_matches_reference_on_drawn_ledgers(bundles, idle, rates,
                                                      rpw, seed):
    """Drawn ledgers: repeated (player, PA) pairs, PAs without credits, a
    player without credits sorting first, between or last, and the last
    credited player's rows as the final reduced segment."""
    ledger = credit_ledger(bundles)
    pool = ReplacementPool(cutoff_pos=0, cutoff_pitch=0,
                           rates=dict(zip(COMPONENTS, rates)),
                           replacement_ids=set())
    vals = tabulate_raa(ledger, {p: p.upper() for p in ("p1", "p3", "p5")})
    vals[idle] = PlayerValuation(player_id=idle, name=idle.upper())
    for v in vals.values():
        shadow_and_war(v, pool, rpw)
    cfg = BootstrapConfig(replicates=8, master_seed=seed)
    dist = bootstrap_war(ledger, vals, pool, cfg, rpw=rpw)
    ref = bootstrap_reference(ledger, vals, pool, cfg, rpw=rpw)
    assert np.max(np.abs(dist.replicates - ref)) < 1e-12
    assert np.all(dist.replicates[:, dist.players.index(idle)] == 0.0)


def test_every_pa_once_reproduces_point_war(pipeline, monkeypatch):
    """Folded-rate identity: a replicate that counts every plate
    appearance once is the point WAR, replacement shadow included."""
    once = SimpleNamespace(integers=lambda low, high, size: np.arange(high))
    monkeypatch.setattr(uncertainty, "replicate_rng", lambda *key: once)
    dist = bootstrap_war(pipeline.ledger, pipeline.valuations, pipeline.pool,
                         BootstrapConfig(replicates=2))
    assert np.max(np.abs(dist.replicates - dist.point)) < 1e-12


def test_compare_players_matches_recount():
    rng = np.random.default_rng(6)
    bundles = []
    for v in rng.normal(0.05, 1.0, 100):
        bundles.append([("a", "hit", float(v))])
    for v in rng.normal(-0.05, 1.0, 100):
        bundles.append([("b", "hit", float(v))])
    ledger = credit_ledger(bundles)
    vals, pool = _valued(ledger, {"a": "A", "b": "B"})
    dist = bootstrap_war(ledger, vals, pool,
                         BootstrapConfig(replicates=80, master_seed=7),
                         rpw=1.0)
    pr = compare_players(dist, "a", "b")
    a = dist.players.index("a")
    b = dist.players.index("b")
    manual = float((dist.replicates[:, a] > dist.replicates[:, b]).sum()) / 80
    assert pr == pytest.approx(manual)
    assert 0.0 <= pr <= 1.0
    with pytest.raises(KeyError):
        compare_players(dist, "a", "nobody")


def test_comparison_json_shape():
    ledger = credit_ledger([[("a", "hit", 0.5), ("b", "hit", -0.5)]])
    vals, pool = _valued(ledger, {"a": "A", "b": "B"})
    dist = bootstrap_war(ledger, vals, pool,
                         BootstrapConfig(replicates=5, master_seed=0),
                         rpw=1.0)
    import json
    payload = json.loads(comparison_json(dist, [("a", "b")]))
    assert payload == [{"player_a": "a", "player_b": "b",
                        "pr_a_exceeds_b": payload[0]["pr_a_exceeds_b"]}]


def test_config_validation():
    with pytest.raises(ValueError):
        BootstrapConfig(replicates=0)
    assert BootstrapConfig().replicates == 3500
