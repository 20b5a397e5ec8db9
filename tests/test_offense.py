"""Offensive apportionment chain tests."""

import numpy as np
import pytest

from openwar.events import SeasonDataset
from openwar.offense import (
    OUT_RANK,
    AdvancementTable,
    advancement_probabilities,
    apportion_baserunning,
    apportion_offense,
    fit_park_platoon,
    platoon_advantage,
)

from fixtures import make_pa, records


def test_platoon_advantage_cases():
    g = "AWY@HOM-0001"
    combos = {("L", "R"): 1.0, ("R", "L"): 1.0, ("R", "R"): 0.0,
              ("L", "L"): 0.0, ("S", "R"): 1.0, ("S", "L"): 1.0}
    for (bh, ph), want in combos.items():
        pa = make_pa(g, 0, 1, "top", 0, 0, "Walk", "1B",
                     batter_hand=bh, pitcher_hand=ph)
        assert platoon_advantage(pa) == want


def _two_park_dataset(n_per_park=6):
    g1, g2 = "AAA@XXX-0001", "AAA@YYY-0002"
    rows = []
    for k in range(n_per_park):
        hand = "L" if k % 2 else "R"  # balanced platoon column in each park
        rows.append(make_pa(g1, k, 1, "top", 0, 0, "Walk", "1B", park="PX",
                            batter_hand=hand))
        rows.append(make_pa(g2, k, 1, "top", 0, 0, "Walk", "1B", park="PY",
                            batter_hand=hand))
    return SeasonDataset.from_records(rows)


def test_park_fit_recovers_constructed_park_effect():
    data = _two_park_dataset()
    # park PX inflates run values by +0.3, PY deflates by -0.3
    deltas = np.array([0.3 if pa.ballpark_id == "PX" else -0.3
                       for pa in records(data)])
    fit = fit_park_platoon(data, deltas)
    for pa, fitted, resid in zip(records(data), fit.fitted,
                                 fit.residuals):
        want = 0.3 if pa.ballpark_id == "PX" else -0.3
        assert fitted == pytest.approx(want, abs=1e-10)
        assert resid == pytest.approx(0.0, abs=1e-10)
    # the later of the two exhaustive park indicators is the dropped one
    assert fit.dropped == ["park_PY"]
    assert fit.coefficients["park_PY"] == 0.0


def test_advancement_ranks_order_out_below_hold():
    assert OUT_RANK < 0


def test_advancement_table_hand_tallies():
    g = "AWY@HOM-0001"
    rows = [
        make_pa(g, 0, 1, "top", 0, 1, "Single", "1B", {1: "3B"}),
        make_pa(g, 1, 1, "top", 0, 1, "Single", "1B", {1: "O"}),
    ]
    table = advancement_probabilities(SeasonDataset.from_records(rows))
    # cell (Single, base 1): ranks {+2, out}; each with probability 1/2
    assert table.kappa("Single", 1, OUT_RANK) == pytest.approx(0.5)
    assert table.kappa("Single", 1, 0) == pytest.approx(0.5)
    assert table.kappa("Single", 1, 1) == pytest.approx(0.5)
    assert table.kappa("Single", 1, 2) == pytest.approx(1.0)
    # cell (Single, base 0): the batter reached first both times (rank 1)
    assert table.kappa("Single", 0, 0) == pytest.approx(0.0)
    assert table.kappa("Single", 0, 1) == pytest.approx(1.0)
    # unseen (event, base) falls back to pooling over the event
    assert table.kappa("Single", 3, 1) == pytest.approx(0.75)
    # unseen event falls back to the global table: ranks {-1,1,1,2}
    assert table.kappa("Double", 2, 0) == pytest.approx(0.25)
    assert table.kappa("Double", 2, 2) == pytest.approx(1.0)


def test_apportion_baserunning_splits_eta():
    g = "AWY@HOM-0001"
    rows = [
        make_pa(g, 0, 1, "top", 0, 1, "Single", "1B", {1: "3B"}),
        make_pa(g, 1, 1, "top", 0, 1, "Single", "1B", {1: "O"}),
    ]
    data = SeasonDataset.from_records(rows)
    table = advancement_probabilities(data)
    credits = apportion_baserunning(rows[0], 0.8, table)
    assert {c.player_id for c in credits} == {"R1", "B1"}
    assert sum(c.raa_br for c in credits) == pytest.approx(0.8)
    # kappa(rank +2 | base 1) = 1.0 and kappa(rank +1 | base 0) = 1.0:
    # equal weights
    by_id = {c.player_id: c for c in credits}
    assert by_id["R1"].raa_br == pytest.approx(0.4)
    assert by_id["B1"].raa_br == pytest.approx(0.4)
    assert by_id["B1"].start_base == 0


def test_apportion_baserunning_equal_split_fallback():
    g = "AWY@HOM-0001"
    pa = make_pa(g, 0, 1, "top", 0, 1, "Single", "1B", {1: "2B"})
    # a table whose only mass sits above every achievable rank
    table = AdvancementTable(cells={}, pooled={}, global_cdf=[(9, 1.0)])
    credits = apportion_baserunning(pa, 1.0, table)
    assert all(c.raa_br == pytest.approx(0.5) for c in credits)


def test_batter_always_credited():
    g = "AWY@HOM-0001"
    pa = make_pa(g, 0, 1, "top", 0, 0, "Strikeout", "O")
    table = AdvancementTable(cells={}, pooled={},
                             global_cdf=[(OUT_RANK, 0.3), (1, 1.0)])
    credits = apportion_baserunning(pa, -0.2, table)
    assert len(credits) == 1
    assert credits[0].player_id == "B1"
    assert credits[0].raa_br == pytest.approx(-0.2)


def test_offense_chain_identities(pipeline):
    """delta decomposes exactly into fitted means + hitter + runner credits."""
    off = pipeline.ledger.offense
    n = len(pipeline.ledger.deltas)
    credit_sums = np.array([sum(c.raa_br for c in off.runner_credits[i])
                            for i in range(n)])
    assert np.max(np.abs(credit_sums - off.eta_hat)) < 1e-10
    recon = (off.park_fit.fitted + off.position_fit.fitted
             + off.raa_hit + credit_sums)
    assert np.max(np.abs(recon - pipeline.ledger.deltas)) < 1e-10
    # each regression residual stream is centered league-wide
    for arr in (off.eps_hat, off.eta_hat, off.raa_hit):
        assert abs(arr.sum()) < 1e-8


def test_runner_credit_weights_are_probabilities(pipeline):
    off = pipeline.ledger.offense
    for i, credits in enumerate(off.runner_credits):
        assert credits, "every plate appearance carries a batter credit"
        for c in credits:
            assert 0.0 <= c.kappa <= 1.0 + 1e-12
