"""Offensive apportionment chain tests."""

import numpy as np
import pytest

from openwar.events import EVENT_TYPES, SeasonDataset
from openwar.offense import (
    OUT_RANK,
    _baserunning,
    advancement_probabilities,
    apportion_offense,
    fit_baserunner_expectation,
    fit_park_platoon,
    park_platoon_design,
)

from fixtures import kappa, make_pa, records


def test_platoon_advantage_cases():
    """The platoon column of the park/platoon design, one hand pair a row."""
    g = "AWY@HOM-0001"
    combos = {("L", "R"): 1.0, ("R", "L"): 1.0, ("R", "R"): 0.0,
              ("L", "L"): 0.0, ("S", "R"): 1.0, ("S", "L"): 1.0}
    data = SeasonDataset.from_records([
        make_pa(g, k, 1, "top", 0, 0, "Walk", "1B",
                batter_hand=bh, pitcher_hand=ph)
        for k, (bh, ph) in enumerate(combos)])
    _, [(name, platoon)] = park_platoon_design(data)
    assert name == "platoon"
    assert platoon.tolist() == list(combos.values())


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
    deltas = np.array([0.3 if pa["ballpark_id"] == "PX" else -0.3
                       for pa in records(data)])
    fit = fit_park_platoon(data, deltas)
    for pa, fitted, resid in zip(records(data), fit.fitted,
                                 fit.residuals):
        want = 0.3 if pa["ballpark_id"] == "PX" else -0.3
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
    cdf = advancement_probabilities(SeasonDataset.from_records(rows))
    # cell (Single, base 1): ranks {+2, out}; each with probability 1/2
    assert kappa(cdf, "Single", 1, OUT_RANK) == pytest.approx(0.5)
    assert kappa(cdf, "Single", 1, 0) == pytest.approx(0.5)
    assert kappa(cdf, "Single", 1, 1) == pytest.approx(0.5)
    assert kappa(cdf, "Single", 1, 2) == pytest.approx(1.0)
    # cell (Single, base 0): the batter reached first both times (rank 1)
    assert kappa(cdf, "Single", 0, 0) == pytest.approx(0.0)
    assert kappa(cdf, "Single", 0, 1) == pytest.approx(1.0)
    # unseen (event, base) falls back to pooling over the event
    assert kappa(cdf, "Single", 3, 1) == pytest.approx(0.75)
    # unseen event falls back to the global table: ranks {-1,1,1,2}
    assert kappa(cdf, "Double", 2, 0) == pytest.approx(0.25)
    assert kappa(cdf, "Double", 2, 2) == pytest.approx(1.0)


def test_apportion_baserunning_splits_eta():
    g = "AWY@HOM-0001"
    rows = [
        make_pa(g, 0, 1, "top", 0, 1, "Single", "1B", {1: "3B"}),
        make_pa(g, 1, 1, "top", 0, 1, "Single", "1B", {1: "O"}),
    ]
    cdf = advancement_probabilities(SeasonDataset.from_records(rows))
    one = SeasonDataset.from_records(rows[:1])
    kappa, raa_br = _baserunning(one, np.array([0.8]), cdf)
    # columns: the runners on 1B, 2B and 3B, then the batter from base 0
    assert one.player_ids[one.runner[0, 0]] == "R1"
    assert one.player_ids[one.batter[0]] == "B1"
    # kappa(rank +2 | base 1) = 1.0 and kappa(rank +1 | base 0) = 1.0:
    # equal weights
    assert kappa.tolist() == [[1.0, 0.0, 0.0, 1.0]]
    assert raa_br[0] == pytest.approx([0.4, 0.0, 0.0, 0.4])
    assert raa_br.sum() == pytest.approx(0.8)


def test_apportion_baserunning_equal_split_fallback():
    g = "AWY@HOM-0001"
    pa = make_pa(g, 0, 1, "top", 0, 1, "Single", "1B", {1: "2B"})
    # a table whose only mass sits above every achievable rank: Pr(K <= r)
    # is 0 for every rank -2..4
    cdf = np.zeros((len(EVENT_TYPES), 4, 7))
    kappa, raa_br = _baserunning(SeasonDataset.from_records([pa]),
                                 np.array([1.0]), cdf)
    assert kappa.tolist() == [[0.0] * 4]
    assert raa_br[0] == pytest.approx([0.5, 0.0, 0.0, 0.5])


def test_batter_always_credited():
    g = "AWY@HOM-0001"
    pa = make_pa(g, 0, 1, "top", 0, 0, "Strikeout", "O")
    # every cell: Pr(out) = 0.3, then 1.0 from rank +1 on (ranks -2..4)
    cdf = np.broadcast_to([0.0, 0.3, 0.3, 1.0, 1.0, 1.0, 1.0],
                          (len(EVENT_TYPES), 4, 7))
    _, raa_br = _baserunning(SeasonDataset.from_records([pa]),
                             np.array([-0.2]), cdf)
    assert raa_br[0] == pytest.approx([0.0, 0.0, 0.0, -0.2])


def test_offense_chain_identities(pipeline):
    """delta decomposes exactly into fitted means + hitter + runner credits."""
    data, off = pipeline.ledger.data, pipeline.ledger.offense
    eps_hat = off.park_fit.residuals
    eta_hat = fit_baserunner_expectation(data, eps_hat).residuals
    credit_sums = off.raa_br.sum(axis=1)
    assert np.max(np.abs(credit_sums - eta_hat)) < 1e-10
    recon = (off.park_fit.fitted + off.position_fit.fitted
             + off.raa_hit + credit_sums)
    assert np.max(np.abs(recon - pipeline.ledger.deltas)) < 1e-10
    # each regression residual stream is centered league-wide
    for arr in (eps_hat, eta_hat, off.raa_hit):
        assert abs(arr.sum()) < 1e-8


def test_runner_credit_weights_are_probabilities(pipeline):
    data, off = pipeline.ledger.data, pipeline.ledger.offense
    on = np.column_stack([data.runner, data.batter]) >= 0
    assert on[:, 3].all(), "every plate appearance carries a batter credit"
    assert np.all((off.kappa >= 0.0) & (off.kappa <= 1.0 + 1e-12))
    assert np.all(off.kappa[~on] == 0.0) and np.all(off.raa_br[~on] == 0.0)
