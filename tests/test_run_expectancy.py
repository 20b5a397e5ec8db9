"""Run expectancy matrix and per-PA run value tests."""

import numpy as np
import pytest

from openwar.events import LIVE_STATES, SeasonDataset
from openwar.run_expectancy import estimate_matrix, run_value

from fixtures import build_re_fixture, half_innings, make_pa, records


def test_fixture_reproduces_hand_computed_matrix():
    data, expected_rho, expected_counts = build_re_fixture()
    matrix = estimate_matrix(data)
    assert matrix.rho == expected_rho  # exact, no tolerance
    assert matrix.sample_counts == expected_counts


def test_three_out_state_is_worth_zero():
    data, _, _ = build_re_fixture()
    matrix = estimate_matrix(data)
    for bases in range(8):
        assert matrix.value(3, bases) == 0.0


def test_value_raises_on_uncovered_state():
    from openwar.run_expectancy import RunExpectancyMatrix
    m = RunExpectancyMatrix(rho={(0, 0): 0.5})
    with pytest.raises(KeyError):
        m.value(1, 3)


def test_run_value_on_fixture():
    data, rho, _ = build_re_fixture()
    matrix = estimate_matrix(data)
    # leadoff double in the fixture: (0,0) -> (0,2), no runs
    delta = run_value(data.record(0), matrix)
    assert delta == pytest.approx(rho[(0, 2)] - rho[(0, 0)])
    # the grand slam: (0,7) -> (0,0), 4 runs
    slam = data.record(3)
    assert slam["runs_scored"] == 4
    delta = run_value(slam, matrix)
    assert delta == pytest.approx(rho[(0, 0)] - rho[(0, 7)] + 4)
    # inning-ending groundout: (2,6) -> three outs, rho drops to 0
    last = data.record(10)
    delta = run_value(last, matrix)
    assert delta == pytest.approx(0.0 - rho[(2, 6)])


def test_unterminated_trailing_half_inning_is_dropped():
    data, rho, counts = build_re_fixture()
    extra = make_pa("AWY@HOM-0001", 99, 2, "bottom", 0, 0, "Single", "1B")
    data2 = SeasonDataset.from_records(records(data) + [extra])
    with pytest.warns(UserWarning, match="unterminated"):
        matrix = estimate_matrix(data2)
    assert matrix.rho == rho
    assert matrix.sample_counts == counts


def test_earlier_truncated_half_inning_is_kept():
    # a walk-off style half-inning that ends before three outs still counts
    data, _, _ = build_re_fixture()
    walkoff = [
        make_pa("AWY@HOM-0002", 0, 9, "bottom", 0, 0, "Home Run", "H"),
    ]
    closing = [
        make_pa("AWY@HOM-0002", 1, 10, "top", 0, 0, "Strikeout", "O"),
        make_pa("AWY@HOM-0002", 2, 10, "top", 1, 0, "Strikeout", "O"),
        make_pa("AWY@HOM-0002", 3, 10, "top", 2, 0, "Strikeout", "O"),
    ]
    rows = records(data) + walkoff + closing
    matrix = estimate_matrix(SeasonDataset.from_records(rows))
    # (0,0) gains observations worth 1 (the walk-off) and 0 (inning 10)
    base, _, _ = build_re_fixture()
    old = estimate_matrix(base)
    n_old = old.sample_counts[(0, 0)]
    expected = (old.rho[(0, 0)] * n_old + 1.0 + 0.0) / (n_old + 2)
    assert matrix.rho[(0, 0)] == pytest.approx(expected)


def test_unobserved_state_is_an_error():
    data, _, _ = build_re_fixture()
    rows = records(data)[:11]  # top 1 only: no 1-out or 2-out masks
    with pytest.raises(ValueError, match="never observed"):
        estimate_matrix(SeasonDataset.from_records(rows))


def test_matrix_csv_covers_all_live_states():
    data, _, _ = build_re_fixture()
    matrix = estimate_matrix(data)
    lines = matrix.to_csv().splitlines()
    assert lines[0] == "outs,bases_mask,rho,n"
    assert len(lines) == 1 + len(LIVE_STATES)


def test_telescoping_on_synthetic_season(season, pipeline):
    """Within each completed half-inning the run values sum to
    runs - rho(0, empty)."""
    matrix = estimate_matrix(season)
    assert pipeline.ledger.matrix == matrix
    rho00 = matrix.rho[(0, 0)]
    deltas = pipeline.ledger.deltas
    for group in half_innings(season):
        assert season.end_outs[group[-1]] == 3
        total = sum(deltas[group].tolist())
        runs = int(season.runs_scored[group].sum())
        assert abs(total - (runs - rho00)) < 1e-10
        assert total == sum(run_value(season.record(i), matrix)
                            for i in group)


def test_matrix_values_decrease_in_outs(season):
    """More outs can't raise expected runs for the same base state."""
    matrix = estimate_matrix(season)
    for bases in range(8):
        # rarely visited states are too noisy for an ordering check
        if min(matrix.sample_counts[(0, bases)],
               matrix.sample_counts[(2, bases)]) < 50:
            continue
        assert matrix.rho[(0, bases)] > matrix.rho[(2, bases)]
