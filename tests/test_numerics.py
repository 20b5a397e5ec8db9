"""Oracle tests for the estimation primitives.

Each fit routine is checked against an independent implementation: OLS
against the pseudo-inverse, the logistic solver against a brute-force
likelihood grid, the smoother against a naive double loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openwar import numerics
from openwar.numerics import (
    SmoothedSurface,
    empirical_quantiles,
    indicator_ols,
    logistic_fit,
    master_rng,
    replicate_rng,
    scott_bandwidth,
)

from fixtures import (
    assert_same_fit,
    binned_full_grid,
    coefs,
    dense_design,
    ols_fit,
)


def _random_system(rng, n=40, p=5):
    V = rng.normal(size=(n, p))
    V[:, 0] = 1.0
    y = rng.normal(size=n)
    return [f"c{j}" for j in range(p)], V, y


def test_ols_matches_pseudo_inverse():
    rng = np.random.default_rng(0)
    for _ in range(20):
        names, V, y = _random_system(rng)
        fit = ols_fit(names, V, y)
        beta = np.linalg.pinv(V) @ y
        assert np.allclose(coefs(fit, names), beta, atol=1e-8)
        assert np.allclose(fit.fitted + fit.residuals, y, atol=1e-12)


def test_ols_residuals_orthogonal_to_design():
    rng = np.random.default_rng(1)
    names, V, y = _random_system(rng)
    fit = ols_fit(names, V, y)
    assert np.allclose(V.T @ fit.residuals, 0.0, atol=1e-9)


def test_ols_drops_collinear_columns():
    rng = np.random.default_rng(2)
    names, V, y = _random_system(rng, p=4)
    V2 = np.hstack([V, V[:, [1]] + V[:, [2]]])
    fit = ols_fit(names + ["dup"], V2, y)
    assert fit.dropped == ["dup"]
    assert fit.coefficients["dup"] == 0.0
    # fitted values are unaffected by the redundant column
    assert np.allclose(fit.fitted, ols_fit(names, V, y).fitted, atol=1e-9)


def test_ols_drops_later_indicator_not_earlier():
    # intercept + two exhaustive indicators: the later one must go
    V = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0],
                  [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    fit = ols_fit(["int", "a", "b"], V, np.array([1.0, 2.0, 1.0, 2.0]))
    assert fit.dropped == ["b"]
    assert np.allclose(fit.residuals, 0.0, atol=1e-12)


def test_ols_input_validation():
    with pytest.raises(ValueError):
        ols_fit(["a"], np.ones((3, 1)), np.zeros(2))
    with pytest.raises(ValueError):
        ols_fit(["z"], np.zeros((3, 1)), np.zeros(3))


def test_indicator_ols_matches_dense_ols_on_random_systems():
    """The OLS oracles above, with the non-intercept columns as extras."""
    rng = np.random.default_rng(6)
    for _ in range(20):
        names, V, y = _random_system(rng)
        extra = list(zip(names[1:], V[:, 1:].T))
        fit = indicator_ols([], y, extra)
        assert coefs(fit, ["intercept"] + names[1:]) == \
            pytest.approx(np.linalg.pinv(V) @ y, abs=1e-8)
        assert_same_fit(fit, ols_fit(*dense_design([], extra), y))
    V = np.column_stack([V[:, 1:], V[:, 1] + V[:, 2]])
    extra = list(zip(names[1:] + ["dup"], V.T))
    fit = indicator_ols([], y, extra)
    assert fit.dropped == ["dup"]
    assert_same_fit(fit, ols_fit(*dense_design([], extra), y))


def test_indicator_ols_matches_dense_ols_on_factors():
    """Two crossed factors with unseen levels and labels out of order, and a
    0/1 column: each factor's last level in label order, and a column equal
    to a level, are the collinear ones."""
    rng = np.random.default_rng(7)
    labels = ["d", "b", "a", "c", "e"]
    for _ in range(20):
        n = int(rng.integers(30, 200))
        a = rng.choice([0, 1, 3, 4], size=n)
        b = rng.integers(0, 3, size=n)
        factors = [("a_", labels, a), ("b_", labels, b)]
        y = rng.normal(size=n)
        for extra in ([("flag", rng.random(n) < 0.3)], [("dup", a == 4)]):
            fit = indicator_ols(factors, y, extra)
            assert_same_fit(fit, ols_fit(*dense_design(factors, extra), y))
            assert fit.dropped == ["a_e", "b_d"] + (
                ["dup"] if extra[0][0] == "dup" else [])


def test_indicator_ols_input_validation():
    with pytest.raises(ValueError, match="all-zero column"):
        indicator_ols([("f_", ["a"], np.zeros(3, dtype=int))], np.zeros(3),
                      [("z", np.zeros(3))])
    with pytest.raises(ValueError):
        indicator_ols([("f_", ["a"], np.zeros(3, dtype=int))], np.zeros(2))


def _log_likelihood(V, y, beta):
    z = V @ beta
    return float(np.sum(y * z - np.log1p(np.exp(-np.abs(z)))
                        - np.maximum(z, 0.0)))


def test_logistic_beats_grid_oracle():
    """The IRLS optimum must dominate a 0.01-step likelihood grid."""
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = 200
        x = rng.normal(size=n)
        true = rng.uniform(-2, 2)
        y = (rng.random(n) < 1 / (1 + np.exp(-true * x))).astype(float)
        if len(np.unique(y)) < 2:
            continue
        fit = logistic_fit(x[:, None], y)
        assert fit.converged
        grid = np.arange(-5.0, 5.0, 0.01)
        best = max(_log_likelihood(x[:, None], y, np.array([b]))
                   for b in grid)
        assert _log_likelihood(x[:, None], y, fit.coefficients) >= best - 1e-9


def test_logistic_recovers_coefficients():
    rng = np.random.default_rng(4)
    n = 20000
    V = np.column_stack([np.ones(n), rng.normal(size=n)])
    true = np.array([-0.5, 1.25])
    y = (rng.random(n) < 1 / (1 + np.exp(-(V @ true)))).astype(float)
    fit = logistic_fit(V, y)
    assert fit.converged
    assert np.allclose(fit.coefficients, true, atol=0.1)


def test_logistic_flags_separation():
    x = np.linspace(-1, 1, 40)
    y = (x > 0).astype(float)
    V = np.column_stack([np.ones(40), x])
    fit = logistic_fit(V, y)
    assert fit.separated
    assert not fit.converged


def test_logistic_rejects_degenerate_response():
    V = np.ones((5, 1))
    for y in (np.zeros(5), np.ones(5)):
        with pytest.raises(ValueError, match="single-class response"):
            logistic_fit(V, y)
    for bad in (0.5, 2.0, np.nan):
        with pytest.raises(ValueError, match="response must be binary"):
            logistic_fit(V, np.array([0.0, bad, 1.0, 0.0, 1.0]))


def test_smoother_matches_naive_double_loop():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-100, 300, size=(60, 2))
    resp = (rng.random(60) < 0.4).astype(float)
    hx, hy = 25.0, 40.0
    surf = SmoothedSurface(pts, resp, (hx, hy))
    queries = rng.uniform(-100, 300, size=(15, 2))
    for qx, qy in queries:
        num = den = 0.0
        for (px, py), r in zip(pts, resp):
            w = np.exp(-0.5 * (((qx - px) / hx) ** 2 + ((qy - py) / hy) ** 2))
            num += w * r
            den += w
        assert abs(surf.evaluate(qx, qy)[0] - num / den) < 1e-10


def test_smoother_chunks_match_naive_double_loop(monkeypatch):
    rng = np.random.default_rng(8)
    pts = rng.uniform(-100, 300, size=(50, 2))
    resp = (rng.random(50) < 0.4).astype(float)
    hx, hy = 25.0, 40.0
    surf = SmoothedSurface(pts, resp, (hx, hy))
    # 7 queries per chunk, so the 40 queries span six chunks
    monkeypatch.setattr(numerics, "EXACT_CHUNK_ELEMENTS", 7 * len(pts))
    queries = rng.uniform(-100, 300, size=(40, 2))
    vals = surf.evaluate(queries[:, 0], queries[:, 1])
    for (qx, qy), v in zip(queries, vals):
        w = [np.exp(-0.5 * (((qx - px) / hx) ** 2 + ((qy - py) / hy) ** 2))
             for px, py in pts]
        assert abs(v - sum(wi * r for wi, r in zip(w, resp)) / sum(w)) < 1e-10


def test_smoother_far_query_falls_back_to_global_rate():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    resp = np.array([1.0, 0.0, 0.0])
    surf = SmoothedSurface(pts, resp, (1.0, 1.0))
    assert surf.evaluate(1e6, 1e6)[0] == pytest.approx(resp.mean())
    far = surf.evaluate_binned([1e6, 1.0], [1e6, 0.5])
    assert far[0] == surf.global_rate
    assert far[1] == pytest.approx(surf.evaluate(1.0, 0.5)[0], abs=1e-3)


def test_binned_smoother_values_are_probabilities():
    rng = np.random.default_rng(9)
    pts = rng.uniform(-100, 300, size=(400, 2))
    resp = (rng.random(400) < 0.7).astype(float)
    surf = SmoothedSurface(pts, resp, (15.0, 20.0))
    q = rng.uniform(-200, 400, size=(300, 2))
    vals = surf.evaluate_binned(q[:, 0], q[:, 1])
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_binned_smoother_too_wide_a_grid_evaluates_exactly():
    rng = np.random.default_rng(10)
    pts = rng.uniform(0, 400, size=(30, 2))
    resp = (rng.random(30) < 0.5).astype(float)
    # step 0.025 ft over a 400 ft spread: far more than MAX_GRID_NODES
    surf = SmoothedSurface(pts, resp, (0.5, 0.5))
    assert np.array_equal(surf.evaluate_binned(pts[:, 0], pts[:, 1]),
                          surf.evaluate(pts[:, 0], pts[:, 1]))


@pytest.mark.parametrize("h", [1e-200, 1e-300])
def test_binned_smoother_tiny_bandwidth_evaluates_exactly(h):
    """A node count too large for an int (or infinite) is compared before
    any cast, so the grid falls back to the exact path; there a query on a
    training point gets that point's response and any other query, whose
    kernel distances overflow, gets the global rate."""
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 400, size=(30, 2))
    resp = (rng.random(30) < 0.5).astype(float)
    surf = SmoothedSurface(pts, resp, (h, h))
    q = np.vstack([pts, pts + 1.0])
    vals = surf.evaluate_binned(q[:, 0], q[:, 1])
    assert np.array_equal(vals, surf.evaluate(q[:, 0], q[:, 1]))
    assert np.array_equal(vals[:30], resp)
    assert np.all(vals[30:] == surf.global_rate)


def _contour_queries():
    gx, gy = np.meshgrid(np.arange(-400.0, 425.0, 25.0),
                         np.arange(0.0, 425.0, 25.0))
    return gx.ravel(), gy.ravel()


def test_binned_smoother_matches_full_grid_oracle(pipeline):
    """Smoothing only the touched nodes gives the full-grid product's
    values within 1e-15 relative: on the contour grid, on random queries
    (dense, and sparse ones that touch few nodes), and beyond the reach,
    where both give the global rate."""
    rng = np.random.default_rng(12)
    session = pipeline.ledger.defense.surface
    pts = rng.uniform([-200, 50], [200, 350], size=(300, 2))
    sparse = SmoothedSurface(pts, (rng.random(300) < 0.6).astype(float),
                             (18.0, 24.0))
    far = (np.array([5e4, -5e4, 0.0]), np.array([0.0, 1e5, -5e4]))
    for surf in (session, sparse):
        dense = rng.uniform([-350, 0], [350, 450], size=(400, 2)).T
        few = rng.uniform([-350, 0], [350, 450], size=(5, 2)).T
        for qx, qy in (_contour_queries(), dense, few, far,
                       np.hstack([few, far])):
            got = surf.evaluate_binned(qx, qy)
            ref = binned_full_grid(surf, qx, qy)
            assert np.all(np.abs(got - ref) <= 1e-15 * ref)
        assert np.all(surf.evaluate_binned(*far) == surf.global_rate)


def test_smoother_validates_bandwidth():
    with pytest.raises(ValueError):
        SmoothedSurface(np.zeros((2, 2)), np.zeros(2), (0.0, 1.0))


@pytest.mark.parametrize("bandwidth", [(np.nan, 30.0), (30.0, np.nan),
                                       (np.inf, 30.0), (30.0, np.inf)])
def test_smoother_rejects_non_finite_bandwidth(bandwidth):
    """A NaN or infinite bandwidth smooths nothing: every query would get
    the global rate."""
    with pytest.raises(ValueError, match="positive and finite"):
        SmoothedSurface(np.zeros((2, 2)), np.zeros(2), bandwidth)


def test_scott_bandwidth_hand_case():
    coords = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]])
    hx, hy = scott_bandwidth(coords)
    assert hx == pytest.approx(3.0 ** (-1.0 / 6.0))
    assert hy == pytest.approx(2.0 * 3.0 ** (-1.0 / 6.0))


def test_quantiles_hand_case():
    vals = [1.0, 2.0, 3.0, 4.0]
    q = empirical_quantiles(vals, [0.0, 0.25, 0.5, 1.0])
    # type-7: h = (n-1)p + 1, linear interpolation between order statistics
    assert list(q) == [1.0, 1.75, 2.5, 4.0]
    with pytest.raises(ValueError):
        empirical_quantiles(vals, [1.5])
    with pytest.raises(ValueError):
        empirical_quantiles([], [0.5])


def test_quantiles_along_axis_match_per_column_loop():
    """One axis-0 call returns, per column, exactly the quantiles of the
    column alone, ties included."""
    rng = np.random.default_rng(8)
    mat = np.round(rng.normal(0.0, 1.0, (301, 17)), 1)
    probs = (0.0, 0.025, 0.25, 0.5, 0.75, 0.975, 1.0)
    loop = np.column_stack([empirical_quantiles(mat[:, j], probs)
                            for j in range(mat.shape[1])])
    assert np.array_equal(empirical_quantiles(mat, probs, axis=0), loop)
    with pytest.raises(ValueError):
        empirical_quantiles(mat, [-0.1], axis=0)
    with pytest.raises(ValueError):
        empirical_quantiles(np.empty((0, 3)), [0.5], axis=0)


def test_rng_contract():
    a = master_rng(7).random(5)
    b = master_rng(7).random(5)
    assert np.array_equal(a, b)
    r0 = replicate_rng(7, 0).random(5)
    r1 = replicate_rng(7, 1).random(5)
    assert np.array_equal(r0, replicate_rng(7, 0).random(5))
    assert not np.array_equal(r0, r1)
    assert not np.array_equal(r0, a)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
       st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8))
@settings(max_examples=50, deadline=None)
def test_quantiles_monotone_in_probability(values, probs):
    probs = sorted(probs)
    q = empirical_quantiles(values, probs)
    assert all(q[i] <= q[i + 1] + 1e-12 for i in range(len(q) - 1))
    assert min(values) <= q[0] + 1e-9 and q[-1] <= max(values) + 1e-9


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_replicate_streams_reproducible(seed):
    a = replicate_rng(seed, 3).integers(0, 1000, 4)
    b = replicate_rng(seed, 3).integers(0, 1000, 4)
    assert np.array_equal(a, b)
