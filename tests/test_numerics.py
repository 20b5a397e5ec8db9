"""Oracle tests for the estimation primitives.

Each fit routine is checked against an independent implementation: OLS
against the pseudo-inverse, the logistic solver against a brute-force
likelihood grid, the smoother against a naive double loop, the
bootstrap's quantiles against the type-7 definition.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openwar import numerics, uncertainty
from openwar.numerics import (
    BIN_STEP,
    MAX_GRID_NODES,
    MAX_STEP_RATIO,
    BandwidthError,
    SmoothedSurface,
    indicator_ols,
    logistic_fit,
    master_rng,
    replicate_rng,
    scott_bandwidth,
)

from openwar.defense import _fielding_design
from openwar.events import _IN_PLAY, FIELDING_POSITIONS
from openwar.uncertainty import DEFAULT_PROBS, bootstrap_war

from fixtures import (
    assert_same_fit,
    binned_full_grid,
    coefs,
    credit_table,
    dense_design,
    exact_smoother,
    logistic_reference,
    ols_fit,
    sigmoid_reference,
    type7_quantiles,
    valued,
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


def _fielding_responses(season):
    """The (k, 6) fielding design of the season's balls in play, and the
    response of each of the nine positions over it."""
    bip = np.flatnonzero(_IN_PLAY[season.event])
    design = _fielding_design(np.column_stack([season.bip_x[bip],
                                               season.bip_y[bip]]))
    return design, [(season.credited[bip] == j).astype(float)
                    for j in range(len(FIELDING_POSITIONS))]


def test_sigmoid_keeps_the_masked_reference_bytes():
    """The mask-free sigmoid gives the bytes of the two masked branches on
    normal draws across scales, signed zeros, large magnitudes and
    infinities."""
    rng = np.random.default_rng(0)
    z = np.concatenate(
        [rng.standard_normal(250_000) * scale for scale in (1, 10, 100, 1000)]
        + [[0.0, -0.0, 800.0, -800.0, np.inf, -np.inf]])
    assert numerics._sigmoid(z).tobytes() == sigmoid_reference(z).tobytes()


def test_newton_steps_keep_the_reference_iterates(season):
    """Each Newton step forms its score once, and the nine fielding fits
    of the session season keep the reference loop's coefficient bytes,
    step counts and flags."""
    design, responses = _fielding_responses(season)
    for y in responses:
        fit, ref = logistic_fit(design, y), logistic_reference(design, y)
        assert fit.coefficients.tobytes() == ref.coefficients.tobytes()
        assert (fit.iterations, fit.converged, fit.separated) == \
            (ref.iterations, ref.converged, ref.separated)


def test_newton_steps_skip_a_collinear_column(season):
    """A design column that is the sum of two others is dropped from the
    steps, its coefficient pinned at 0, with the reference loop's step
    counts and flags and its coefficients to 1e-12 relative."""
    design, responses = _fielding_responses(season)
    V = np.column_stack([design, design[:, 1] + design[:, 2]])
    for y in responses:
        fit, ref = logistic_fit(V, y), logistic_reference(V, y)
        assert fit.coefficients[-1] == ref.coefficients[-1] == 0.0
        assert (fit.iterations, fit.converged, fit.separated) == \
            (ref.iterations, ref.converged, ref.separated)
        np.testing.assert_allclose(fit.coefficients, ref.coefficients,
                                   rtol=1e-12, atol=0)


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
        assert abs(exact_smoother(surf, qx, qy)[0] - num / den) < 1e-10


def test_smoother_chunks_match_naive_double_loop():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-100, 300, size=(50, 2))
    resp = (rng.random(50) < 0.4).astype(float)
    hx, hy = 25.0, 40.0
    surf = SmoothedSurface(pts, resp, (hx, hy))
    # 7 queries per chunk, so the 40 queries span six chunks
    queries = rng.uniform(-100, 300, size=(40, 2))
    vals = exact_smoother(surf, queries[:, 0], queries[:, 1],
                          chunk_elements=7 * len(pts))
    for (qx, qy), v in zip(queries, vals):
        w = [np.exp(-0.5 * (((qx - px) / hx) ** 2 + ((qy - py) / hy) ** 2))
             for px, py in pts]
        assert abs(v - sum(wi * r for wi, r in zip(w, resp)) / sum(w)) < 1e-10


def test_smoother_far_query_falls_back_to_global_rate():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    resp = np.array([1.0, 0.0, 0.0])
    surf = SmoothedSurface(pts, resp, (1.0, 1.0))
    assert exact_smoother(surf, 1e6, 1e6)[0] == pytest.approx(resp.mean())
    far = surf.evaluate_binned([1e6, 1.0], [1e6, 0.5])
    assert far[0] == surf.global_rate
    assert far[1] == pytest.approx(exact_smoother(surf, 1.0, 0.5)[0],
                                   abs=1e-3)


def test_binned_smoother_values_are_probabilities():
    rng = np.random.default_rng(9)
    pts = rng.uniform(-100, 300, size=(400, 2))
    resp = (rng.random(400) < 0.7).astype(float)
    surf = SmoothedSurface(pts, resp, (15.0, 20.0))
    q = rng.uniform(-200, 400, size=(300, 2))
    vals = surf.evaluate_binned(q[:, 0], q[:, 1])
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_binned_smoother_too_wide_a_grid_is_rejected():
    """A bandwidth whose grid, even at the capped step, would be coarser
    than MAX_STEP_RATIO bandwidths is rejected, naming each axis, the
    bandwidth given and the smallest the grid takes."""
    rng = np.random.default_rng(10)
    pts = rng.uniform(0, 400, size=(30, 2))
    resp = (rng.random(30) < 0.5).astype(float)
    # 0.5 ft over a spread of about 340 ft: a step of 0.33 bandwidths
    surf = SmoothedSurface(pts, resp, (0.5, 0.5))
    span = pts.max(axis=0) - pts.min(axis=0)
    least = np.ceil(span / ((MAX_GRID_NODES - 2) * MAX_STEP_RATIO) * 100) / 100
    with pytest.raises(BandwidthError) as err:
        surf.evaluate_binned(pts[:, 0], pts[:, 1])
    assert str(err.value) == "; ".join(
        f"{axis} bandwidth 0.5 ft is too small for the smoother's grid "
        f"over {s:.1f} ft, which takes {a:g} ft or more"
        for axis, s, a in zip("xy", span, least))
    assert isinstance(err.value, ValueError)


@pytest.mark.parametrize("h", [1e-200, 1e-300])
def test_binned_smoother_tiny_bandwidth_is_rejected(h):
    """A node count too large for an int is compared before any cast, so
    a tiny bandwidth is rejected with no overflow, and no invalid cast."""
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 400, size=(30, 2))
    resp = (rng.random(30) < 0.5).astype(float)
    surf = SmoothedSurface(pts, resp, (h, h))
    q = np.vstack([pts, pts + 1.0])
    with pytest.raises(BandwidthError, match=f"x bandwidth {h!r} ft is too "
                                             "small.*; y bandwidth"):
        surf.evaluate_binned(q[:, 0], q[:, 1])


def test_binned_smoother_at_the_largest_step_ratio(pipeline, monkeypatch):
    """At the coarsest step the grid accepts, MAX_STEP_RATIO = 0.1
    bandwidths on each axis, the binned estimate stays within 2.5e-3 of
    the exact one at every ball in play.  The bound is Wand's (1994)
    linear-interpolation error of the Gaussian kernel, r^2 max|K''| / 8 =
    1.25e-3 of its peak at r = 0.1, once for the binning and once for the
    reading at the query."""
    surface = pipeline.ledger.defense.surface
    pts = surface.points
    span = pts.max(axis=0) - pts.min(axis=0)
    h = span / ((MAX_GRID_NODES - 2) * MAX_STEP_RATIO) * (1 + 1e-9)
    surf = SmoothedSurface(pts, surface.response, tuple(h))
    shapes = []
    kernel = numerics._binned_kernel
    monkeypatch.setattr(numerics, "_binned_kernel",
                        lambda *a: shapes.append(a[1:]) or kernel(*a))
    got = surf.evaluate_binned(pts[:, 0], pts[:, 1])
    # both axes at the cap, a step of just under 0.1 bandwidths
    assert all(MAX_GRID_NODES - 1 <= m <= MAX_GRID_NODES for m, _ in shapes)
    assert all(MAX_STEP_RATIO * (1 - 1e-6) < r <= MAX_STEP_RATIO
               for _, r in shapes)
    ref = exact_smoother(surf, pts[:, 0], pts[:, 1])
    assert np.max(np.abs(got - ref)) <= 2.5e-3


def test_binned_kernels_stay_within_the_node_cap(monkeypatch):
    """Every kernel the binned smoother builds has at most MAX_GRID_NODES
    columns, from a wide bandwidth down to the smallest the grid takes.  A
    grid whose last node fits at the step BIN_STEP * h keeps that step."""
    rng = np.random.default_rng(13)
    pts = rng.uniform([-200, 50], [200, 350], size=(300, 2))
    resp = (rng.random(300) < 0.6).astype(float)
    q = rng.uniform(pts.min(axis=0), pts.max(axis=0), size=(200, 2))
    span = pts.max(axis=0) - pts.min(axis=0)
    # MAX_GRID_NODES - 1.5 steps of BIN_STEP * h: the last node that fits
    edge = span / (BIN_STEP * (MAX_GRID_NODES - 1.5))
    least = span / ((MAX_GRID_NODES - 2) * MAX_STEP_RATIO) * (1 + 1e-9)
    shapes = []
    kernel = numerics._binned_kernel
    monkeypatch.setattr(numerics, "_binned_kernel",
                        lambda *a: shapes.append((*a[1:], len(a[0])))
                        or kernel(*a))
    for h in (span / 10, edge, edge * (1 - 1e-3), (edge + least) / 2, least):
        SmoothedSurface(pts, resp, tuple(h)).evaluate_binned(q[:, 0], q[:, 1])
    assert len(shapes) == 10
    assert all(rows <= m <= MAX_GRID_NODES for m, _, rows in shapes)
    assert [(m, r) for m, r, _ in shapes[2:4]] == [(MAX_GRID_NODES,
                                                    BIN_STEP)] * 2
    assert all(r > BIN_STEP for _, r, _ in shapes[4:])


def _contour_queries():
    gx, gy = np.meshgrid(np.arange(-400.0, 425.0, 25.0),
                         np.arange(0.0, 425.0, 25.0))
    return gx.ravel(), gy.ravel()


def test_binned_smoother_matches_full_grid_oracle(pipeline):
    """Smoothing only the touched nodes gives the full-grid product's
    values within 1e-15 relative: on the contour grid, on random queries
    (dense, and sparse ones that touch few nodes), and beyond the reach,
    where both give the global rate.  The capped surface, 300 points over
    400 ft at 2 ft, puts more than MAX_GRID_NODES nodes of step BIN_STEP *
    h on each axis, so both take the capped step; its queries stay inside
    its points' box, where that step is accepted."""
    rng = np.random.default_rng(12)
    session = pipeline.ledger.defense.surface
    pts = rng.uniform([-200, 50], [200, 350], size=(300, 2))
    sparse = SmoothedSurface(pts, (rng.random(300) < 0.6).astype(float),
                             (18.0, 24.0))
    capped = SmoothedSurface(pts, sparse.response, (2.0, 2.0))
    far = (np.array([5e4, -5e4, 0.0]), np.array([0.0, 1e5, -5e4]))
    gx, gy = _contour_queries()
    inside = (np.abs(gx) <= 200) & (gy >= 50) & (gy <= 350)
    for surf, box, contour in (
            (session, ([-350, 0], [350, 450]), (gx, gy)),
            (sparse, ([-350, 0], [350, 450]), (gx, gy)),
            (capped, ([-200, 50], [200, 350]), (gx[inside], gy[inside]))):
        dense = rng.uniform(*box, size=(400, 2)).T
        few = rng.uniform(*box, size=(5, 2)).T
        for qx, qy in (contour, dense, few, far, np.hstack([few, far])):
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


def test_quantiles_hand_case(monkeypatch):
    """`bootstrap_war`'s quantiles are type 7: h = (n − 1)p, linear
    interpolation between order statistics.  Replicate `rep` draws plate
    appearance 0, the one with a credit (1 run), rep + 1 times of 4, so
    the replicates are 1, 2, 3 and 4."""
    def draws(seed, rep):
        return SimpleNamespace(integers=lambda low, high, size: np.where(
            np.arange(size) <= rep, 0, high - 1))

    monkeypatch.setattr(uncertainty, "replicate_rng", draws)
    credits = credit_table([[("a", "hit", 1.0)], [], [], []])
    dist = bootstrap_war(credits, valued(credits), 4, 0)
    assert dist.replicates[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0]
    assert DEFAULT_PROBS == (0.0, 0.025, 0.25, 0.5, 0.75, 0.975, 1.0)
    assert dist.quantiles[0].tolist() == [1.0, 1.075, 1.75, 2.5, 3.25,
                                          3.925, 4.0]
    assert np.array_equal(dist.quantiles[0],
                          type7_quantiles([1.0, 2.0, 3.0, 4.0], DEFAULT_PROBS))
    with pytest.raises(ValueError):
        bootstrap_war(credits, valued(credits), 0, 0)


def test_quantiles_along_axis_match_per_column_loop(monkeypatch):
    """Quantiles taken along axis 0 of blocks of 5 player columns, the last
    block short, are exactly the type-7 quantiles of each column alone,
    ties included: 301 replicates of 17 players whose credits are
    multiples of 1/2."""
    rng = np.random.default_rng(8)
    players = rng.integers(0, 17, 170).tolist()
    values = (np.round(rng.normal(0.0, 1.0, 170) * 2) / 2).tolist()
    credits = credit_table([[(f"p{k:02d}", "hit", v)]
                            for k, v in zip(players, values)])
    monkeypatch.setattr(uncertainty, "QUANTILE_BLOCK_ELEMENTS", 301 * 5)
    dist = bootstrap_war(credits, valued(credits), 301, 8)
    assert dist.quantiles.shape == (17, len(DEFAULT_PROBS))
    loop = np.vstack([type7_quantiles(column, DEFAULT_PROBS)
                      for column in dist.replicates.T])
    assert np.array_equal(dist.quantiles, loop)


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
       st.integers(1, 9), st.integers(0, 2 ** 16))
@settings(max_examples=50, deadline=None)
def test_quantiles_monotone_in_probability(values, replicates, seed):
    """Drawn plate appearances of one player: the quantiles rise with the
    probability, lie within the replicates, and are the type-7 ones."""
    credits = credit_table([[("a", "hit", v)] for v in values])
    dist = bootstrap_war(credits, valued(credits), replicates, seed)
    q, column = dist.quantiles[0], dist.replicates[:, 0]
    assert all(q[i] <= q[i + 1] + 1e-12 for i in range(len(q) - 1))
    assert column.min() <= q[0] + 1e-9 and q[-1] <= column.max() + 1e-9
    ref = type7_quantiles(column, DEFAULT_PROBS)
    assert np.max(np.abs(q - ref)) <= 1e-12 * (1.0 + np.abs(column).max())


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_replicate_streams_reproducible(seed):
    a = replicate_rng(seed, 3).integers(0, 1000, 4)
    b = replicate_rng(seed, 3).integers(0, 1000, 4)
    assert np.array_equal(a, b)
