"""End-to-end acceptance criteria.

One test per criterion; each checks the stated property at its stated
tolerance on a fixed 50-game synthetic season and emits a single
PASS line (pytest -v shows the same verdict per criterion).
"""

import time
import warnings

import numpy as np
import pytest

from openwar.cli import EXIT_OK, main
from openwar.events import parse_season, serialize_season
from openwar.numerics import SmoothedSurface, indicator_ols, logistic_fit
from openwar.pipeline import build_ledger
from openwar.run_expectancy import estimate_matrix, run_value
from openwar.uncertainty import bootstrap_war
from openwar.valuation import runs_per_win, value_players
from openwar.simulate import generate_synthetic_season

from fixtures import (
    build_re_fixture,
    coefs,
    conservation_residuals,
    credit_table,
    exact_smoother,
    half_innings,
    ols_fit,
    pythag_wpct,
    records,
)

GAMES = 50
SEED = 17


@pytest.fixture(scope="module")
def acc():
    """Fixed synthetic season, its ledger, and the pipeline wall time."""
    data = generate_synthetic_season(GAMES, SEED)
    start = time.perf_counter()
    ledger = build_ledger(data)
    elapsed = time.perf_counter() - start
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        valuation = value_players(ledger.credits, data.roster,
                                  cutoff_pos=36, cutoff_pitch=12)
    return {"data": data, "ledger": ledger, "elapsed": elapsed,
            "valuation": valuation}


def _ok(n, msg):
    print(f"criterion {n}: PASS - {msg}")


def test_criterion_01_conservation_of_runs(acc):
    ledger = acc["ledger"]
    deltas = ledger.deltas
    scale = float(np.sum(np.abs(deltas)))
    total = float(np.sum(ledger.credits.value))
    assert abs(total) <= 1e-8 * scale

    offense, defense = conservation_residuals(ledger)
    assert np.max(np.abs(offense)) < 1e-10
    assert np.max(np.abs(defense)) < 1e-10

    assert acc["elapsed"] < 30.0
    _ok(1, f"sum RAA = {total:.3e} on scale {scale:.1f}; per-PA identities "
           f"< 1e-10; pipeline {acc['elapsed']:.2f}s")


def test_criterion_02_half_inning_telescoping(acc):
    data, ledger = acc["data"], acc["ledger"]
    rho00 = ledger.matrix.rho[(0, 0)]
    worst = 0.0
    for group in half_innings(data):
        if data.end_outs[group[-1]] != 3:
            continue
        total = sum(run_value(data.record(i), ledger.matrix) for i in group)
        runs = int(data.runs_scored[group].sum())
        worst = max(worst, abs(total - (runs - rho00)))
    assert worst < 1e-10
    _ok(2, f"max telescoping error {worst:.3e} over all half-innings")


def test_criterion_03_regression_core_oracles():
    rng = np.random.default_rng(100)
    # OLS vs the pseudo-inverse on 100 random systems
    for _ in range(100):
        n = int(rng.integers(20, 60))
        p = int(rng.integers(2, 8))
        V = rng.normal(size=(n, p))
        V[:, 0] = 1.0
        y = rng.normal(size=n)
        names = [f"c{j}" for j in range(p)]
        fit = ols_fit(names, V, y)
        ref = np.linalg.pinv(V) @ y
        assert np.max(np.abs(coefs(fit, names) - ref)) < 1e-8
        # the pipeline's count-based fit, with the columns after the
        # intercept as extras, agrees with the dense one
        counted = indicator_ols([], y, list(zip(names[1:], V[:, 1:].T)))
        assert np.max(np.abs(coefs(counted, ["intercept"] + names[1:])
                             - coefs(fit, names))) < 1e-10

    # logistic IRLS dominates a 0.01-step likelihood grid on 10 problems
    def ll(v, y, b):
        z = v * b
        return float(np.sum(y * z - np.maximum(z, 0.0)
                            - np.log1p(np.exp(-np.abs(z)))))

    done = 0
    while done < 10:
        n = 150
        x = rng.normal(size=n)
        beta = rng.uniform(-2, 2)
        y = (rng.random(n) < 1 / (1 + np.exp(-beta * x))).astype(float)
        if len(np.unique(y)) < 2:
            continue
        fit = logistic_fit(x[:, None], y)
        if fit.separated:
            continue
        best_grid = max(ll(x, y, b) for b in np.arange(-5.0, 5.0, 0.01))
        assert ll(x, y, fit.coefficients[0]) >= best_grid - 1e-9
        done += 1

    # smoother vs a naive double loop: the exact oracle to 1e-10, the
    # binned smoother the pipeline uses to its binning error
    pts = rng.uniform(-200, 350, size=(80, 2))
    resp = (rng.random(80) < 0.5).astype(float)
    surf = SmoothedSurface(pts, resp, (35.0, 50.0))
    queries = rng.uniform(-200, 350, size=(20, 2))
    binned = surf.evaluate_binned(queries[:, 0], queries[:, 1])
    for (qx, qy), approx in zip(queries, binned):
        num = den = 0.0
        for (px, py), r in zip(pts, resp):
            w = np.exp(-0.5 * (((qx - px) / 35.0) ** 2
                               + ((qy - py) / 50.0) ** 2))
            num, den = num + w * r, den + w
        assert abs(exact_smoother(surf, qx, qy)[0] - num / den) < 1e-10
        assert abs(approx - num / den) <= 1e-3
    _ok(3, "OLS (100 systems), logistic grid oracle (10), smoother oracle")


def test_criterion_04_run_expectancy_oracle():
    data, expected_rho, _ = build_re_fixture()
    matrix = estimate_matrix(data)
    assert np.array_equal(matrix.rho, expected_rho)  # exact, no tolerance
    assert not matrix.rho[3].any()
    _ok(4, "hand-computed 24-state matrix reproduced exactly; rho(3,.) = 0")


def test_criterion_05_share_normalization(acc):
    dfn = acc["ledger"].defense
    assert dfn.shares.shape == (len(dfn.bip_indices), 9)
    assert np.all((dfn.shares >= 0.0) & (dfn.shares <= 1.0))
    worst = float(np.max(np.abs(dfn.shares.sum(axis=1) - 1.0)))
    assert worst < 1e-12
    data, bip = acc["data"], dfn.bip_indices
    p_hat = np.zeros(len(data))
    p_hat[bip] = dfn.surface.evaluate_binned(data.bip_x[bip], data.bip_y[bip])
    assert np.all((p_hat >= 0.0) & (p_hat <= 1.0))
    _ok(5, f"max |sum shares - 1| = {worst:.3e} over "
           f"{len(dfn.bip_indices)} balls in play")


def test_criterion_06_replacement_semantics(acc):
    # uniform per-event rates: every player's WAR is exactly zero
    rates = {"hit": -0.015, "br": 0.004, "field": 0.007, "pitch": -0.009}
    uniform = [[(f"pos{k}", comp, rates[comp])]
               for k in range(12) for comp in ("hit", "br")
               for _ in range(20 + k)]
    uniform += [[(f"pit{k}", comp, rates[comp])]
                for k in range(6) for comp in ("field", "pitch")
                for _ in range(50 + k)]

    roster = {f"pos{k}": "x" for k in range(12)}
    roster.update({f"pit{k}": "x" for k in range(6)})
    val = value_players(credit_table(uniform), roster, cutoff_pos=0,
                        cutoff_pitch=0)
    assert np.max(np.abs(val.war)) < 1e-9

    # a larger replacement tier weakly lowers total WAR on the fixed season
    totals = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for cp, cpit in [(36, 12), (27, 9), (18, 6), (9, 3), (0, 0)]:
            val = value_players(acc["ledger"].credits, acc["data"].roster,
                                cutoff_pos=cp, cutoff_pitch=cpit)
            totals.append(val.war.sum())
    assert all(a >= b - 1e-9 for a, b in zip(totals, totals[1:]))
    _ok(6, f"uniform league WAR = 0; total WAR over growing tiers "
           f"{[round(t, 2) for t in totals]} is weakly decreasing")


def test_criterion_07_pythagorean_checks():
    assert runs_per_win(2.0, 810.0) == 10.0  # exact
    assert abs(runs_per_win(1.83, 714.0) - 2 * 714 / (81 * 1.83)) < 1e-6

    rng = np.random.default_rng(200)
    for _ in range(10):
        rs, ra = rng.uniform(550, 950, 2)
        p = rng.uniform(1.8, 2.0)
        _, (drs, dra) = pythag_wpct(rs, ra, p)
        h = 1e-3
        num_rs = (pythag_wpct(rs + h, ra, p)[0]
                  - pythag_wpct(rs - h, ra, p)[0]) / (2 * h)
        num_ra = (pythag_wpct(rs, ra + h, p)[0]
                  - pythag_wpct(rs, ra - h, p)[0]) / (2 * h)
        assert abs(drs - num_rs) <= 1e-6 * abs(num_rs)
        assert abs(dra - num_ra) <= 1e-6 * abs(num_ra)

    # sweep the run environment with its matching exponent: higher-scoring
    # eras fit a higher p, so p and r move together
    ts = np.linspace(0.0, 1.0, 51)
    swept = [runs_per_win(1.8 + 0.2 * t, 700.0 + 100.0 * t) for t in ts]
    assert min(swept) >= 9.4 and max(swept) <= 11.0
    _ok(7, f"rpw(2,810)=10; gradient fd-checked; sweep range "
           f"[{min(swept):.3f}, {max(swept):.3f}] within [9.4, 11.0]")


def test_criterion_08_bootstrap_determinism_and_calibration(acc):
    cfg = 500, 5
    start = time.perf_counter()
    d1 = bootstrap_war(acc["ledger"].credits, acc["valuation"], *cfg)
    elapsed = time.perf_counter() - start
    d2 = bootstrap_war(acc["ledger"].credits, acc["valuation"], *cfg)
    assert d1.quantile_csv().encode() == d2.quantile_csv().encode()
    assert np.all(np.diff(d1.quantiles, axis=1) >= -1e-12)
    assert elapsed < 60.0

    # analytic calibration: one player, iid single-credit plate appearances
    values = np.random.default_rng(300).normal(0.0, 0.12, 400)
    credits = credit_table([[("a", "hit", float(v))] for v in values])
    # a one-player league whose cutoff keeps the player: zero rates
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val = value_players(credits, {"a": "A"}, cutoff_pos=1,
                            cutoff_pitch=0, rpw=1.0)
    dist = bootstrap_war(credits, val, 500, 6)
    analytic = float(np.sqrt(len(values) * np.var(values)))
    observed = float(dist.replicates[:, 0].std())
    assert abs(observed - analytic) / analytic < 0.15
    _ok(8, f"byte-identical quantiles; 500 reps in {elapsed:.2f}s; "
           f"bootstrap SD {observed:.3f} vs analytic {analytic:.3f}")


def test_criterion_09_data_round_trip(acc):
    data = acc["data"]
    text = serialize_season(data)
    parsed, report = parse_season(text, "strict")
    assert report.dropped == 0 and report.warnings == []
    assert records(parsed) == records(data)
    assert serialize_season(parsed) == text
    _ok(9, f"parse(serialize(D)) identity on {len(data)} records")


def test_criterion_10_end_to_end_determinism(tmp_path):
    season = tmp_path / "season.csv"
    assert main(["simulate", "--games", str(GAMES), "--seed", str(SEED),
                 "--out", str(season)]) == EXIT_OK
    out = tmp_path / "war"
    args = ["war", "--input", str(season), "--out", str(out),
            "--cutoff-pos", "36", "--cutoff-pitch", "12"]
    assert main(args) == EXIT_OK
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(args) == EXIT_OK
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second
    assert set(first) == {"valuation.csv", "valuation.json",
                          "run_expectancy.csv", "fielding_surface.csv",
                          "fielding_models.csv"}
    _ok(10, f"cmd_war byte-identical across runs ({len(first)} artifacts)")
