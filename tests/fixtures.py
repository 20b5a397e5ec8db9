"""Hand-built play-by-play fixtures shared across test modules."""

import importlib
import math
import pkgutil

import numpy as np

import openwar

from openwar.events import BALL_IN_PLAY, EVENT_TYPES, SeasonDataset
from openwar.numerics import (
    BIN_STEP,
    IRLS_TOL,
    MAX_GRID_NODES,
    MAX_IRLS_ITER,
    MIN_KERNEL_WEIGHT,
    SEPARATION_NORM,
    LinearFit,
    LogisticFit,
    _independent_columns,
    replicate_rng,
)
from openwar.offense import _MIN_RANK
from openwar.valuation import COMPONENTS, CreditTable, Valuation, tabulate_raa

FIELDERS = tuple(f"D{i}" for i in range(1, 10))


def make_pa(game_id, pa_index, inning, half, outs, bases, event, batter_dest,
            runner_dests=None, batter_id="B1", pitcher_id="P1", park="PK",
            batter_hand="R", pitcher_hand="R", position="CF", bip=None,
            credited=None):
    """Build a valid record as the dict of its CSV fields that
    `SeasonDataset.record` returns; the end state follows from the
    destination codes."""
    runner_dests = runner_dests or {}
    on = [bases >> (b - 1) & 1 for b in (1, 2, 3)]
    dests = [runner_dests.get(b, "") if on[b - 1] else "" for b in (1, 2, 3)]
    end_bases = 0
    for d in dests + [batter_dest]:
        if d in ("1B", "2B", "3B"):
            end_bases |= 1 << (int(d[0]) - 1)
    end_outs = outs + (batter_dest == "O") + dests.count("O")
    if bip is None and BALL_IN_PLAY[event]:
        bip = (30.0, 150.0)
    return {
        "game_id": game_id, "pa_index": pa_index, "inning": inning,
        "half": half, "batter_id": batter_id, "pitcher_id": pitcher_id,
        "start_outs": outs, "start_bases": bases, "end_outs": end_outs,
        "end_bases": end_bases if end_outs < 3 else 0,
        **{f"runner{b}_id": f"R{b}" if on[b - 1] else "" for b in (1, 2, 3)},
        **{f"runner{b}_dest": dests[b - 1] for b in (1, 2, 3)},
        "batter_dest": batter_dest,
        "runs_scored": (batter_dest == "H") + dests.count("H"),
        "event_type": event, "ballpark_id": park, "batter_hand": batter_hand,
        "pitcher_hand": pitcher_hand, "batter_position": position,
        **{f"f{j}": pid for j, pid in enumerate(FIELDERS, 1)},
        "bip_x": bip[0] if bip else "", "bip_y": bip[1] if bip else "",
        "credited_fielder_position": credited or "",
    }


def credit_table(bundles, game_starts=()):
    """The CreditTable of `bundles`: one list of (player_id, component,
    raa) credits per plate appearance, with games starting at the plate
    appearances `game_starts`."""
    rows = [(i, pid, COMPONENTS.index(comp), raa)
            for i, bundle in enumerate(bundles) for pid, comp, raa in bundle]
    pa, ids, component, value = zip(*rows)
    players = sorted(set(ids))
    return CreditTable.build(
        n_pas=len(bundles), pa=pa, player=[players.index(p) for p in ids],
        player_ids=players, component=component, value=value,
        game_starts=game_starts)


def valued(credits, rates=(0.0,) * len(COMPONENTS), rpw=1.0):
    """The Valuation of `credits` at the given replacement rates and runs
    per win, with no player in the replacement tier."""
    raa, counts = tabulate_raa(credits)
    return Valuation(player_ids=credits.player_ids, raa=raa,
                     counts=counts, replacement=np.zeros(len(raa), bool),
                     rates=np.array(rates, dtype=float), rpw=rpw)


def dense_design(factors, extra=()):
    """The dense design `indicator_ols` fits without building, as its
    column names and (n, p) values: intercept, one indicator column per
    level present in each factor (levels in label order), then the `extra`
    (name, values) columns."""
    n = len(factors[0][2]) if factors else len(extra[0][1])
    names, columns = ["intercept"], [np.ones(n)]
    for prefix, labels, codes in factors:
        codes = np.asarray(codes)
        for level in sorted(set(codes.tolist()), key=labels.__getitem__):
            names.append(f"{prefix}{labels[level]}")
            columns.append((codes == level).astype(float))
    for name, values in extra:
        names.append(name)
        columns.append(np.asarray(values, dtype=float))
    return names, np.column_stack(columns)


def ols_fit(names, V, y):
    """Least squares on the dense (n, p) design `V`, whose columns are
    named `names`: the reference of `numerics.indicator_ols`, under the
    same rank rule.

    Collinear columns are dropped in reverse index preference (later
    columns go) and their coefficients are pinned at 0, so V @ beta is
    always well defined over the full named design."""
    V = np.asarray(V, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(y) == 0:
        raise ValueError("empty design")
    if len(V) != len(y):
        raise ValueError("design and response lengths differ")
    if np.any(np.all(V == 0.0, axis=0)):
        raise ValueError("design contains an all-zero column")

    keep = _independent_columns(V.T @ V, len(y))
    beta = np.zeros(len(names))
    beta[keep] = np.linalg.lstsq(V[:, keep], y, rcond=None)[0]
    fitted = V @ beta
    dropped = [name for j, name in enumerate(names) if j not in keep]
    return LinearFit(dict(zip(names, beta)), y - fitted, fitted, dropped)


def sigmoid_reference(z):
    """The logistic function of `z`, clipped to [1e-12, 1 - 1e-12], in two
    masked assignments: 1 / (1 + exp(-z)) where z >= 0, exp(z) / (1 +
    exp(z)) elsewhere.  The reference `numerics._sigmoid` is held to byte
    for byte."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, 1e-12, 1.0 - 1e-12)


def logistic_reference(V, y):
    """`numerics.logistic_fit` on a binary response `y`, as a Newton loop
    that takes the kept columns of the design `V` and forms the score
    afresh at each use: the score over every column for the stopping
    test, and over the kept ones for the step.  The reference the
    solver's iterates, step counts and flags are held to."""
    y = np.asarray(y, dtype=float)
    V = np.asarray(V, dtype=float)
    n, p = V.shape
    scales = V.std(axis=0)
    scales[scales == 0.0] = 1.0
    keep = _independent_columns(V.T @ V, n)
    beta = np.zeros(p)
    converged = separated = False
    it = 0
    for it in range(1, MAX_IRLS_ITER + 1):
        mu = sigmoid_reference(V @ beta)
        w = mu * (1.0 - mu)
        score = V.T @ (y - mu)
        if np.linalg.norm(score[keep]) < IRLS_TOL * n:
            converged = True
            break
        Vk = V[:, keep]
        H = Vk.T @ (Vk * w[:, None])
        try:
            step = np.linalg.solve(H, (Vk.T @ (y - mu)))
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(H, Vk.T @ (y - mu), rcond=None)
        beta[keep] += step
        if np.linalg.norm(beta * scales) > SEPARATION_NORM:
            separated = True
            break
    return LogisticFit(coefficients=beta, converged=converged,
                       iterations=it, separated=separated)


def exact_smoother(surface, x, y, chunk_elements=1 << 20):
    """The Nadaraya-Watson estimate of a `SmoothedSurface` at the queries
    (x, y) from exact kernel sums against every training point, in query
    chunks of at most `chunk_elements` kernel weights: the oracle the
    binned smoother approximates.  A query whose total weight falls below
    MIN_KERNEL_WEIGHT gets the global rate."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    hx, hy = surface.bandwidth
    points = surface.points
    out = np.full(x.shape[0], surface.global_rate)
    chunk = max(1, chunk_elements // len(points))
    for start in range(0, x.shape[0], chunk):
        part = slice(start, start + chunk)
        # a distance of many bandwidths may overflow to inf: its weight is
        # then exp(-inf) = 0, its limit
        with np.errstate(over="ignore"):
            dx = (x[part, None] - points[None, :, 0]) / hx
            dy = (y[part, None] - points[None, :, 1]) / hy
            w = np.exp(-0.5 * (dx * dx + dy * dy))
        total = w.sum(axis=1)
        ok = total >= MIN_KERNEL_WEIGHT
        out[part][ok] = (w[ok] @ surface.response) / total[ok]
    return out


def binned_full_grid(surface, x, y):
    """`SmoothedSurface.evaluate_binned` by the full-grid product: the
    reference of the touched-node smoother, for a bandwidth the smoother
    accepts.  Each axis takes the grid step r * h, where r is BIN_STEP if
    that puts at most MAX_GRID_NODES nodes on the axis, else the ratio
    that spans it in MAX_GRID_NODES - 2 steps.  The numerator and
    denominator grids are smoothed at every node, Kx @ C @ Ky with the
    (m, m) kernel of each axis, then interpolated bilinearly at the
    queries."""
    q = np.column_stack([np.atleast_1d(np.asarray(x, dtype=float)),
                         np.atleast_1d(np.asarray(y, dtype=float))])
    h = np.asarray(surface.bandwidth, dtype=float)
    points = surface.points
    reach = h * np.sqrt(2.0 * np.log(len(points) / MIN_KERNEL_WEIGHT))
    lo, hi = points.min(axis=0), points.max(axis=0)
    near = np.all((q >= lo - reach) & (q <= hi + reach), axis=1)
    out = np.full(len(q), surface.global_rate)
    if not near.any():
        return out
    lo = np.minimum(lo, q[near].min(axis=0))
    hi = np.maximum(hi, q[near].max(axis=0))
    span = hi - lo
    ratio = np.where(np.floor(span / (h * BIN_STEP)) + 2 <= MAX_GRID_NODES,
                     BIN_STEP, span / ((MAX_GRID_NODES - 2) * h))
    step = h * ratio
    shape = (np.floor(span / step) + 2).astype(int)

    def corners(t):
        base = np.clip(np.floor(t), 0, shape - 2).astype(np.intp)
        frac = t - base
        idx = [(base[:, 0] + cx) * shape[1] + base[:, 1] + cy
               for cx in (0, 1) for cy in (0, 1)]
        wts = [(frac[:, 0] if cx else 1.0 - frac[:, 0])
               * (frac[:, 1] if cy else 1.0 - frac[:, 1])
               for cx in (0, 1) for cy in (0, 1)]
        return np.stack(idx), np.stack(wts)

    def kernel(m, r):
        d = np.arange(m) * r
        return np.exp(-0.5 * np.subtract.outer(d, d) ** 2)

    idx, wts = corners((points - lo) / step)
    kx, ky = kernel(shape[0], ratio[0]), kernel(shape[1], ratio[1])

    def smoothed(weights):
        grid = np.bincount(idx.ravel(), weights=weights.ravel(),
                           minlength=shape.prod()).reshape(shape)
        return (kx @ grid @ ky).ravel()

    num, den = smoothed(wts * surface.response), smoothed(wts)
    idx, wts = corners((q[near] - lo) / step)
    num_q = (num[idx] * wts).sum(axis=0)
    den_q = (den[idx] * wts).sum(axis=0)
    ok = den_q >= MIN_KERNEL_WEIGHT
    vals = np.full(len(den_q), surface.global_rate)
    vals[ok] = np.clip(num_q[ok] / den_q[ok], 0.0, 1.0)
    out[near] = vals
    return out


def coefs(fit, columns):
    """The coefficients of a LinearFit for `columns`, as an array."""
    return np.array([fit.coefficients[c] for c in columns])


def kappa(cdf, event, base, rank):
    """Pr(K <= rank), rank in -2..4, in the (event, start base) cell of an
    `advancement_probabilities` array."""
    return float(cdf[EVENT_TYPES.index(event), base, rank - _MIN_RANK])


def bootstrap_reference(table, valuation, replicates, master_seed):
    """The (replicates, players) WAR matrix `bootstrap_war` returns, by
    the unfolded kernel: each replicate scatter-adds the draw-weighted
    values and the draw-weighted event counts of every credit row into
    (player, component) cells, then charges the valuation's frozen rates
    to the counts and divides by its runs per win.  Same draws, same
    column order (the table's sorted player ids)."""
    k = len(COMPONENTS)
    key = table.player * k + table.component
    size = len(table.player_ids) * k
    rates, rpw = valuation.rates, valuation.rpw
    mat = np.empty((replicates, len(table.player_ids)))
    for rep in range(replicates):
        rng = replicate_rng(master_seed, rep)
        idx = rng.integers(0, table.n_pas, table.n_pas)
        w = np.bincount(idx, minlength=table.n_pas).astype(float)[table.pa]
        raa = np.bincount(key, weights=table.value * w, minlength=size)
        counts = np.bincount(key, weights=w, minlength=size)
        shadow = counts.reshape(-1, k) @ rates
        mat[rep] = (raa.reshape(-1, k).sum(axis=1) - shadow) / rpw
    return mat


def type7_quantiles(values, probs):
    """Type-7 quantiles of a sample (Hyndman & Fan 1996): at h = (n − 1)p,
    the order statistic x[⌊h⌋] plus the fraction h − ⌊h⌋ of the step to
    the next one."""
    x = sorted(values)
    out = []
    for p in probs:
        h = (len(x) - 1) * p
        lo = math.floor(h)
        hi = min(lo + 1, len(x) - 1)
        out.append(x[lo] + (h - lo) * (x[hi] - x[lo]))
    return np.array(out)


def pythag_wpct(rs, ra, p):
    """Pythagorean expected winning percentage and its gradient, the
    oracle of `runs_per_win`.

    Returns (wpct, (d/dRS, d/dRA)).
    """
    if rs <= 0 or ra <= 0:
        raise ValueError("runs scored/allowed must be positive")
    ratio = (ra / rs) ** p
    wpct = 1.0 / (1.0 + ratio)
    common = p * ratio / (1.0 + ratio) ** 2
    return wpct, (common / rs, -common / ra)


def assert_same_fit(fit, ref, tol=1e-10):
    """Two LinearFits name, drop and estimate the same columns, and agree
    in coefficients, fitted values and residuals to `tol`."""
    assert list(fit.coefficients) == list(ref.coefficients)
    assert fit.dropped == ref.dropped
    columns = list(ref.coefficients)
    assert np.max(np.abs(coefs(fit, columns) - coefs(ref, columns))) < tol
    assert np.max(np.abs(fit.fitted - ref.fitted)) < tol
    assert np.max(np.abs(fit.residuals - ref.residuals)) < tol


def conservation_residuals(ledger):
    """Per-PA errors of the offense (delta) and defense (-delta)
    reconstructions, read off the chains' arrays: raa_br (n, 4) and the
    fielding park fit's residuals and fitted values, 9 per ball in play."""
    off, dfn = ledger.offense, ledger.defense
    offense = (off.park_fit.fitted + off.position_fit.fitted + off.raa_hit
               + off.raa_br.sum(axis=1))
    fit = dfn.fielding_park_fit
    field = np.zeros(len(ledger.deltas))
    field[dfn.bip_indices] = \
        (fit.residuals + fit.fitted).reshape(-1, 9).sum(axis=1)
    defense = dfn.raa_pitch + dfn.pitch_fit.fitted + field
    return offense - ledger.deltas, defense + ledger.deltas


def openwar_modules():
    """The openwar package and every module in it, imported."""
    return [openwar] + [importlib.import_module(f"openwar.{info.name}")
                        for info in pkgutil.iter_modules(openwar.__path__)]


def records(data):
    """Every plate appearance of a SeasonDataset as its row view."""
    return [data.record(i) for i in range(len(data))]


def half_innings(data):
    """Record indices of each (game, inning, half) run, in record order."""
    key = np.column_stack([data.game, data.inning, data.half])
    new = np.ones(len(data), dtype=bool)
    new[1:] = np.any(key[1:] != key[:-1], axis=1)
    return np.split(np.arange(len(data)), np.flatnonzero(new)[1:])


def build_re_fixture():
    """Three half-innings covering all 24 base-out states exactly.

    Returns (dataset, expected_rho, expected_counts), the expected values
    as (outs, bases) arrays computed by hand from the runs-to-inning-end of
    each record, 0 in the 3-out row.
    """
    g = "AWY@HOM-0001"
    rows = []

    def add(inning, half, outs, bases, event, bdest, rdests=None):
        rows.append(make_pa(g, len(rows), inning, half, outs, bases,
                            event, bdest, rdests))

    # top 1: all eight base masks at 0 outs, then three quick outs;
    # 6 runs score (grand slam sequence + a two-run triple)
    add(1, "top", 0, 0, "Double", "2B")
    add(1, "top", 0, 2, "Single", "1B", {2: "3B"})
    add(1, "top", 0, 5, "Walk", "1B", {1: "2B", 3: "3B"})
    add(1, "top", 0, 7, "Home Run", "H", {1: "H", 2: "H", 3: "H"})
    add(1, "top", 0, 0, "Single", "1B")
    add(1, "top", 0, 1, "Single", "1B", {1: "2B"})
    add(1, "top", 0, 3, "Triple", "3B", {1: "H", 2: "H"})
    add(1, "top", 0, 4, "Double", "2B", {3: "3B"})
    add(1, "top", 0, 6, "Strikeout", "O", {2: "2B", 3: "3B"})
    add(1, "top", 1, 6, "Flyout", "O", {2: "2B", 3: "3B"})
    add(1, "top", 2, 6, "Groundout", "O", {2: "2B", 3: "3B"})

    # bottom 1: all eight masks at 1 out; 5 runs
    add(1, "bottom", 0, 0, "Strikeout", "O")
    add(1, "bottom", 1, 0, "Double", "2B")
    add(1, "bottom", 1, 2, "Single", "1B", {2: "3B"})
    add(1, "bottom", 1, 5, "Walk", "1B", {1: "2B", 3: "3B"})
    add(1, "bottom", 1, 7, "Triple", "3B", {1: "H", 2: "H", 3: "H"})
    add(1, "bottom", 1, 4, "Double", "2B", {3: "3B"})
    add(1, "bottom", 1, 6, "Single", "1B", {2: "H", 3: "H"})
    add(1, "bottom", 1, 1, "Single", "1B", {1: "2B"})
    add(1, "bottom", 1, 3, "Grounded Into DP", "O", {1: "O", 2: "3B"})

    # top 2: all eight masks at 2 outs; 5 runs
    add(2, "top", 0, 0, "Flyout", "O")
    add(2, "top", 1, 0, "Pop Out", "O")
    add(2, "top", 2, 0, "Single", "1B")
    add(2, "top", 2, 1, "Single", "1B", {1: "3B"})
    add(2, "top", 2, 5, "Walk", "1B", {1: "2B", 3: "3B"})
    add(2, "top", 2, 7, "Triple", "3B", {1: "H", 2: "H", 3: "H"})
    add(2, "top", 2, 4, "Double", "2B", {3: "H"})
    add(2, "top", 2, 2, "Walk", "1B", {2: "2B"})
    add(2, "top", 2, 3, "Double", "2B", {1: "3B", 2: "H"})
    add(2, "top", 2, 6, "Groundout", "O", {2: "2B", 3: "3B"})

    data = SeasonDataset.from_records(rows)

    # runs-to-inning-end, averaged per start state (done by hand):
    #   top 1:    6,6,6,6,2,2,2,0,0,0,0
    #   bottom 1: 5,5,5,5,5,2,2,0,0
    #   top 2:    5,5,5,5,5,5,2,1,1,0
    #   bases:  0    1    2    3    4    5    6    7
    expected_rho = np.array([
        [4.5, 2.0, 6.0, 2.0, 0.0, 6.0, 0.0, 6.0],  # 0 outs
        [5.0, 0.0, 5.0, 0.0, 2.0, 5.0, 1.0, 5.0],  # 1 out
        [5.0, 5.0, 1.0, 1.0, 2.0, 5.0, 0.0, 5.0],  # 2 outs
        [0.0] * 8,
    ])
    expected_counts = np.ones((4, 8), dtype=int)
    expected_counts[3] = 0
    expected_counts[0, 0] = 4
    expected_counts[1, 0] = 2
    expected_counts[1, 6] = 2
    expected_counts[2, 6] = 2
    return data, expected_rho, expected_counts
