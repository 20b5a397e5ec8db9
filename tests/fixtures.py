"""Hand-built play-by-play fixtures shared across test modules."""

import importlib
import pkgutil

import numpy as np

import openwar

from openwar.events import BALL_IN_PLAY, EVENT_TYPES, SeasonDataset
from openwar.numerics import (
    BIN_STEP,
    MAX_GRID_NODES,
    MIN_KERNEL_WEIGHT,
    LinearFit,
    _independent_columns,
    replicate_rng,
)
from openwar.offense import _MIN_RANK
from openwar.valuation import COMPONENTS, CreditTable

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


def binned_full_grid(surface, x, y):
    """`SmoothedSurface.evaluate_binned` by the full-grid product: the
    reference of the touched-node smoother.  The numerator and denominator
    grids are smoothed at every node, Kx @ C @ Ky with the (m, m) kernel of
    each axis, then interpolated bilinearly at the queries."""
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
    step = h * BIN_STEP
    nodes = np.floor((hi - lo) / step) + 2
    if nodes.max() > MAX_GRID_NODES:
        return surface.evaluate(x, y)
    shape = nodes.astype(int)

    def corners(t):
        base = np.clip(np.floor(t), 0, shape - 2).astype(np.intp)
        frac = t - base
        idx = [(base[:, 0] + cx) * shape[1] + base[:, 1] + cy
               for cx in (0, 1) for cy in (0, 1)]
        wts = [(frac[:, 0] if cx else 1.0 - frac[:, 0])
               * (frac[:, 1] if cy else 1.0 - frac[:, 1])
               for cx in (0, 1) for cy in (0, 1)]
        return np.stack(idx), np.stack(wts)

    def kernel(m):
        d = np.arange(m) * BIN_STEP
        return np.exp(-0.5 * np.subtract.outer(d, d) ** 2)

    idx, wts = corners((points - lo) / step)
    kx, ky = kernel(shape[0]), kernel(shape[1])

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


def bootstrap_reference(table, valuation, config):
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
    mat = np.empty((config.replicates, len(table.player_ids)))
    for rep in range(config.replicates):
        rng = replicate_rng(config.master_seed, rep)
        idx = rng.integers(0, table.n_pas, table.n_pas)
        w = np.bincount(idx, minlength=table.n_pas).astype(float)[table.pa]
        raa = np.bincount(key, weights=table.value * w, minlength=size)
        counts = np.bincount(key, weights=w, minlength=size)
        shadow = counts.reshape(-1, k) @ rates
        mat[rep] = (raa.reshape(-1, k).sum(axis=1) - shadow) / rpw
    return mat


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
