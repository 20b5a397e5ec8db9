"""Estimation primitives: OLS, IRLS logistic regression, a 2D binary-response
kernel smoother, type-7 quantiles, and the seeded RNG contract."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LinearFit",
    "LogisticFit",
    "SmoothedSurface",
    "indicator_ols",
    "logistic_fit",
    "scott_bandwidth",
    "empirical_quantiles",
    "master_rng",
    "replicate_rng",
]

#: coefficient norm (standardized design) beyond which we flag separation
SEPARATION_NORM = 30.0
#: IRLS iteration cap, and the score-norm tolerance (per observation) that
#: counts a logistic fit as converged
MAX_IRLS_ITER = 50
IRLS_TOL = 1e-9
#: smoother queries whose total kernel weight falls below this get the
#: global response rate
MIN_KERNEL_WEIGHT = 1e-12
#: element budget for one (queries x training points) temporary of the
#: exact smoother; queries are processed in chunks that stay under it
EXACT_CHUNK_ELEMENTS = 1 << 20
#: grid step of the binned smoother, as a fraction of the bandwidth
BIN_STEP = 1.0 / 20.0
#: largest binned grid axis (nodes); a wider grid (a bandwidth tiny next to
#: the spread of the data) is evaluated exactly instead.  It bounds the
#: m_x x m_y binned grid and each (touched nodes x m) kernel, which the
#: queries of a dense sample make as large as m x m
MAX_GRID_NODES = 2048


@dataclass
class LinearFit:
    coefficients: dict  # name -> estimate (dropped columns pinned to 0)
    residuals: np.ndarray
    fitted: np.ndarray
    dropped: list = field(default_factory=list)


@dataclass
class LogisticFit:
    coefficients: np.ndarray  # (p,), in the order of the design's columns
    converged: bool
    iterations: int
    separated: bool = False
    constant_rate: float = None  # set when the response is single-class

    def predict(self, X):
        """Predicted probabilities for a design matching the fit columns."""
        X = np.asarray(X, dtype=float)
        if self.constant_rate is not None:
            return np.full(X.shape[0], self.constant_rate)
        return _sigmoid(X @ self.coefficients)


def _independent_columns(gram, n):
    """Indices of the columns kept by a Cholesky factorization of the Gram
    matrix XᵀX of an n-row design, pivoting in column order: a column whose
    Schur complement on the kept columns is at most n * eps * max(diag) is
    collinear with them, so later collinear columns are the ones dropped."""
    schur = np.array(gram, dtype=float)
    tol = n * np.finfo(float).eps * schur.diagonal().max(initial=0.0)
    keep = []
    for j in range(len(schur)):
        if schur[j, j] > tol:
            keep.append(j)
            row = schur[j, j:] / np.sqrt(schur[j, j])
            schur[j:, j:] -= np.outer(row, row)
    return keep


def indicator_ols(factors, y, extra=()):
    """Least squares on an intercept, the indicator columns of categorical
    factors, then the `extra` (name, values) columns, without the dense design.
    Collinear columns are dropped by `_independent_columns` (later columns
    go) and their coefficients are pinned at 0.

    A factor is (prefix, labels, codes): row r is at level codes[r], whose
    column is named prefix + labels[codes[r]]; levels come in label order.
    Each block of columns (the intercept, a factor, an extra column) has one
    (column, value) pair per row, so XᵀX and Xᵀy are bincounts of pairs."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    names = ["intercept"]
    blocks = [(np.zeros(n, dtype=np.intp), np.ones(n))]
    for prefix, labels, codes in factors:
        present = np.flatnonzero(np.bincount(codes)).tolist()
        levels = sorted(present, key=labels.__getitem__)
        column = np.zeros(max(levels, default=0) + 1, dtype=np.intp)
        column[levels] = len(names) + np.arange(len(levels))
        names += [f"{prefix}{labels[c]}" for c in levels]
        blocks.append((column[codes], np.ones(n)))
    for name, values in extra:
        blocks.append((np.full(n, len(names)), np.asarray(values, dtype=float)))
        names.append(name)

    p = len(names)
    gram = sum(np.bincount(ca * p + cb, weights=va * vb, minlength=p * p)
               for ca, va in blocks for cb, vb in blocks).reshape(p, p)
    if np.any(gram.diagonal() == 0.0):
        raise ValueError("design contains an all-zero column")
    xty = sum(np.bincount(c, weights=v * y, minlength=p) for c, v in blocks)
    keep = _independent_columns(gram, n)
    beta = np.zeros(p)
    beta[keep] = np.linalg.solve(gram[np.ix_(keep, keep)], xty[keep])
    fitted = sum(beta[c] * v for c, v in blocks)
    dropped = [name for j, name in enumerate(names) if j not in keep]
    return LinearFit(dict(zip(names, beta)), y - fitted, fitted, dropped)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, 1e-12, 1.0 - 1e-12)


def logistic_fit(V, y):
    """Newton/IRLS maximization of the Bernoulli log-likelihood over the
    (n, p) design `V`.

    Complete separation (coefficient norm on the standardized design
    exceeding SEPARATION_NORM) stops iteration with converged=False and
    the separated flag set; the capped coefficients are returned as-is.
    """
    y = np.asarray(y, dtype=float)
    if np.any((y != 0) & (y != 1)):  # NaN too
        raise ValueError("response must be binary")
    if not y.size or y.min() == y.max():
        raise ValueError("single-class response")

    V = np.asarray(V, dtype=float)
    n, p = V.shape
    # per-column scale for the separation check; intercept-like columns
    # (constant) keep scale 1
    scales = V.std(axis=0)
    scales[scales == 0.0] = 1.0

    keep = _independent_columns(V.T @ V, n)
    beta = np.zeros(p)
    converged = False
    separated = False
    it = 0
    for it in range(1, MAX_IRLS_ITER + 1):
        mu = _sigmoid(V @ beta)
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
    return LogisticFit(
        coefficients=beta,
        converged=converged,
        iterations=it,
        separated=separated,
    )


def scott_bandwidth(coords):
    """Scott's rule per axis for a 2D sample: sigma * n^(-1/6)."""
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[0]
    sd = coords.std(axis=0, ddof=1) if n > 1 else np.ones(2)
    sd[sd == 0.0] = 1.0
    h = sd * n ** (-1.0 / 6.0)
    return float(h[0]), float(h[1])


@dataclass
class SmoothedSurface:
    """Nadaraya-Watson smoother of a binary response with a product
    Gaussian kernel.  Queries with negligible total kernel weight fall
    back to the global response rate.  It needs at least one training
    point, and a positive, finite bandwidth on each axis.

    `evaluate` is exact and is the reference; `evaluate_binned` is the
    fast approximation the pipeline uses."""

    points: np.ndarray  # (n, 2)
    response: np.ndarray  # (n,) in {0, 1}
    bandwidth: tuple  # (h_x, h_y) in feet

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.shape[0] < 1:
            raise ValueError("need at least one training point")
        hx, hy = self.bandwidth
        # NaN fails both comparisons
        if not (0 < hx < np.inf and 0 < hy < np.inf):
            raise ValueError(f"bandwidths must be positive and finite, "
                             f"not {hx!r} and {hy!r}")
        self.response = np.asarray(self.response, dtype=float)
        self.global_rate = float(self.response.mean())

    def evaluate(self, x, y):
        """Exact kernel sums against every training point, in query chunks
        of at most EXACT_CHUNK_ELEMENTS kernel weights."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        hx, hy = self.bandwidth
        out = np.full(x.shape[0], self.global_rate)
        chunk = max(1, EXACT_CHUNK_ELEMENTS // len(self.points))
        for start in range(0, x.shape[0], chunk):
            part = slice(start, start + chunk)
            # a distance of many bandwidths may overflow to inf: its weight
            # is then exp(-inf) = 0, its limit
            with np.errstate(over="ignore"):
                dx = (x[part, None] - self.points[None, :, 0]) / hx
                dy = (y[part, None] - self.points[None, :, 1]) / hy
                w = np.exp(-0.5 * (dx * dx + dy * dy))
            total = w.sum(axis=1)
            ok = total >= MIN_KERNEL_WEIGHT
            out[part][ok] = (w[ok] @ self.response) / total[ok]
        return out

    def evaluate_binned(self, x, y):
        """Linear-binning approximation of `evaluate` (Wand 1994, the
        estimator behind KernSmooth's bkde2D).

        Training points and their responses are binned linearly onto a
        grid of step BIN_STEP * h per axis.  The numerator and denominator
        grids are smoothed by the separable kernel as dense products
        (Kx @ C) @ Ky (every term positive, so no cancellation in the sparse
        tails), but only at the grid rows and columns that the queries'
        bilinear corners touch, and interpolated there.  A query more than
        sqrt(2 ln(n / MIN_KERNEL_WEIGHT)) bandwidths outside the training
        points' bounding box has an exact kernel total below
        MIN_KERNEL_WEIGHT, so it gets the global rate without widening the
        grid.
        """
        q = np.column_stack([np.atleast_1d(np.asarray(x, dtype=float)),
                             np.atleast_1d(np.asarray(y, dtype=float))])
        h = np.asarray(self.bandwidth, dtype=float)
        n = len(self.points)
        reach = h * np.sqrt(2.0 * np.log(n / MIN_KERNEL_WEIGHT))
        lo, hi = self.points.min(axis=0), self.points.max(axis=0)
        near = np.all((q >= lo - reach) & (q <= hi + reach), axis=1)
        out = np.full(len(q), self.global_rate)
        if not near.any():
            return out
        lo = np.minimum(lo, q[near].min(axis=0))
        hi = np.maximum(hi, q[near].max(axis=0))
        step = h * BIN_STEP
        # compared before the cast: a tiny bandwidth makes the node count
        # too large for an int, or infinite
        nodes = np.floor((hi - lo) / step) + 2
        if nodes.max() > MAX_GRID_NODES:
            return self.evaluate(x, y)
        shape = nodes.astype(int)

        base, frac = _grid_cells((self.points - lo) / step, shape)
        idx, wts = _grid_corners(base, frac, shape[1])
        qbase, qfrac = _grid_cells((q[near] - lo) / step, shape)
        rows, qx = _touched(qbase[:, 0], shape[0])
        cols, qy = _touched(qbase[:, 1], shape[1])
        kx = _binned_kernel(rows, shape[0])
        ky = _binned_kernel(cols, shape[1]).T

        def smoothed(weights):
            grid = np.bincount(idx.ravel(), weights=weights.ravel(),
                               minlength=shape.prod()).reshape(shape)
            return ((kx @ grid) @ ky).ravel()

        num, den = smoothed(wts * self.response), smoothed(wts)

        idx, wts = _grid_corners(np.column_stack([qx, qy]), qfrac, len(cols))
        num_q = (num[idx] * wts).sum(axis=0)
        den_q = (den[idx] * wts).sum(axis=0)
        ok = den_q >= MIN_KERNEL_WEIGHT
        vals = np.full(len(den_q), self.global_rate)
        # rounding in the products can push a ratio past the [0, 1] range
        vals[ok] = np.clip(num_q[ok] / den_q[ok], 0.0, 1.0)
        out[near] = vals
        return out


def _grid_cells(t, shape):
    """The grid cell of each of k fractional grid coordinates `t` (k, 2) on
    a grid of `shape`: its lower corner node (k, 2) and the offset of `t`
    from that node."""
    base = np.clip(np.floor(t), 0, shape - 2).astype(np.intp)
    return base, t - base


def _grid_corners(base, frac, ncols):
    """Flat indices and bilinear weights, each (4, k), of the four nodes of
    the cells with lower corners `base` (k, 2), on a grid of `ncols`
    columns, for points at offsets `frac` (k, 2) inside them."""
    idx, wts = [], []
    for cx in (0, 1):
        for cy in (0, 1):
            idx.append((base[:, 0] + cx) * ncols + base[:, 1] + cy)
            wts.append((frac[:, 0] if cx else 1.0 - frac[:, 0])
                       * (frac[:, 1] if cy else 1.0 - frac[:, 1]))
    return np.stack(idx), np.stack(wts)


def _touched(base, m):
    """The nodes, in order, of one grid axis of m nodes that cells with
    lower nodes `base` touch (each base and the node after it), and each
    base's position among them."""
    used = np.zeros(m, dtype=bool)
    used[base] = used[base + 1] = True
    return np.flatnonzero(used), np.cumsum(used)[base] - 1


def _binned_kernel(rows, m):
    """(len(rows), m) Gaussian kernel between the nodes `rows` of one grid
    axis of m nodes and every node of it."""
    d = np.arange(m) * BIN_STEP
    # in place: with every node touched this is the largest array
    k = np.subtract.outer(d[rows], d)
    k *= k
    k *= -0.5
    return np.exp(k, out=k)


def empirical_quantiles(values, probs, axis=None):
    """Type-7 (linear interpolation) order-statistic quantiles, of all
    `values` or along `axis` (the probabilities index the result's first
    axis, as in `np.quantile`)."""
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if values.size == 0:
        raise ValueError("empty values")
    if np.any(probs < 0) or np.any(probs > 1):
        raise ValueError("probabilities must lie in [0, 1]")
    return np.quantile(values, probs, axis=axis)  # numpy default is type-7


def master_rng(seed):
    """Deterministic generator for a master seed."""
    return np.random.default_rng(np.random.SeedSequence(seed))


def replicate_rng(seed, index):
    """Independent, reproducible stream for bootstrap replicate `index`."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
