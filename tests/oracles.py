"""Independent oracles used to freeze expected values.

Everything here is deliberately separate from the package implementation:
plain enumeration, bisection against math.erf, normal equations and grid
refinement. Tests compare the library against these, never the other way
round.
"""

import math

import numpy as np


def bisect_normal_quantile(p: float, tol: float = 1e-13) -> float:
    """Standard normal quantile by bisection on the erfc-based CDF.

    Works in the lower tail (erfc of a positive argument keeps full relative
    precision there) and reflects upper-tail arguments through the exact
    complement 1 - p.
    """
    assert 0.0 < p < 1.0
    if p > 0.5:
        return -bisect_normal_quantile(1.0 - p, tol)

    def cdf(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    lo, hi = -40.0, 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def brute_force_qn(x, d: float = 2.2219) -> float:
    """Qn by explicit double-loop enumeration of all pairwise differences."""
    x = list(map(float, x))
    n = len(x)
    assert n >= 2
    diffs = []
    for i in range(n):
        for j in range(i + 1, n):
            diffs.append(abs(x[i] - x[j]))
    diffs.sort()
    h = n // 2 + 1
    k = h * (h - 1) // 2
    return d * diffs[k - 1]


def naive_midranks(x):
    """Midranks via counting: rank_i = #less + (#equal + 1) / 2."""
    x = list(map(float, x))
    out = []
    for xi in x:
        less = sum(1 for xj in x if xj < xi)
        equal = sum(1 for xj in x if xj == xi)
        out.append(less + (equal + 1) / 2.0)
    return np.asarray(out)


def ols_fit(X, y):
    """Ordinary least squares with intercept by brute-force normal
    equations; returns (slopes, intercept)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    A = np.column_stack([np.ones(X.shape[0]), X])
    coef = np.linalg.solve(A.T @ A, A.T @ y)
    return coef[1:], float(coef[0])


def penalized_objective_naive(gram, c, w, lam, n, b) -> float:
    gram = np.asarray(gram, dtype=float)
    c = np.asarray(c, dtype=float)
    w = np.asarray(w, dtype=float)
    b = np.asarray(b, dtype=float)
    val = float(n * b @ gram @ b - 2.0 * n * b @ c)
    for j in range(b.size):
        if b[j] != 0.0:
            if not np.isfinite(w[j]):
                return math.inf
            val += lam * w[j] * abs(b[j])
    return val


def grid_minimize(gram, c, w, lam, n, half_width, center=None,
                  points: int = 13, rounds: int = 12) -> np.ndarray:
    """Minimise the penalised quadratic by iterative grid refinement.

    Searches a p-dimensional box (p <= 3), shrinking it around the argmin
    each round. Independent of coordinate descent.
    """
    gram = np.asarray(gram, dtype=float)
    c = np.asarray(c, dtype=float)
    w = np.asarray(w, dtype=float)
    p = c.size
    assert p <= 3
    center = np.zeros(p) if center is None else np.asarray(center, dtype=float)
    width = float(half_width)
    best = center.copy()
    for _ in range(rounds):
        axes = [np.linspace(best[j] - width, best[j] + width, points)
                for j in range(p)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, p)
        # include exact zeros per coordinate so sparse optima are reachable
        zero_snap = mesh.copy()
        for j in range(p):
            snapped = mesh.copy()
            snapped[:, j] = 0.0
            zero_snap = np.vstack([zero_snap, snapped])
        mesh = np.vstack([mesh, zero_snap, np.zeros((1, p))])
        quad = n * np.einsum("ij,jk,ik->i", mesh, gram, mesh) - 2.0 * n * mesh @ c
        pen = lam * np.abs(mesh) @ np.where(np.isfinite(w), w, 0.0)
        pen[np.any((mesh != 0.0) & ~np.isfinite(w), axis=1)] = np.inf
        vals = quad + pen
        best = mesh[int(np.argmin(vals))].copy()
        width = max(width * 2.5 / (points - 1), 1e-9)
    return best


def soft_threshold(z: float, t: float) -> float:
    if z > t:
        return z - t
    if z < -t:
        return z + t
    return 0.0


def cd_reference(gram, c, wv, lam, n, warm, tol, max_iter):
    """Cyclic coordinate descent over every admissible coordinate.

    The package's first solver, kept as the reference for the exact path:
    soft-threshold updates until the largest coordinate change is below
    `tol` and the KKT conditions hold within 10 * tol * n. Returns
    (solution, sweeps, converged).
    """
    gram = np.asarray(gram, dtype=float)
    c = np.asarray(c, dtype=float)
    wv = np.asarray(wv, dtype=float)
    p = c.size
    b = np.zeros(p) if warm is None else np.array(warm, dtype=float, copy=True)
    finite = np.isfinite(wv)
    b[~finite] = 0.0
    order = np.flatnonzero(finite)
    diag = np.diagonal(gram)
    thr = np.zeros(p)
    thr[order] = lam * wv[order] / (2.0 * n)
    s = gram @ b
    slack = 10.0 * tol * n
    lamw = np.where(finite, lam * np.where(finite, wv, 0.0), np.inf)
    for sweep in range(1, max_iter + 1):
        dmax = 0.0
        for j in order:
            rho = c[j] - s[j] + diag[j] * b[j]
            bj = soft_threshold(rho, thr[j]) / diag[j]
            d = bj - b[j]
            if d != 0.0:
                s += d * gram[j]
                b[j] = bj
                dmax = max(dmax, abs(d))
        if dmax < tol:
            s = gram @ b
            grad = 2.0 * n * (s - c)
            nz = finite & (b != 0.0)
            zz = finite & (b == 0.0)
            if (np.all(np.abs(grad[nz] + lamw[nz] * np.sign(b[nz])) <= slack)
                    and np.all(np.abs(grad[zz]) <= lamw[zz] + slack)):
                return b, sweep, True
    return b, max_iter, False


def midranks_by_unique(x) -> np.ndarray:
    """Mid-ranks of one column from its sorted distinct values and counts."""
    _, inverse, counts = np.unique(np.asarray(x, dtype=float),
                                   return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts
    return (0.5 * (starts + 1 + ends))[inverse]


def score_matrix_by_column(values, names, kind, quantile):
    """The per-column pseudo-data loop that `covariance.score_matrix`
    replaced, with the normal quantile function passed in: the reference
    for the whole-table scores, which must match it bit for bit."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    out = np.empty_like(values)
    for j in range(values.shape[1]):
        col = values[:, j]
        if kind == "gaussian-rank" and np.all(col == col[0]):
            raise ValueError(f"degenerate column {names[j]!r}: all values tied")
        if kind == "gaussian-rank":
            out[:, j] = quantile(midranks_by_unique(col) / (n + 1))
        elif kind == "pearson":
            sd = float(np.std(col, ddof=1)) if n > 1 else 0.0
            if sd <= 0.0:
                raise ValueError(f"zero-variance column {names[j]!r}")
            out[:, j] = (col - np.mean(col)) / sd
        else:
            raise ValueError(f"unknown score kind {kind!r}")
    return out


def kkt_by_point(gram, c, grid, wv, slack, n, coefs) -> np.ndarray:
    """The per-grid-point KKT certificate that `regression._kkt` replaced:
    one gradient per row of `coefs` at its grid lambda, +inf weights pinned
    at zero and skipped."""
    gram = np.asarray(gram, dtype=float)
    c = np.asarray(c, dtype=float)
    wv = np.asarray(wv, dtype=float)
    finite = np.isfinite(wv)
    flags = np.zeros(len(grid), dtype=bool)
    for i, b in enumerate(coefs):
        lamw = np.full(c.size, np.inf)
        lamw[finite] = grid[i] * wv[finite]
        grad = 2.0 * n * (gram @ b - c)
        nz = finite & (b != 0.0)
        viol = finite & (b == 0.0) & (np.abs(grad) > lamw + slack)
        flags[i] = not viol.any() and bool(
            (np.abs(grad[nz] + lamw[nz] * np.sign(b[nz])) <= slack).all())
    return flags


def solve_path_reference(gram, c, wv, grid, n, tol):
    """The exact homotopy that `regression._solve_path` replaced, kept as
    the reference for its kernel: each piece gathers the candidate kinks
    below the current lambda as three lists (leaves, joins on the + side,
    joins on the - side) and takes the first largest, so exact ties go to
    leaves, then + joins, then - joins. Returns (coefficients, pieces,
    certified) for a nonnegative, strictly descending grid."""
    gram = np.asarray(gram, dtype=float)
    c = np.asarray(c, dtype=float)
    wv = np.asarray(wv, dtype=float)
    finite = np.isfinite(wv)
    slack = 10.0 * tol * n
    coefs = np.zeros((grid.size, c.size))
    pieces = np.zeros(grid.size, dtype=int)
    sign = np.zeros(c.size)
    lam, i = np.inf, 0
    while i < grid.size:
        pieces[i] += 1
        active = np.flatnonzero(sign)
        s_a = sign[active]
        uv = np.linalg.solve(gram[np.ix_(active, active)], np.column_stack(
            [c[active], wv[active] * s_a / (2.0 * n)]))
        u, v = uv[:, 0], uv[:, 1]
        ad = 2.0 * n * (gram[:, active] @ uv)
        a, d = 2.0 * n * c - ad[:, 0], ad[:, 1]
        leave = s_a * v < 0.0
        kinks = [(u[leave] / v[leave], active[leave], np.zeros(leave.sum()))]
        out = finite & (sign == 0.0) & (np.abs(a) > slack)
        for s in (1.0, -1.0):
            j = np.flatnonzero(out & (wv - s * d > 0.0))
            kinks.append((s * a[j] / (wv[j] - s * d[j]), j, np.full(j.size, s)))
        lams, who, how = (np.concatenate(t) for t in zip(*kinks))
        join = how != 0.0
        lams[join] = np.minimum(lams[join], lam)
        lams[(lams < 0.0) | (~join & (lams >= lam))] = 0.0
        lam = lams.max(initial=0.0)
        end = i + int(np.count_nonzero(grid[i:] >= lam))
        coefs[i:end, active] = u - grid[i:end, None] * v
        i = end
        if i < grid.size:
            k = int(np.argmax(lams))
            sign[who[k]] = how[k]
    return coefs, pieces, kkt_by_point(gram, c, grid, wv, slack, n, coefs)


def write_pieces_per_round(rounds, grids, p):
    """The per-round grid write, the reference for
    `regression._write_pieces`, which writes the same way: for each round's
    records (live problems, start and end lambdas, padded active indices,
    solved [u v]) it counts a piece at the first point of its problem's grid
    (a row of `grids`) below its start and writes u - lambda v at every grid
    point below the start down to the end."""
    n_prob, n_grid = grids.shape
    coefs = np.zeros((n_prob, n_grid, p))
    pieces = np.zeros((n_prob, n_grid), dtype=int)
    for live, here, end, idx, uv in rounds:
        idx = idx.reshape(uv.shape[:2])
        grid = grids[live]
        below = grid < here[:, None]
        pieces[live, n_grid - below.sum(axis=1)] += 1
        r, i = np.nonzero(below & (grid >= end[:, None]))
        coefs[live[r, None], i[:, None], idx[r]] = (
            uv[r, :, 0] - grid[r, i, None] * uv[r, :, 1])
    return coefs, pieces


def qn_by_sorted_differences(x, d: float = 2.2219) -> float:
    """Qn from all n(n-1)/2 absolute differences sorted with numpy: a fast
    stand-in for `brute_force_qn` at a few hundred values."""
    x = np.asarray(x, dtype=float)
    n = x.size
    h = n // 2 + 1
    k = h * (h - 1) // 2
    diffs = np.abs(np.subtract.outer(x, x))[np.triu_indices(n, 1)]
    return d * float(np.sort(diffs)[k - 1])
