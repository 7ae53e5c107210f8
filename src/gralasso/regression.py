"""Adaptive-Lasso variable selection driven by a correlation-matrix loss.

The fitted objective is the covariance-form quadratic

    n * b' G b  -  2 n * b' c  +  lambda * sum_j w_j |b_j|

with G and c the predictor block and predictor-response column of a
(robust) correlation matrix. Fitting happens on the standardised scale
(unit diagonal), and coefficients are mapped back to original units at the
end. Cellwise robustness comes entirely from the plugged-in correlation
estimator and the per-column location/scale summaries.

The solution is piecewise linear in lambda (Osborne, Presnell & Turlach
2000; Efron et al. 2004). The solver traces that path exactly from
lambda = +inf: one linear solve on the active set per piece, the next kink
where a coefficient reaches zero or an inactive gradient reaches its
penalty, every grid point written off its piece in closed form, and one KKT
certificate pass over the whole path. Problems are traced in lockstep as
one stack, with one stacked linear solve per round, and each problem has
its own weights and grid. A fit runs in three stages: `_prepare` builds its
plan (summaries, scores, correlation, weights, grid and the stack of its
cross-validation folds and full data; at a fixed lambda, the full data
alone as a one-point path), `_trace` traces the stacks of one or more
plans together, and `_finish` makes the CV choice and the `SelectionFit`.
A benchmark replicate traces its methods' plans as one stack.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .covariance import CorrelationMatrix, _pearson_of_values, score_matrix
from .data import DataMatrix, as_table
# `normal_scores` is not called here, but the benchmark's tracer wraps
# `regression.normal_scores`, so the name stays bound
from .robust_stats import _robust_summaries, normal_scores

__all__ = [
    "AdaptiveWeights",
    "LassoPath",
    "CvCurve",
    "SelectionFit",
    "column_summaries",
    "initial_estimate_direct",
    "initial_estimate_ridge",
    "adaptive_weights",
    "lambda_grid",
    "penalized_objective",
    "fit_path",
    "cross_validate",
    "destandardize",
    "marginal_gr_correlations",
    "screen_top_k",
    "fit_gr_alasso",
]

_ESTIMATOR_KINDS = {
    "gr": "gaussian-rank",
    "gaussian-rank": "gaussian-rank",
    "spearman": "spearman",
    "pearson": "pearson",
}


@dataclass(frozen=True)
class AdaptiveWeights:
    """Per-predictor penalty weights; +inf pins a coefficient at zero."""

    weights: np.ndarray
    source: str

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("weights must be a vector")
        if np.any(np.isnan(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be positive (or +inf)")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class LassoPath:
    """Solutions over a descending lambda grid (standardised scale).

    `iterations[i]` counts the pieces of the exact path (one linear solve
    each) started since grid point i - 1, so `iterations.sum()` is the
    number of pieces traced down to the last grid point.
    """

    lambdas: np.ndarray
    coefficients: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray

    @property
    def supports(self) -> tuple:
        """The nonzero coordinates of each grid point's coefficients."""
        return tuple(map(_support, self.coefficients))


@dataclass(frozen=True)
class CvCurve:
    """Per-lambda cross-validation error with the min and one-SE choices."""

    lambdas: np.ndarray
    mean_errors: np.ndarray
    se_errors: np.ndarray
    idx_min: int
    idx_1se: int

    @property
    def lambda_min(self) -> float:
        return float(self.lambdas[self.idx_min])

    @property
    def lambda_1se(self) -> float:
        return float(self.lambdas[self.idx_1se])


@dataclass(frozen=True)
class SelectionFit:
    """Complete fit: coefficients in original units plus the path and CV
    diagnostics, the column locations and scales (response first) and the
    correlation matrix that produced them."""

    beta: np.ndarray
    intercept: float
    support: tuple
    lambda_: float
    path: LassoPath
    cv: CvCurve | None
    locations: np.ndarray
    scales: np.ndarray
    columns: tuple
    estimator: str
    weights: AdaptiveWeights
    converged: bool
    correlation: CorrelationMatrix

    @property
    def selected_names(self) -> tuple:
        return tuple(self.columns[1 + j] for j in self.support)


def _support(b) -> tuple:
    return tuple(np.flatnonzero(b).tolist())


def _weight_vector(w) -> np.ndarray:
    return (w if isinstance(w, AdaptiveWeights) else AdaptiveWeights(w, "given")).weights


def column_summaries(Z, estimator: str = "gr"):
    """(locations, scales) of the columns as float arrays, response first.

    Robust estimators use median and Qn; the Pearson baseline uses mean and
    standard deviation, matching its own standardisation convention. Both
    are taken over the whole table: up to n = 200 rows the transposed table
    is sorted once, each median is read off its middle columns and each Qn
    off its rows (`robust_stats._robust_summaries`); the Pearson arrays are
    np.mean and np.std(ddof=1) of the columns.
    """
    kind = _ESTIMATOR_KINDS.get(estimator)
    if kind is None:
        raise ValueError(f"unknown estimator {estimator!r}")
    values, names = as_table(Z)
    if values.shape[0] < 2:
        raise ValueError("need at least two observations")
    if kind == "pearson":
        return _summaries(values.mean(axis=0), values.std(axis=0, ddof=1),
                          names)
    return _summaries(*_robust_summaries(values), names)


def _summaries(locations, scales, names):
    """(locations, scales), checked: an entry that is not finite or a scale
    that is not positive raises, naming the first such column."""
    finite = np.isfinite(locations) & np.isfinite(scales)
    bad = np.flatnonzero(~(finite & (scales > 0.0)))
    if bad.size:
        j = bad[0]
        what = "zero scale" if finite[j] else "non-finite summary"
        raise ValueError(f"{what} for column {names[j]!r}")
    return locations, scales


def initial_estimate_direct(cov) -> np.ndarray:
    """Unpenalised plug-in estimate: solve G beta = c.

    Requires a well-conditioned predictor block; otherwise directs the
    caller to the ridge variant.
    """
    gram = np.asarray(cov.xx, dtype=float)
    c = np.asarray(cov.xy, dtype=float)
    cond = float(np.linalg.cond(gram))
    if not np.isfinite(cond) or cond >= 1e12:
        raise ValueError(
            f"predictor covariance is ill-conditioned (cond ~ {cond:.3g}); "
            "use the ridge initial estimate"
        )
    return np.linalg.solve(gram, c)


def initial_estimate_ridge(cov, kappa: float) -> np.ndarray:
    """Ridge plug-in estimate: solve (G + kappa * I) beta = c."""
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    gram = np.asarray(cov.xx, dtype=float)
    c = np.asarray(cov.xy, dtype=float)
    return np.linalg.solve(gram + kappa * np.eye(gram.shape[0]), c)


def adaptive_weights(beta_init, exclusion_eps: float = 1e-10,
                     source: str = "direct-inverse") -> AdaptiveWeights:
    """Weights 1/|beta_init_j|; magnitudes at or below `exclusion_eps` get an
    infinite weight, excluding the predictor at every lambda."""
    _check_eps(exclusion_eps)
    mag = np.abs(np.asarray(beta_init, dtype=float))
    w = np.full(mag.shape, np.inf)
    keep = mag > exclusion_eps
    w[keep] = 1.0 / mag[keep]
    return AdaptiveWeights(w, source)


def _check_eps(exclusion_eps):
    if not exclusion_eps >= 0.0:
        raise ValueError("exclusion_eps must be nonnegative")


def lambda_grid(gram, c, w, n: int, n_lambda: int = 100,
                ratio: float = 1e-3) -> np.ndarray:
    """Descending log-spaced grid from lambda_max (smallest lambda with an
    all-zero solution) down to lambda_max * ratio."""
    _check_grid_shape(n_lambda, ratio)
    wv = _weight_vector(w)
    c = np.asarray(c, dtype=float)
    finite = np.isfinite(wv)
    if not np.any(finite):
        raise ValueError("no admissible predictors")
    lam_max = float(np.max(2.0 * n * np.abs(c[finite]) / wv[finite]))
    if lam_max <= 0.0:
        warnings.warn("degenerate lambda grid: all admissible covariances are zero")
        return np.zeros(1)
    return np.geomspace(lam_max, lam_max * ratio, n_lambda)


def _check_grid_shape(n_lambda, ratio):
    if n_lambda < 2:
        raise ValueError("n_lambda must be at least 2")
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be in (0, 1)")


def _kkt(gram, c, grid, wv, slack, n, coefs):
    """KKT certificate of each row of `coefs` at its grid lambda within
    `slack`; +inf weights are pinned at zero and skipped."""
    finite = np.isfinite(wv)
    # a stack of matrix-vector products rounds each row as `gram @ b` does;
    # `coefs @ gram` sums in another order and moves rounding-level flags
    grad = 2.0 * n * ((gram @ coefs[:, :, None])[:, :, 0] - c)
    lamw = grid[:, None] * np.where(finite, wv, 0.0)
    ok = np.where(coefs == 0.0, ~(np.abs(grad) > lamw + slack),
                  np.abs(grad + lamw * np.sign(coefs)) <= slack)
    return (ok | ~finite).all(axis=1)


def _solve_path(grams, cs, wv, grid, n, tol):
    """Exact homotopy down a lambda grid for a stack of problems, each with
    its own weights and grid: (coefficients, pieces, certified) of shapes
    (F, G, p), (F, G) and (F, G) for F problems (grams (F, p, p), cs (F, p),
    weights wv (F, p), grids (F, G)) of G grid points each. Callers that
    share weights or a grid broadcast them to rows.

    Every grid must be finite, nonnegative and strictly descending, `tol`
    finite and nonnegative, and the grams, cs and weights of matching
    sizes; any other raises ValueError.
    From lambda = +inf and an empty active set A, each piece solves
    G_AA [u v] = [c_A, w_A s_A / (2n)] once, so b_A = u - lambda v with the
    active signs s, a = 2n(c - G_:A u) and d = 2n G_:A v. Every
    coordinate has at most one next kink below the current lambda: an active
    k reaches zero at u_k / v_k when it moves toward it (s_k v_k < 0), kept
    only if strictly below lambda; an inactive j can only join on the side
    s_j = sign(a_j), where |a_j + lambda d_j| reaches lambda w_j at
    |a_j| / (w_j - s_j d_j) (w_j - s_j d_j > 0), clipped to lambda (a join at
    or above it is a tie within rounding and happens at once). The largest
    kink ends the piece, and its coordinate leaves A or joins it with sign
    s_j; exact ties go to the lowest coordinate index. Joins with |a_j| <=
    10 tol n are skipped: the piece already certifies j at every lower
    lambda, and such rounding-level joins would make G_AA singular on
    rank-deficient or duplicated predictors.

    The problems are traced in lockstep. Each round takes one piece of every
    live problem (its last kink still above its last grid point) with one
    stacked solve: each active block, in ascending index order, is padded
    to the round's largest by distinct inactive coordinates, finite-weight
    ones first, with identity rows and columns and a zero right-hand side,
    so their u and v are 0. A row reads only its own weights and grid; the
    padding alone depends on the other rows, and may move a row's last
    bits. A stack of one is never padded and rounds as a single problem
    would. Each round only records its pieces, active-set wide (live rows,
    padded indices, u and v, the lambdas where they start and end); after
    the rounds one vectorised pass writes every grid point off its piece
    (`_write_pieces`), and one KKT pass per problem certifies its whole
    path. `pieces[f, i]` counts problem f's pieces started since grid point
    i - 1.
    """
    if not (np.isfinite(grid).all() and (grid >= 0.0).all()
            and (np.diff(grid, axis=1) < 0.0).all()):
        raise ValueError("lambda grid must be finite, nonnegative and "
                         "strictly descending")
    if not 0.0 <= tol < np.inf:
        raise ValueError("tol must be finite and nonnegative")
    n_prob, p = cs.shape
    if (grams.shape != (n_prob, p, p) or wv.shape != (n_prob, p)
            or grid.shape[0] != n_prob):
        raise ValueError("dimension mismatch between gram, c and weights")
    finite = np.isfinite(wv)
    if ((np.diagonal(grams, axis1=1, axis2=2) <= 0.0) & finite).any():
        raise ValueError("degenerate predictor variance")
    off_key = 2 - finite  # argsort key off the active set: +inf weights last
    slack = 10.0 * tol * n
    c2n = 2.0 * n * cs
    coord = np.arange(p)
    sign = np.zeros((n_prob, p))  # active coordinates carry their sign
    lam = np.full(n_prob, np.inf)
    rounds = []
    # with no predictors every grid point holds the empty solution
    live = np.arange(n_prob if p else 0)
    while live.size:
        sg = sign[live]
        on = sg != 0.0
        size = on.sum(axis=1)
        # actives in ascending order, then inactive pads, finite weights first
        idx = np.argsort(np.where(on, 0, off_key[live]), axis=1,
                         kind="stable")[:, :size.max()]
        act = coord[:idx.shape[1]] < size[:, None]
        at = np.arange(live.size)
        s_a = sg[at[:, None], idx]
        block = np.where(act[:, :, None] & act[:, None, :],
                         grams[live[:, None, None], idx[:, :, None],
                               idx[:, None, :]],
                         np.eye(idx.shape[1]))
        rhs = np.empty(idx.shape + (2,))
        rhs[..., 0] = np.where(act, cs[live[:, None], idx], 0.0)
        # a pad's weight may be +inf where its row has few finite ones
        rhs[..., 1] = np.where(act, wv[live[:, None], idx], 0.0) * s_a / (
            2.0 * n)
        # pads solve to +-0; +0 keeps -0.0 out of the coefficients
        uv = np.where(act[..., None], np.linalg.solve(block, rhs), 0.0)
        # G_:A gathered as the rows of G' and transposed back, the layout of
        # `gram[:, active]`, so a stack of one rounds like a single problem
        cols = grams.transpose(0, 2, 1)[live[:, None], idx].transpose(0, 2, 1)
        ad = 2.0 * n * (cols @ uv)
        a, d = c2n[live] - ad[..., 0], ad[..., 1]
        u, v = uv[..., 0], uv[..., 1]
        here = lam[live, None]
        kink = np.zeros(sg.shape)  # 0: no kink of this coordinate below lam
        kink[at[:, None], idx] = np.divide(u, v, out=np.zeros(u.shape),
                                           where=act & (s_a * v < 0.0))
        kink[(kink < 0.0) | (kink >= here)] = 0.0
        s = np.sign(a)
        room = wv[live] - s * d
        mag = np.abs(a)
        join = finite[live] & ~on & (mag > slack) & (room > 0.0)
        kink = np.where(join, np.minimum(np.divide(
            mag, room, out=np.zeros(a.shape), where=join), here), kink)
        k = np.argmax(kink, axis=1)
        end = kink[at, k]
        lam[live] = end
        # a copy of the slice, so the full-width argsort is freed
        rounds.append((live, here[:, 0], end, idx.copy(), uv))
        # k leaves or joins; once no grid point is left the change goes unused
        sign[live, k] = np.where(on[at, k], 0.0, s[at, k])
        live = live[end > grid[live, -1]]
    coefs, pieces = _write_pieces(rounds, grid, p)
    del rounds  # not held through the certificates
    # one KKT pass per problem: a pass over the whole stack holds several
    # (F, G, p) temporaries, MBs of peak memory at p = 200
    return coefs, pieces, np.array(
        [_kkt(g, c, lams, w, slack, n, b)
         for g, c, lams, w, b in zip(grams, cs, grid, wv, coefs)])


_WRITE_CHUNK = 2 ** 15


def _write_pieces(rounds, grid, p):
    """Coefficients (F, G, p) and piece counts (F, G) from the pieces the
    rounds of `_solve_path` recorded over the grids (F, G): per round its
    live problems, the lambdas where their pieces start and end, the padded
    active indices and the solved [u v]. A piece holds the grid points of
    its problem below its start down to its end, and writes u - lambda v at
    each of them."""
    n_prob, n_grid = grid.shape
    if not rounds:
        return (np.zeros((n_prob, n_grid, p)),
                np.zeros((n_prob, n_grid), dtype=int))
    live, here, end, idx, uv = zip(*rounds)
    prob = np.concatenate(live)
    # grid points at or above a lambda: the first one below it
    start = (grid[prob] >= np.concatenate(here)[:, None]).sum(axis=1)
    stop = (grid[prob] >= np.concatenate(end)[:, None]).sum(axis=1)
    pieces = np.bincount(prob * n_grid + start,
                         minlength=n_prob * n_grid).reshape(n_prob, -1)
    # the pieces partition each problem's grid: one holds each grid point
    size = stop - start
    which = np.empty((n_prob, n_grid), dtype=int)
    which[np.repeat(prob, size), _ranges(start, size)] = np.repeat(
        np.arange(prob.size), size)
    # the padded entries of all pieces: piece, coordinate, [u v]
    owner = np.repeat(np.arange(prob.size), np.repeat(
        [b.shape[1] for b in uv], [b.shape[0] for b in uv]))
    coord = np.concatenate([b.ravel() for b in idx])
    uv = np.concatenate([b.reshape(-1, 2) for b in uv])
    coefs = np.empty((n_prob, n_grid, p))
    # a chunk of problems at a time, as its pieces' u and v over all p
    # coordinates (0 off the padded block), gathered at every grid point:
    # both grow with p, so a chunk holds about _WRITE_CHUNK grid values
    step = max(1, _WRITE_CHUNK // (n_grid * p))
    for lo in range(0, n_prob, step):
        mine = (prob >= lo) & (prob < lo + step)
        row = np.cumsum(mine) - 1  # a piece's row in the chunk's table
        entry = np.flatnonzero(mine[owner])
        at = row[owner[entry]] * p + coord[entry]
        table = np.zeros((2, (row[-1] + 1) * p))
        table[0, at] = uv[entry, 0]
        table[1, at] = uv[entry, 1]
        table = table.reshape(2, -1, p)
        held = row[which[lo:lo + step]]
        out = coefs[lo:lo + step]
        # u - lambda v as -(lambda v) + u: the same bits, one temporary
        np.take(table[1], held, axis=0, out=out)
        out *= -grid[lo:lo + step, :, None]
        out += np.take(table[0], held, axis=0)
    return coefs, pieces


def _ranges(starts, counts):
    """The ranges starts[k], ..., starts[k] + counts[k] - 1, concatenated."""
    return np.arange(counts.sum()) + np.repeat(
        starts - (np.cumsum(counts) - counts), counts)


def penalized_objective(gram, c, w, lam: float, n: int, b) -> float:
    """Objective value n b'Gb - 2n b'c + lambda sum w_j |b_j|."""
    b = np.asarray(b, dtype=float)
    wv = _weight_vector(w)
    quad = float(n * b @ np.asarray(gram, dtype=float) @ b - 2.0 * n * b @ np.asarray(c, dtype=float))
    act = b != 0.0
    if np.any(~np.isfinite(wv[act])):
        return np.inf
    return quad + float(lam * np.sum(wv[act] * np.abs(b[act])))


def _lasso_path(grid, coefs, pieces, conv) -> LassoPath:
    """LassoPath of one problem's rows of a `_solve_path` run; warns if a
    grid point is uncertified."""
    if not np.all(conv):
        warnings.warn("the lasso solver did not certify convergence at "
                      f"{int(np.sum(~conv))} of {grid.size} grid points")
    return LassoPath(lambdas=grid.copy(), coefficients=coefs,
                     iterations=pieces, converged=conv)


def fit_path(cov, w, grid, n: int, tol: float = 1e-7) -> LassoPath:
    """Exact solution path read off at a descending lambda grid.

    `cov` is anything with `xx`/`xy` partitions (a CorrelationMatrix or a
    CovarianceModel).
    """
    grid = np.asarray(grid, dtype=float)
    coefs, pieces, conv = _solve_path(
        np.asarray(cov.xx, dtype=float)[None],
        np.asarray(cov.xy, dtype=float)[None], _weight_vector(w)[None],
        grid[None], n, tol)
    return _lasso_path(grid, coefs[0], pieces[0], conv[0])


def _rows(a, count):
    """`a` repeated as `count` rows (a read-only view): weights or a grid
    shared by a stack of problems."""
    return np.broadcast_to(a, (count,) + a.shape)


def _cv_folds(values, folds, seed):
    """The folds of a response-first table: (grams, cs, held-out row
    blocks), with grams (folds, p, p) and cs (folds, p).

    Rows are shuffled once by `seed` and split into contiguous blocks; each
    fold's gram/c come from the Pearson correlation of the other blocks'
    rows, taken in sorted row order.
    """
    _check_folds(folds, values.shape[0])
    perm = np.random.default_rng(seed).permutation(values.shape[0])
    blocks = np.array_split(perm, folds)
    corrs = []
    for block in blocks:
        keep = np.ones(values.shape[0], dtype=bool)
        keep[block] = False
        corrs.append(_pearson_of_values(values[keep]))
    corrs = np.array(corrs)
    return corrs[:, 1:, 1:], corrs[:, 1:, 0], blocks


def _check_folds(folds, n_rows):
    if folds < 2:
        raise ValueError("folds must be at least 2")
    if n_rows < folds:
        raise ValueError("need at least as many rows as folds")


def cross_validate(pseudo, w, grid, folds: int = 5, seed: int = 0,
                   tol: float = 1e-7) -> CvCurve:
    """K-fold cross-validation on the pseudo-data (response in column 0).

    Rows are shuffled once with the given seed and split into contiguous
    blocks. Each fold refits the Pearson correlation matrix of its training
    rows, traces the path with the provided weights (all folds in lockstep),
    and scores the held-out rows by the mean squared residual of pseudo
    response minus pseudo predictors times the standardised coefficients.
    `idx_min` marks the smallest mean error; `idx_1se` the largest lambda
    whose mean error stays within one standard error of it.
    """
    values, _ = as_table(pseudo)
    grid = np.asarray(grid, dtype=float)
    grams, cs, blocks = _cv_folds(values, folds, seed)
    coefs, _, conv = _solve_path(grams, cs, _rows(_weight_vector(w), folds),
                                 _rows(grid, folds), values.shape[0], tol)
    return _cv_curve(values, blocks, grid, coefs, conv)


def _cv_curve(values, blocks, grid, coefs, conv) -> CvCurve:
    """CvCurve of the fold rows of a `_solve_path` run: each fold's held-out
    rows are scored by the mean squared residual of pseudo response minus
    pseudo predictors times its coefficients. Warns for each fold with too
    few training rows, and once if a fold grid point is uncertified."""
    n_rows, p = values.shape[0], values.shape[1] - 1
    for f, block in enumerate(blocks):
        n_train = n_rows - block.size
        if p < n_rows and n_train < p + 2:
            warnings.warn(
                f"fold {f}: only {n_train} training rows for {p} predictors"
            )
    if not conv.all():
        warnings.warn("cross-validation: the lasso solver did not certify "
                      f"convergence at {int(np.sum(~conv))} of {conv.size} "
                      "fold grid points")
    errors = np.array([
        np.mean((values[block, 0][:, None] - values[block, 1:] @ b.T) ** 2,
                axis=0)
        for block, b in zip(blocks, coefs)])
    mean = errors.mean(axis=0)
    se = errors.std(axis=0, ddof=1) / np.sqrt(len(blocks))
    idx_min = int(np.argmin(mean))
    threshold = mean[idx_min] + se[idx_min]
    idx_1se = int(np.flatnonzero(mean <= threshold)[0])
    return CvCurve(lambdas=grid.copy(), mean_errors=mean, se_errors=se,
                   idx_min=idx_min, idx_1se=idx_1se)


def destandardize(beta_std, summaries):
    """Map standardised coefficients to original units and recover the
    intercept from the column locations; `summaries` is a response-first
    (locations, scales) pair, as `column_summaries` returns it."""
    beta_std = np.asarray(beta_std, dtype=float)
    locs, scales = (np.asarray(a, dtype=float) for a in summaries)
    if not locs.size == scales.size == beta_std.size + 1:
        raise ValueError("summary/coefficient length mismatch")
    if np.any(scales[1:] <= 0.0):
        raise ValueError("zero scale in predictor summaries")
    beta = beta_std * scales[0] / scales[1:]
    intercept = float(locs[0]) - float(locs[1:] @ beta)
    return beta, intercept


def marginal_gr_correlations(Z) -> np.ndarray:
    """Gaussian-rank correlation of each predictor with the response.

    Predictors whose values are all tied get a correlation of 0 (they carry
    no rank signal); a tied response raises.
    """
    values, _ = as_table(Z)
    if np.all(values[:, 0] == values[0, 0]):
        raise ValueError("degenerate response: all values tied")
    live = np.flatnonzero((values[:, 1:] != values[0, 1:]).any(axis=0))
    s = score_matrix(values[:, np.r_[0, live + 1]])
    s = s - s.mean(axis=0)
    s = s / np.linalg.norm(s, axis=0)
    out = np.zeros(values.shape[1] - 1)
    # an elementwise product summed down each column reduces every column on
    # its own, so a subset of columns gets the same bits as the full table
    out[live] = (s[:, 1:] * s[:, :1]).sum(axis=0)
    return np.clip(out, -1.0, 1.0)


def screen_top_k(Z, k: int) -> np.ndarray:
    """Indices of the k predictors with the largest absolute Gaussian-rank
    correlation with the response; ties keep original column order."""
    corr = marginal_gr_correlations(Z)
    if not 1 <= k <= corr.size:
        raise ValueError(f"k must be in 1..{corr.size}")
    order = np.argsort(-np.abs(corr), kind="stable")
    return order[:k]


_RIDGE_KAPPAS = np.logspace(-3.0, 1.0, 9)


def _ridge_kappa_by_cv(values, grams, cs, blocks):
    """Pick the ridge penalty for the initial estimate from `_RIDGE_KAPPAS`
    by pseudo-data CV over the folds of `values` (`_cv_folds`): one solve
    over the fold stack per kappa."""
    eye = np.eye(grams.shape[1])
    errs = []
    for kap in _RIDGE_KAPPAS:
        betas = np.linalg.solve(grams + kap * eye, cs[..., None])[..., 0]
        errs.append([np.mean((values[block, 0] - values[block, 1:] @ b) ** 2)
                     for block, b in zip(blocks, betas)])
    return float(_RIDGE_KAPPAS[int(np.argmin(np.mean(errs, axis=1)))])


@dataclass(frozen=True)
class _Plan:
    """A fit up to its path trace: the table stage (summaries, pseudo-data
    scores and their correlation `R`), the weights, the grid and the stack
    of path problems, `grams` (F, p, p) and `cs` (F, p). The stack is the CV
    folds, whose held-out rows are `blocks`, then the full data; at a fixed
    lambda it is the full data alone and `blocks` is None."""

    rule: str
    summaries: tuple
    scores: np.ndarray
    R: CorrelationMatrix
    weights: AdaptiveWeights
    grid: np.ndarray
    grams: np.ndarray
    cs: np.ndarray
    blocks: list | None

    @property
    def n(self) -> int:
        return self.scores.shape[0]


def _prepare(Z, cache=None, *, estimator, weights, kappa, exclusion_eps,
             n_lambda, lambda_ratio, folds, rule, seed, fixed_lambda) -> _Plan:
    """The first stage of `fit_gr_alasso`: check the options, then build the
    fit's `_Plan`. The options and their defaults are `fit_gr_alasso`'s.

    `cache`, a dict, shares the table stage and the folds between plans of
    the same table: the Pearson adaptive Lasso and the Lasso of a benchmark
    replicate build them once.
    """
    Z = DataMatrix(*as_table(Z))
    if Z.n < 10:
        raise ValueError("need at least 10 observations")
    kind = _ESTIMATOR_KINDS.get(estimator)
    if kind is None:
        raise ValueError(f"unknown estimator {estimator!r}")
    if weights not in ("auto", "direct", "ridge", "unit"):
        raise ValueError(f"unknown weights mode {weights!r}")
    if rule not in ("1se", "min"):
        raise ValueError(f"unknown selection rule {rule!r}")
    if fixed_lambda is not None and not 0.0 <= fixed_lambda < np.inf:
        raise ValueError("lambda must be finite and nonnegative")
    if kappa != "cv" and (isinstance(kappa, str) or not 0.0 < kappa < np.inf):
        raise ValueError('kappa must be positive and finite, or "cv"')
    n, p = Z.n, Z.p
    low_dim = p < n / 2
    ratio = lambda_ratio if lambda_ratio is not None else (1e-3 if low_dim else 1e-2)
    _check_eps(exclusion_eps)
    _check_grid_shape(n_lambda, ratio)
    _check_folds(folds, n)

    cache = {} if cache is None else cache
    if kind not in cache:
        summaries = column_summaries(Z, estimator)
        scores = score_matrix(Z, kind)
        cache[kind] = (summaries, scores, CorrelationMatrix(
            _pearson_of_values(scores, Z.columns), kind, Z.columns))
    summaries, scores, R = cache[kind]

    def fold_stack():
        key = (kind, folds, seed)
        if key not in cache:
            cache[key] = _cv_folds(scores, folds, seed)
        return cache[key]

    if weights == "unit":
        wobj = AdaptiveWeights(np.ones(p), "unit")
    else:
        mode = weights if weights != "auto" else ("direct" if low_dim else "ridge")
        if mode == "direct":
            try:
                wobj = adaptive_weights(initial_estimate_direct(R),
                                        exclusion_eps, "direct-inverse")
            except ValueError:
                # an ill-conditioned predictor block (a duplicated predictor,
                # say): "auto" falls back to the ridge estimate
                if weights == "direct":
                    raise
                mode = "ridge"
        if mode == "ridge":
            kap = (_ridge_kappa_by_cv(scores, *fold_stack())
                   if kappa == "cv" else float(kappa))
            beta_init = initial_estimate_ridge(R, kap)
            wobj = adaptive_weights(beta_init, exclusion_eps, f"ridge(kappa={kap:g})")

    if fixed_lambda is None:
        grid = lambda_grid(R.xx, R.xy, wobj, n, n_lambda=n_lambda, ratio=ratio)
        grams, cs, blocks = fold_stack()
        grams = np.concatenate([grams, R.xx[None]])
        cs = np.concatenate([cs, R.xy[None]])
    else:
        grid, blocks = np.array([float(fixed_lambda)]), None
        grams, cs = R.xx[None], R.xy[None]
    return _Plan(rule=rule, summaries=summaries, scores=scores, R=R,
                 weights=wobj, grid=grid, grams=grams, cs=cs, blocks=blocks)


def _trace(plans, tol: float = 1e-7):
    """The second stage: the path problems of `plans` (one table size, grids
    of one length) traced as one lockstep stack by `_solve_path`, each
    problem with its own plan's weights and grid. Returns each plan's rows
    of (coefficients, pieces, certified), in order."""
    parts = [(plan.grams, plan.cs, _rows(plan.weights.weights, len(plan.cs)),
              _rows(plan.grid, len(plan.cs))) for plan in plans]
    stack = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    out = _solve_path(*stack, plans[0].n, tol)
    cuts = np.cumsum([len(plan.cs) for plan in plans])[:-1]
    return list(zip(*(np.split(a, cuts) for a in out)))


def _finish(plan, coefs, pieces, conv) -> SelectionFit:
    """The last stage: from a plan's rows of its trace, the CV choice (the
    first grid point at a fixed lambda), the path, and the coefficients at
    the chosen lambda in original units."""
    grid = plan.grid
    if plan.blocks is None:
        cv, idx = None, 0
    else:
        cv = _cv_curve(plan.scores, plan.blocks, grid, coefs[:-1], conv[:-1])
        idx = cv.idx_1se if plan.rule == "1se" else cv.idx_min
    # a copy, so that the fit does not hold the other rows of the trace
    path = _lasso_path(grid, coefs[-1].copy(), pieces[-1], conv[-1])
    beta, intercept = destandardize(path.coefficients[idx], plan.summaries)
    return SelectionFit(beta=beta, intercept=intercept,
                        support=_support(path.coefficients[idx]),
                        lambda_=float(grid[idx]), path=path, cv=cv,
                        locations=plan.summaries[0], scales=plan.summaries[1],
                        columns=plan.R.columns, estimator=plan.R.estimator,
                        weights=plan.weights,
                        converged=bool(path.converged[idx]),
                        correlation=plan.R)


def fit_gr_alasso(Z, *, estimator: str = "gr", weights: str = "auto",
                  kappa=0.1, exclusion_eps: float = 1e-10,
                  n_lambda: int = 100, lambda_ratio=None, folds: int = 5,
                  rule: str = "1se", seed: int = 0,
                  fixed_lambda=None) -> SelectionFit:
    """Fit the full selection pipeline on a response-first data table.

    Steps: per-column summaries -> pseudo-data scores -> correlation matrix
    -> initial estimate (direct when p < n/2, ridge otherwise) -> adaptive
    weights -> lambda grid -> pseudo-data cross-validation and the final
    path (traced in lockstep) -> coefficients at the chosen lambda ->
    original units.

    `estimator` selects the correlation plug-in ("gr", "spearman" or
    "pearson"); `weights` one of "auto", "direct", "ridge" or "unit" (plain
    Lasso). `kappa` is the ridge penalty for the initial estimate, or "cv"
    to pick it from a log grid by the same pseudo-data cross-validation.
    `fixed_lambda` skips the grid and CV and solves at the given penalty
    alone: `path` is then a one-point path and `n_lambda`, `lambda_ratio`
    and `rule` go unused. With `rule="min"` the CV-minimising lambda is used
    instead of the one-standard-error choice. The options are checked
    before any work, also those that the chosen mode leaves unused.
    """
    plan = _prepare(Z, estimator=estimator, weights=weights, kappa=kappa,
                    exclusion_eps=exclusion_eps, n_lambda=n_lambda,
                    lambda_ratio=lambda_ratio, folds=folds, rule=rule,
                    seed=seed, fixed_lambda=fixed_lambda)
    return _finish(plan, *_trace([plan])[0])


# one set of option defaults: `_prepare` takes `fit_gr_alasso`'s
_prepare.__kwdefaults__ = dict(fit_gr_alasso.__kwdefaults__)
