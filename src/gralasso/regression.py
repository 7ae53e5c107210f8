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
certificate pass over the whole path. The cross-validation folds and the
final path share the weights and the grid, so they are traced in lockstep
as one stack of problems, with one stacked linear solve per round; a fixed
lambda is a one-point path of a stack of one.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .covariance import CorrelationMatrix, _pearson_of_values, score_matrix
from .data import DataMatrix, as_table
# `normal_scores` is not called here, but the benchmark's tracer wraps
# `regression.normal_scores`, so the name stays bound
from .robust_stats import RobustSummary, _robust_summaries, normal_scores

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
    "weighted_lasso_cd",
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
    supports: tuple
    iterations: np.ndarray
    converged: np.ndarray


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
    diagnostics and the correlation matrix that produced them."""

    beta: np.ndarray
    intercept: float
    support: tuple
    lambda_: float
    path: LassoPath
    cv: CvCurve | None
    summaries: tuple
    columns: tuple
    estimator: str
    weights: AdaptiveWeights
    converged: bool
    correlation: CorrelationMatrix

    @property
    def selected_names(self) -> tuple:
        return tuple(self.columns[1 + j] for j in self.support)


def _weight_vector(w) -> np.ndarray:
    return (w if isinstance(w, AdaptiveWeights) else AdaptiveWeights(w, "given")).weights


def column_summaries(Z, estimator: str = "gr"):
    """Per-column location/scale pairs, response first.

    Robust estimators use median and Qn; the Pearson baseline uses mean and
    standard deviation, matching its own standardisation convention. Both
    are taken over the whole table: up to n = 200 rows the transposed table
    is sorted once, each median is read off its middle columns and each Qn
    off its rows (`robust_stats._robust_summaries`); the Pearson pairs are
    np.mean and np.std(ddof=1) of each column.
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
    """RobustSummary list of per-column arrays; a zero scale raises, naming
    the first such column."""
    out = []
    for name, loc, scale in zip(names, locations.tolist(), scales.tolist()):
        summ = RobustSummary(loc, scale)
        if summ.scale <= 0.0:
            raise ValueError(f"zero scale for column {name!r}")
        out.append(summ)
    return out


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
    if exclusion_eps < 0:
        raise ValueError("exclusion_eps must be nonnegative")
    mag = np.abs(np.asarray(beta_init, dtype=float))
    w = np.full(mag.shape, np.inf)
    keep = mag > exclusion_eps
    w[keep] = 1.0 / mag[keep]
    return AdaptiveWeights(w, source)


def lambda_grid(gram, c, w, n: int, n_lambda: int = 100,
                ratio: float = 1e-3) -> np.ndarray:
    """Descending log-spaced grid from lambda_max (smallest lambda with an
    all-zero solution) down to lambda_max * ratio."""
    if n_lambda < 2:
        raise ValueError("n_lambda must be at least 2")
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be in (0, 1)")
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
    """Exact homotopy down a lambda grid for a stack of problems sharing the
    weights and the grid: (coefficients, pieces, certified) of shapes
    (F, G, p), (F, G) and (F, G) for F problems (grams (F, p, p), cs (F, p))
    and G grid points.

    The grid must be finite, nonnegative and strictly descending, and the
    grams, cs and weights of matching sizes; any other raises ValueError.
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
    live problem (its last kink still above the last grid point) with one
    stacked solve: each active block, in ascending index order, is padded
    to the round's largest by distinct finite-weight inactive coordinates
    with identity rows and columns and a zero right-hand side, so their u
    and v are 0. A stack of one is never padded and rounds as a single
    problem would. Each round only records its pieces, active-set wide
    (live rows, padded indices, u and v, the lambdas where they start and
    end); after the rounds one vectorised pass writes every grid point off
    its piece (`_write_pieces`), and one KKT pass per problem certifies its
    whole path. `pieces[f, i]` counts problem f's pieces started since grid
    point i - 1.
    """
    if not (np.isfinite(grid).all() and (grid >= 0.0).all()
            and (np.diff(grid) < 0.0).all()):
        raise ValueError("lambda grid must be finite, nonnegative and "
                         "strictly descending")
    n_prob, p = cs.shape
    if grams.shape != (n_prob, p, p) or wv.shape != (p,):
        raise ValueError("dimension mismatch between gram, c and weights")
    finite = np.isfinite(wv)
    if (np.diagonal(grams, axis1=1, axis2=2)[:, finite] <= 0.0).any():
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
        # actives in ascending order, then finite-weight inactive pads
        idx = np.argsort(np.where(on, 0, off_key), axis=1,
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
        rhs[..., 1] = wv[idx] * s_a / (2.0 * n)
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
        room = wv - s * d
        mag = np.abs(a)
        join = finite & ~on & (mag > slack) & (room > 0.0)
        kink = np.where(join, np.minimum(np.divide(
            mag, room, out=np.zeros(a.shape), where=join), here), kink)
        k = np.argmax(kink, axis=1)
        end = kink[at, k]
        lam[live] = end
        # idx.ravel() copies the slice, so the full-width argsort is freed
        rounds.append((live, here[:, 0], end, idx.ravel(), uv))
        # k leaves or joins; once no grid point is left the change goes unused
        sign[live, k] = np.where(on[at, k], 0.0, s[at, k])
        live = live[end > grid[-1]]
    coefs, pieces = _write_pieces(rounds, grid, n_prob, p)
    del rounds  # not held through the certificates
    # one KKT pass per problem: a pass over the whole stack holds several
    # (F, G, p) temporaries, MBs of peak memory at p = 200
    return coefs, pieces, np.array(
        [_kkt(g, c, grid, wv, slack, n, b) for g, c, b in zip(grams, cs, coefs)])


def _write_pieces(rounds, grid, n_prob, p):
    """Coefficients (F, G, p) and piece counts (F, G) from the pieces the
    rounds of `_solve_path` recorded: per round its live problems, the
    lambdas where their pieces start and end, the padded active indices and
    the solved [u v]. A piece holds the grid points below its start down to
    its end, and writes u - lambda v at each of them."""
    coefs = np.zeros((n_prob, grid.size, p))
    if not rounds:
        return coefs, np.zeros((n_prob, grid.size), dtype=int)
    live, here, end, idx, uv = zip(*rounds)
    prob = np.concatenate(live)
    neg = -grid  # ascending, so both ends are found by one search each
    start = np.searchsorted(neg, -np.concatenate(here), side="right")
    stop = np.searchsorted(neg, -np.concatenate(end), side="right")
    pieces = np.bincount(prob * grid.size + start,
                         minlength=n_prob * grid.size).reshape(n_prob, -1)
    # the records are ragged: piece q holds w[q] entries from o[q] on
    w = np.repeat([b.shape[1] for b in uv], [b.shape[0] for b in uv])
    o = np.cumsum(w) - w
    idx = np.concatenate(idx)
    uv = np.concatenate([b.reshape(-1, 2) for b in uv])
    # one entry per (grid point, padded active coordinate) of each piece
    size = stop - start
    q = np.repeat(np.arange(prob.size), size)
    wq = w[q]
    i = np.repeat(_ranges(start, size), wq)
    pos = _ranges(o[q], wq)
    coefs[np.repeat(prob[q], wq), i, idx[pos]] = (
        uv[pos, 0] - grid[i] * uv[pos, 1])
    return coefs, pieces


def _ranges(starts, counts):
    """The ranges starts[k], ..., starts[k] + counts[k] - 1, concatenated."""
    return np.arange(counts.sum()) + np.repeat(
        starts - (np.cumsum(counts) - counts), counts)


def weighted_lasso_cd(gram, c, w, lam: float, n: int,
                      tol: float = 1e-7) -> np.ndarray:
    """Minimise n b'Gb - 2n b'c + lambda sum w_j |b_j| for a finite,
    nonnegative `lam`: the exact path (`_solve_path`) traced from lambda_max
    down to `lam`, with a KKT certificate within 10 * tol * n; an
    uncertified solution warns."""
    b, pieces, ok = _solve_path(np.asarray(gram, dtype=float)[None],
                                np.asarray(c, dtype=float)[None],
                                _weight_vector(w), np.array([float(lam)]), n,
                                tol)
    if not ok[0, 0]:
        warnings.warn(f"the lasso path stopped after {pieces[0, 0]} pieces "
                      "without a KKT certificate; returning its solution")
    return b[0, 0]


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
    rows, cols = np.nonzero(coefs != 0.0)
    cols = cols.tolist()
    ends = np.cumsum(np.bincount(rows, minlength=grid.size)).tolist()
    supports = tuple(tuple(cols[a:b]) for a, b in zip([0] + ends, ends))
    return LassoPath(lambdas=grid.copy(), coefficients=coefs,
                     supports=supports, iterations=pieces, converged=conv)


def fit_path(cov, w, grid, n: int, tol: float = 1e-7) -> LassoPath:
    """Exact solution path read off at a descending lambda grid.

    `cov` is anything with `xx`/`xy` partitions (a CorrelationMatrix or a
    CovarianceModel).
    """
    grid = np.asarray(grid, dtype=float)
    coefs, pieces, conv = _solve_path(
        np.asarray(cov.xx, dtype=float)[None],
        np.asarray(cov.xy, dtype=float)[None], _weight_vector(w), grid, n, tol)
    return _lasso_path(grid, coefs[0], pieces[0], conv[0])


def _cv_folds(values, folds, seed):
    """The folds of a response-first table: (grams, cs, held-out row
    blocks), with grams (folds, p, p) and cs (folds, p).

    Rows are shuffled once by `seed` and split into contiguous blocks; each
    fold's gram/c come from the Pearson correlation of the other blocks'
    rows, taken in sorted row order.
    """
    if folds < 2:
        raise ValueError("folds must be at least 2")
    if values.shape[0] < folds:
        raise ValueError("need at least as many rows as folds")
    perm = np.random.default_rng(seed).permutation(values.shape[0])
    blocks = np.array_split(perm, folds)
    corrs = []
    for block in blocks:
        keep = np.ones(values.shape[0], dtype=bool)
        keep[block] = False
        corrs.append(_pearson_of_values(values[keep]))
    corrs = np.array(corrs)
    return corrs[:, 1:, 1:], corrs[:, 1:, 0], blocks


def cross_validate(pseudo, w, grid, folds: int = 5, seed: int = 0, n=None,
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
    if n is None:
        n = values.shape[0]
    grid = np.asarray(grid, dtype=float)
    grams, cs, blocks = _cv_folds(values, folds, seed)
    coefs, _, conv = _solve_path(grams, cs, _weight_vector(w), grid, n, tol)
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
    intercept from the column locations."""
    beta_std = np.asarray(beta_std, dtype=float)
    resp = summaries[0]
    preds = summaries[1:]
    if len(preds) != beta_std.size:
        raise ValueError("summary/coefficient length mismatch")
    scales = np.asarray([s.scale for s in preds], dtype=float)
    if np.any(scales <= 0.0):
        raise ValueError("zero scale in predictor summaries")
    beta = beta_std * resp.scale / scales
    locs = np.asarray([s.location for s in preds], dtype=float)
    intercept = resp.location - float(locs @ beta)
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


def _ridge_kappa_by_cv(values, folds, seed):
    """Pick the ridge penalty for the initial estimate from `_RIDGE_KAPPAS`
    by pseudo-data CV: one solve over the fold stack per kappa."""
    grams, cs, blocks = _cv_folds(values, folds, seed)
    eye = np.eye(grams.shape[1])
    errs = []
    for kap in _RIDGE_KAPPAS:
        betas = np.linalg.solve(grams + kap * eye, cs[..., None])[..., 0]
        errs.append([np.mean((values[block, 0] - values[block, 1:] @ b) ** 2)
                     for block, b in zip(blocks, betas)])
    return float(_RIDGE_KAPPAS[int(np.argmin(np.mean(errs, axis=1)))])


def fit_gr_alasso(Z, *, estimator: str = "gr", weights: str = "auto",
                  kappa=0.1, exclusion_eps: float = 1e-10,
                  n_lambda: int = 100, lambda_ratio=None, folds: int = 5,
                  rule: str = "1se", seed: int = 0, fixed_lambda=None,
                  tol: float = 1e-7) -> SelectionFit:
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
    instead of the one-standard-error choice.
    """
    Z = DataMatrix(*as_table(Z))
    if Z.n < 10:
        raise ValueError("need at least 10 observations")
    kind = _ESTIMATOR_KINDS.get(estimator)
    if kind is None:
        raise ValueError(f"unknown estimator {estimator!r}")
    if rule not in ("1se", "min"):
        raise ValueError(f"unknown selection rule {rule!r}")
    if fixed_lambda is not None and not 0.0 <= fixed_lambda < np.inf:
        raise ValueError("lambda must be finite and nonnegative")
    n, p = Z.n, Z.p

    summaries = column_summaries(Z, estimator)
    scores = score_matrix(Z, kind)
    R = CorrelationMatrix(_pearson_of_values(scores, Z.columns), kind, Z.columns)

    low_dim = p < n / 2
    if weights == "unit":
        wobj = AdaptiveWeights(np.ones(p), "unit")
    elif weights in ("auto", "direct", "ridge"):
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
            kap = (_ridge_kappa_by_cv(scores, folds, seed)
                   if kappa == "cv" else float(kappa))
            beta_init = initial_estimate_ridge(R, kap)
            wobj = adaptive_weights(beta_init, exclusion_eps, f"ridge(kappa={kap:g})")
    else:
        raise ValueError(f"unknown weights mode {weights!r}")

    if fixed_lambda is None:
        ratio = lambda_ratio if lambda_ratio is not None else (1e-3 if low_dim else 1e-2)
        grid = lambda_grid(R.xx, R.xy, wobj, n, n_lambda=n_lambda, ratio=ratio)
        # the folds and the full-data path, traced in lockstep
        grams, cs, blocks = _cv_folds(scores, folds, seed)
        grams = np.concatenate([grams, R.xx[None]])
        cs = np.concatenate([cs, R.xy[None]])
        coefs, pieces, conv = _solve_path(grams, cs, wobj.weights, grid, n,
                                          tol)
        cv = _cv_curve(scores, blocks, grid, coefs[:-1], conv[:-1])
        idx = cv.idx_1se if rule == "1se" else cv.idx_min
        # a copy, so that the fit does not hold the fold rows
        path = _lasso_path(grid, coefs[-1].copy(), pieces[-1], conv[-1])
    else:
        grid, cv, idx = np.array([float(fixed_lambda)]), None, 0
        path = fit_path(R, wobj, grid, n, tol=tol)
    beta, intercept = destandardize(path.coefficients[idx], summaries)
    return SelectionFit(beta=beta, intercept=intercept,
                        support=path.supports[idx], lambda_=float(grid[idx]),
                        path=path, cv=cv, summaries=tuple(summaries),
                        columns=Z.columns, estimator=kind, weights=wobj,
                        converged=bool(path.converged[idx]), correlation=R)
