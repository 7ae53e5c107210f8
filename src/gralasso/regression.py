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
certificate pass over the whole path. Cross-validation folds, the final
path and a fixed lambda all run through the same path.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .covariance import CorrelationMatrix, _pearson_of_values, score_matrix
from .data import DataMatrix, as_table
# `normal_scores` is not called here, but the benchmark's tracer wraps
# `regression.normal_scores`, so the name stays bound
from .robust_stats import RobustSummary, normal_scores, robust_summary

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
    standard deviation, matching its own standardisation convention.
    """
    kind = _ESTIMATOR_KINDS.get(estimator)
    if kind is None:
        raise ValueError(f"unknown estimator {estimator!r}")
    values, names = as_table(Z)
    out = []
    for j in range(values.shape[1]):
        col = values[:, j]
        if kind == "pearson":
            summ = RobustSummary(float(np.mean(col)), float(np.std(col, ddof=1)))
        else:
            summ = robust_summary(col)
        if summ.scale <= 0.0:
            raise ValueError(f"zero scale for column {names[j]!r}")
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


def _solve_path(gram, c, wv, grid, n, tol):
    """Exact homotopy down a descending grid: (coefficients, pieces,
    certified), one row or entry per lambda.

    From lambda = +inf and an empty active set A, each piece solves
    G_AA [u v] = [c_A, w_A s_A / (2n)] once, so b_A = u - lambda v with the
    active signs s. It ends at the largest lambda below the current one
    where an active b_k reaches zero moving toward it (s_k v_k < 0), or an
    inactive |a_j + lambda d_j| reaches lambda w_j from below (w_j -+ d_j >
    0), with a = 2n(c - G_:A u) and d = 2n G_:A v; k leaves or j joins A.
    Joins with |a_j| <= 10 tol n are skipped: the piece already certifies j
    at every lower lambda, and such rounding-level joins would make G_AA
    singular on rank-deficient or duplicated predictors. Each piece writes
    all of its grid points at once, and one KKT pass certifies the whole
    path; `pieces[i]` counts the pieces started since grid point i - 1.
    """
    finite = np.isfinite(wv)
    if (np.diagonal(gram)[finite] <= 0.0).any():
        raise ValueError("degenerate predictor variance")
    slack = 10.0 * tol * n
    coefs = np.zeros((grid.size, c.size))
    pieces = np.zeros(grid.size, dtype=int)
    sign = np.zeros(c.size)  # active coordinates carry their sign, others 0
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
        # kinks below lam: (lambda, coordinate, its new sign; 0 leaves)
        leave = s_a * v < 0.0
        kinks = [(u[leave] / v[leave], active[leave], np.zeros(leave.sum()))]
        out = finite & (sign == 0.0) & (np.abs(a) > slack)
        for s in (1.0, -1.0):
            j = np.flatnonzero(out & (wv - s * d > 0.0))
            kinks.append((s * a[j] / (wv[j] - s * d[j]), j, np.full(j.size, s)))
        lams, who, how = (np.concatenate(t) for t in zip(*kinks))
        # a join at or above lam is a tie within rounding and happens at once;
        # a leave must come strictly below lam
        join = how != 0.0
        lams[join] = np.minimum(lams[join], lam)
        lams[(lams < 0.0) | (~join & (lams >= lam))] = 0.0
        lam = lams.max(initial=0.0)
        end = i + int(np.count_nonzero(grid[i:] >= lam))
        coefs[i:end, active] = u - grid[i:end, None] * v
        i = end
        if i < grid.size:
            # a grid point is left below lam > 0, so a kink ends this piece
            k = int(np.argmax(lams))
            sign[who[k]] = how[k]
    return coefs, pieces, _kkt(gram, c, grid, wv, slack, n, coefs)


def weighted_lasso_cd(gram, c, w, lam: float, n: int,
                      tol: float = 1e-7) -> np.ndarray:
    """Minimise n b'Gb - 2n b'c + lambda sum w_j |b_j|: the exact path
    (`_solve_path`) traced from lambda_max down to `lam`, with a KKT
    certificate within 10 * tol * n; an uncertified solution warns."""
    gram = np.asarray(gram, dtype=float)
    c = np.asarray(c, dtype=float)
    wv = _weight_vector(w)
    if gram.shape != (c.size, c.size) or wv.size != c.size:
        raise ValueError("dimension mismatch between gram, c and weights")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    b, pieces, ok = _solve_path(gram, c, wv, np.array([float(lam)]), n, tol)
    if not ok[0]:
        warnings.warn(f"the lasso path stopped after {pieces[0]} pieces "
                      "without a KKT certificate; returning its solution")
    return b[0]


def penalized_objective(gram, c, w, lam: float, n: int, b) -> float:
    """Objective value n b'Gb - 2n b'c + lambda sum w_j |b_j|."""
    b = np.asarray(b, dtype=float)
    wv = _weight_vector(w)
    quad = float(n * b @ np.asarray(gram, dtype=float) @ b - 2.0 * n * b @ np.asarray(c, dtype=float))
    act = b != 0.0
    if np.any(~np.isfinite(wv[act])):
        return np.inf
    return quad + float(lam * np.sum(wv[act] * np.abs(b[act])))


def fit_path(cov, w, grid, n: int, tol: float = 1e-7) -> LassoPath:
    """Exact solution path read off at a descending lambda grid.

    `cov` is anything with `xx`/`xy` partitions (a CorrelationMatrix or a
    CovarianceModel).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size > 1 and np.any(np.diff(grid) >= 0):
        raise ValueError("lambda grid must be strictly descending")
    coefs, pieces, conv = _solve_path(
        np.asarray(cov.xx, dtype=float), np.asarray(cov.xy, dtype=float),
        _weight_vector(w), grid, n, tol)
    if not np.all(conv):
        warnings.warn("the lasso solver did not certify convergence at "
                      f"{int(np.sum(~conv))} of {grid.size} grid points")
    supports = tuple(tuple(int(j) for j in np.flatnonzero(b != 0.0))
                     for b in coefs)
    return LassoPath(lambdas=grid.copy(), coefficients=coefs,
                     supports=supports, iterations=pieces, converged=conv)


def _cv_folds(values, folds, seed):
    """Yield (gram, c, held-out y, held-out X) per fold of a response-first
    table.

    Rows are shuffled once by `seed` and split into contiguous blocks; each
    fold's gram/c come from the Pearson correlation of the other blocks'
    rows, taken in sorted row order.
    """
    if folds < 2:
        raise ValueError("folds must be at least 2")
    if values.shape[0] < folds:
        raise ValueError("need at least as many rows as folds")
    perm = np.random.default_rng(seed).permutation(values.shape[0])
    for block in np.array_split(perm, folds):
        keep = np.ones(values.shape[0], dtype=bool)
        keep[block] = False
        corr = _pearson_of_values(values[keep])
        yield corr[1:, 1:], corr[1:, 0], values[block, 0], values[block, 1:]


def cross_validate(pseudo, w, grid, folds: int = 5, seed: int = 0, n=None,
                   tol: float = 1e-7) -> CvCurve:
    """K-fold cross-validation on the pseudo-data (response in column 0).

    Rows are shuffled once with the given seed and split into contiguous
    blocks. Each fold refits the Pearson correlation matrix of its training
    rows, traces the path with the provided weights, and scores the held-out
    rows by the mean squared residual of pseudo response minus pseudo
    predictors times the standardised coefficients. `idx_min` marks the
    smallest mean error; `idx_1se` the largest lambda whose mean error stays
    within one standard error of it.
    """
    values, _ = as_table(pseudo)
    n_rows, width = values.shape
    p = width - 1
    if n is None:
        n = n_rows
    grid = np.asarray(grid, dtype=float)
    wv = _weight_vector(w)
    errors = []
    uncertified = 0
    for f, (gram, cvec, held_y, held_x) in enumerate(
            _cv_folds(values, folds, seed)):
        n_train = n_rows - held_y.size
        if p < n_rows and n_train < p + 2:
            warnings.warn(
                f"fold {f}: only {n_train} training rows for {p} predictors"
            )
        coefs, _, conv = _solve_path(gram, cvec, wv, grid, n, tol)
        uncertified += int(np.sum(~conv))
        errors.append(np.mean((held_y[:, None] - held_x @ coefs.T) ** 2,
                              axis=0))
    if uncertified:
        warnings.warn("cross-validation: the lasso solver did not certify "
                      f"convergence at {uncertified} of {folds * grid.size} "
                      "fold grid points")
    errors = np.array(errors)
    mean = errors.mean(axis=0)
    se = errors.std(axis=0, ddof=1) / np.sqrt(folds)
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


def _ridge_kappa_by_cv(values, folds, seed, kappas=None):
    """Pick the ridge penalty for the initial estimate by pseudo-data CV."""
    if kappas is None:
        kappas = np.logspace(-3.0, 1.0, 9)
    eye = np.eye(values.shape[1] - 1)
    errs = [[np.mean((held_y - held_x @ np.linalg.solve(gram + kap * eye,
                                                          cvec)) ** 2)
             for kap in kappas]
            for gram, cvec, held_y, held_x in _cv_folds(values, folds, seed)]
    return float(kappas[int(np.argmin(np.mean(errs, axis=0)))])


def fit_gr_alasso(Z, *, estimator: str = "gr", weights: str = "auto",
                  kappa=0.1, exclusion_eps: float = 1e-10,
                  n_lambda: int = 100, lambda_ratio=None, folds: int = 5,
                  rule: str = "1se", seed: int = 0, fixed_lambda=None,
                  tol: float = 1e-7) -> SelectionFit:
    """Fit the full selection pipeline on a response-first data table.

    Steps: per-column summaries -> pseudo-data scores -> correlation matrix
    -> initial estimate (direct when p < n/2, ridge otherwise) -> adaptive
    weights -> lambda grid -> pseudo-data cross-validation -> coefficients
    at the chosen lambda -> original units.

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
        cv = cross_validate(scores, wobj, grid, folds=folds, seed=seed, n=n,
                            tol=tol)
        idx = cv.idx_1se if rule == "1se" else cv.idx_min
    else:
        grid, cv, idx = np.array([float(fixed_lambda)]), None, 0

    path = fit_path(R, wobj, grid, n, tol=tol)
    b_std = path.coefficients[idx]
    converged = bool(path.converged[idx])
    beta, intercept = destandardize(b_std, summaries)
    support = tuple(int(j) for j in np.flatnonzero(b_std != 0.0))
    return SelectionFit(beta=beta, intercept=intercept, support=support,
                        lambda_=float(grid[idx]), path=path, cv=cv,
                        summaries=tuple(summaries), columns=Z.columns,
                        estimator=kind, weights=wobj, converged=converged,
                        correlation=R)
