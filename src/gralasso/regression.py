"""Adaptive-Lasso variable selection driven by a correlation-matrix loss.

The fitted objective is the covariance-form quadratic

    n * b' G b  -  2 n * b' c  +  lambda * sum_j w_j |b_j|

with G and c the predictor block and predictor-response column of a
(robust) correlation matrix. Fitting happens on the standardised scale
(unit diagonal), and coefficients are mapped back to original units at the
end. Cellwise robustness comes entirely from the plugged-in correlation
estimator and the per-column location/scale summaries.

Each lambda is solved by an active-set method warm-started from the
previous grid point: one linear solve on the working set per round, a
feature-sign line search when a sign flips, and a vectorised KKT check that
certifies the solution or admits violators. A singular working-set block
(p > n in ridge mode, tied predictors) is stepped along its null direction.
Cyclic soft-threshold sweeps over the working set remain only as the
fallback when the certificate stalls or the round budget runs out.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .covariance import CorrelationMatrix, _pearson_of_values, score_matrix
from .data import DataMatrix, as_table
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

    `iterations[i]` counts the solver rounds spent at lambda i: passes of the
    active-set loop (one linear solve and a sign or KKT check each) plus any
    fallback coordinate sweeps.
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
    return w.weights if isinstance(w, AdaptiveWeights) else np.asarray(w, dtype=float)


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


# Rounds of the active-set loop allowed per solve before the soft-threshold
# sweep takes over.
_ROUND_BUDGET = 50
# Relative curvature (to the largest diagonal entry of the gram) along a
# solve's step below which the working-set block counts as singular.
_FLAT = 1e-12


def _kkt(gram, c, lamw, finite, slack, n, b):
    """KKT check at b within `slack`; +inf weights are pinned at zero and
    skipped. Returns (certified, violating zero coordinates, 2n(Gb - c))."""
    grad = 2.0 * n * (gram @ b - c)
    nz = finite & (b != 0.0)
    viol = finite & (b == 0.0) & (np.abs(grad) > lamw + slack)
    ok = not viol.any() and bool(
        (np.abs(grad[nz] + lamw[nz] * np.sign(b[nz])) <= slack).all())
    return ok, viol, grad


def _cd_solve(gram, c, wv, lam, n, warm, tol, max_iter):
    """Active-set solve of the penalised quadratic from a warm start.

    The working set A is the warm start's support plus every admissible
    coordinate whose gradient exceeds its penalty; an entrant takes the sign
    opposite to its gradient. A round solves G_AA x = c_A - lambda w_A s_A /
    (2n) with the signs s fixed. If every sign of x agrees with s, x is
    accepted and one vectorised KKT check certifies it or adds the violating
    coordinates to A. Otherwise the iterate moves toward x up to the first
    sign crossing and the crossing coordinate leaves A (feature-sign line
    search). A singular G_AA gives no x; the iterate then moves along a null
    direction of G_AA, downhill for the signed objective, to its first sign
    crossing. If the certificate fails on the working set itself, no crossing
    bounds a null direction or `_ROUND_BUDGET` rounds pass, the
    soft-threshold sweep over A (`_sweep`) takes over. Returns (solution,
    rounds, converged); a round is one pass of the loop here or one sweep
    there.
    """
    p = c.size
    b = np.zeros(p) if warm is None else np.array(warm, dtype=float, copy=True)
    finite = np.isfinite(wv)
    b[~finite] = 0.0
    diag = np.diagonal(gram)[finite]
    if (diag <= 0.0).any():
        raise ValueError("degenerate predictor variance")
    # curvature per unit step below which G_AA counts as singular
    flat = _FLAT * diag.max() if diag.size else 0.0
    lamw = np.full(p, np.inf)
    lamw[finite] = lam * wv[finite]
    thr = lamw / (2.0 * n)
    slack = 10.0 * tol * n
    # grad stays current while A holds entrants: only a step of length zero
    # leaves them in A, and it does not move b
    grad = 2.0 * n * (gram @ b - c)
    active = finite & ((b != 0.0) | (np.abs(grad) > lamw))
    rounds = 0
    while rounds < _ROUND_BUDGET:
        rounds += 1
        idx = np.flatnonzero(active)
        if idx.size:
            b_a = b[idx]
            sign = np.sign(b_a)
            entrant = sign == 0.0
            sign[entrant] = -np.sign(grad[idx[entrant]])
            g_aa = gram[idx[:, None], idx]
            t_max = 1.0
            try:
                x = np.linalg.solve(g_aa, c[idx] - thr[idx] * sign)
                move = x - b_a
                norm2 = move @ move
                if not norm2 <= 0.0 and not move @ (g_aa @ move) > flat * norm2:
                    raise np.linalg.LinAlgError
            except np.linalg.LinAlgError:
                # G_AA is (numerically) singular, so the signed objective has
                # no minimiser on A: move downhill along a null direction
                x, t_max = None, np.inf
                move = np.linalg.eigh(g_aa)[1][:, 0]
                if (2.0 * n * (gram[idx] @ b - c[idx])
                        + lamw[idx] * sign) @ move > 0.0:
                    move = -move
            if x is None or (lam > 0.0 and not (x * sign > 0.0).all()):
                sd = sign * move
                dec = sd < 0.0
                t_cross = np.full(idx.size, np.inf)
                t_cross[dec] = sign[dec] * b_a[dec] / -sd[dec]
                t = min(t_max, t_cross.min())
                if t == np.inf:
                    break
                if t > 0.0:
                    step = b_a + t * move
                    step[t_cross <= t] = 0.0
                    b[idx] = step
                    out = step * sign <= 0.0
                else:
                    # only entrants cross at t = 0; if all of them turned,
                    # keep the largest violator, which alone cannot turn at
                    # an exact solution on the support
                    out = t_cross == 0.0
                    if out.sum() == entrant.sum() > 1:
                        ent = idx[entrant]
                        out[np.flatnonzero(entrant)[
                            np.argmax(np.abs(grad[ent]) - lamw[ent])]] = False
                gone = idx[out]
                b[gone] = 0.0
                active[gone] = False
                continue
            before = b.copy()
            b[idx] = x
        ok, viol, grad = _kkt(gram, c, lamw, finite, slack, n, b)
        if ok:
            return b, rounds, True
        if not viol.any():
            # the certificate fails on the working set itself: x is not
            # accurate enough (near-singular G_AA) or the slack is zero, so
            # the sweep starts from the iterate before this solve
            b = before
            break
        active |= viol
    return _sweep(gram, c, thr, lamw, finite, slack, n, b, active, tol,
                  max_iter, rounds)


def _sweep(gram, c, thr, lamw, finite, slack, n, b, active, tol, max_iter,
           rounds):
    """Cyclic soft-threshold coordinate descent over the working set, the
    fallback of `_cd_solve`. After a sweep whose largest coordinate change is
    below `tol`, the full KKT check certifies b or adds its violators to the
    set; at most `max_iter` sweeps."""
    diag = np.diagonal(gram)
    order = np.flatnonzero(active)
    s = gram @ b
    for _ in range(max_iter):
        rounds += 1
        dmax = 0.0
        for j in order:
            gj = diag[j]
            rho = c[j] - s[j] + gj * b[j]
            t = thr[j]
            if rho > t:
                bj = (rho - t) / gj
            elif rho < -t:
                bj = (rho + t) / gj
            else:
                bj = 0.0
            d = bj - b[j]
            if d != 0.0:
                s += d * gram[j]
                b[j] = bj
                ad = abs(d)
                if ad > dmax:
                    dmax = ad
        if dmax < tol:
            s = gram @ b
            ok, viol, _ = _kkt(gram, c, lamw, finite, slack, n, b)
            if ok:
                return b, rounds, True
            active |= viol
            order = np.flatnonzero(active)
    return b, rounds, False


def weighted_lasso_cd(gram, c, w, lam: float, n: int, warm=None,
                      tol: float = 1e-7, max_iter: int = 10000) -> np.ndarray:
    """Minimise n b'Gb - 2n b'c + lambda sum w_j |b_j|.

    Active-set solver: each round solves the stationarity equations
    G_AA b_A = c_A - lambda w_A sign(b_A) / (2n) on a working set A with one
    linear solve, steps back to the first sign crossing when a sign flips
    (along a null direction when G_AA is singular), and admits the
    coordinates that violate the KKT conditions until they certify the
    solution within 10 * tol * n. A stalled certificate or an exhausted round
    budget falls back to cyclic soft-threshold updates over A, at most
    `max_iter` sweeps, under the same certificate.
    """
    gram = np.asarray(gram, dtype=float)
    c = np.asarray(c, dtype=float)
    wv = _weight_vector(w)
    if gram.shape != (c.size, c.size) or wv.size != c.size:
        raise ValueError("dimension mismatch between gram, c and weights")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    b, rounds, converged = _cd_solve(gram, c, wv, lam, n, warm, tol, max_iter)
    if not converged:
        warnings.warn(
            f"the lasso solver stopped after {rounds} rounds without a "
            "KKT certificate; returning the last iterate"
        )
    return b


def penalized_objective(gram, c, w, lam: float, n: int, b) -> float:
    """Objective value n b'Gb - 2n b'c + lambda sum w_j |b_j|."""
    b = np.asarray(b, dtype=float)
    wv = _weight_vector(w)
    quad = float(n * b @ np.asarray(gram, dtype=float) @ b - 2.0 * n * b @ np.asarray(c, dtype=float))
    act = b != 0.0
    if np.any(~np.isfinite(wv[act])):
        return np.inf
    return quad + float(lam * np.sum(wv[act] * np.abs(b[act])))


def _solve_path(gram, c, wv, grid, n, tol, max_iter):
    """Warm-started solves down a descending grid: (coefficients, rounds,
    converged), one row or entry per lambda."""
    coefs = np.zeros((grid.size, c.size))
    rounds = np.zeros(grid.size, dtype=int)
    conv = np.zeros(grid.size, dtype=bool)
    b = None
    for i, lam in enumerate(grid):
        b, rounds[i], conv[i] = _cd_solve(gram, c, wv, float(lam), n, b, tol,
                                          max_iter)
        coefs[i] = b
    return coefs, rounds, conv


def fit_path(cov, w, grid, n: int, tol: float = 1e-7,
             max_iter: int = 10000) -> LassoPath:
    """Warm-started solution path over a descending lambda grid.

    `cov` is anything with `xx`/`xy` partitions (a CorrelationMatrix or a
    CovarianceModel).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size > 1 and np.any(np.diff(grid) >= 0):
        raise ValueError("lambda grid must be strictly descending")
    coefs, rounds, conv = _solve_path(
        np.asarray(cov.xx, dtype=float), np.asarray(cov.xy, dtype=float),
        _weight_vector(w), grid, n, tol, max_iter)
    if not np.all(conv):
        warnings.warn("the lasso solver did not certify convergence at "
                      f"{int(np.sum(~conv))} of {grid.size} grid points")
    supports = tuple(tuple(int(j) for j in np.flatnonzero(b != 0.0))
                     for b in coefs)
    return LassoPath(lambdas=grid.copy(), coefficients=coefs,
                     supports=supports, iterations=rounds, converged=conv)


def _cv_folds(values, folds, seed):
    """Yield (gram, c, held-out y, held-out X) per fold of a response-first
    table.

    Rows are shuffled once by `seed` and split into contiguous blocks; each
    fold's gram/c come from the Pearson correlation of the other blocks'
    rows, taken in sorted row order.
    """
    perm = np.random.default_rng(seed).permutation(values.shape[0])
    for block in np.array_split(perm, folds):
        corr = _pearson_of_values(values[np.setdiff1d(perm, block)])
        yield corr[1:, 1:], corr[1:, 0], values[block, 0], values[block, 1:]


def cross_validate(pseudo, w, grid, folds: int = 5, seed: int = 0, n=None,
                   tol: float = 1e-7, max_iter: int = 10000) -> CvCurve:
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
    if folds < 2:
        raise ValueError("folds must be at least 2")
    if n_rows < folds:
        raise ValueError("need at least as many rows as folds")
    if n is None:
        n = n_rows
    grid = np.asarray(grid, dtype=float)
    wv = _weight_vector(w)
    errors = np.empty((folds, grid.size))
    uncertified = 0
    for f, (gram, cvec, held_y, held_x) in enumerate(
            _cv_folds(values, folds, seed)):
        n_train = n_rows - held_y.size
        if p < n_rows and n_train < p + 2:
            warnings.warn(
                f"fold {f}: only {n_train} training rows for {p} predictors"
            )
        coefs, _, conv = _solve_path(gram, cvec, wv, grid, n, tol, max_iter)
        uncertified += int(np.sum(~conv))
        errors[f] = np.mean((held_y[:, None] - held_x @ coefs.T) ** 2, axis=0)
    if uncertified:
        warnings.warn("cross-validation: the lasso solver did not certify "
                      f"convergence at {uncertified} of {folds * grid.size} "
                      "fold grid points")
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
    y = values[:, 0]
    if np.all(y == y[0]):
        raise ValueError("degenerate response: all values tied")
    ys = normal_scores(y)
    ys = (ys - ys.mean()) / np.linalg.norm(ys - ys.mean())
    out = np.zeros(values.shape[1] - 1)
    for j in range(1, values.shape[1]):
        col = values[:, j]
        if np.all(col == col[0]):
            continue
        xs = normal_scores(col)
        xs = xs - xs.mean()
        norm = np.linalg.norm(xs)
        if norm > 0.0:
            out[j - 1] = float(ys @ (xs / norm))
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
    errs = np.zeros((folds, len(kappas)))
    for f, (gram, cvec, held_y, held_x) in enumerate(
            _cv_folds(values, folds, seed)):
        for i, kap in enumerate(kappas):
            resid = held_y - held_x @ np.linalg.solve(gram + kap * eye, cvec)
            errs[f, i] = np.mean(resid * resid)
    return float(kappas[int(np.argmin(errs.mean(axis=0)))])


def fit_gr_alasso(Z, *, estimator: str = "gr", weights: str = "auto",
                  kappa=0.1, exclusion_eps: float = 1e-10,
                  n_lambda: int = 100, lambda_ratio=None, folds: int = 5,
                  rule: str = "1se", seed: int = 0, fixed_lambda=None,
                  tol: float = 1e-7, max_iter: int = 10000) -> SelectionFit:
    """Fit the full selection pipeline on a response-first data table.

    Steps: per-column summaries -> pseudo-data scores -> correlation matrix
    -> initial estimate (direct when p < n/2, ridge otherwise) -> adaptive
    weights -> lambda grid -> pseudo-data cross-validation -> coefficients
    at the chosen lambda -> original units.

    `estimator` selects the correlation plug-in ("gr", "spearman" or
    "pearson"); `weights` one of "auto", "direct", "ridge" or "unit" (plain
    Lasso). `kappa` is the ridge penalty for the initial estimate, or "cv"
    to pick it from a log grid by the same pseudo-data cross-validation.
    `fixed_lambda` skips CV and solves at the given penalty. With
    `rule="min"` the CV-minimising lambda is used instead of the
    one-standard-error choice.
    """
    Z = DataMatrix(*as_table(Z))
    if Z.n < 10:
        raise ValueError("need at least 10 observations")
    kind = _ESTIMATOR_KINDS.get(estimator)
    if kind is None:
        raise ValueError(f"unknown estimator {estimator!r}")
    if rule not in ("1se", "min"):
        raise ValueError(f"unknown selection rule {rule!r}")
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
            beta_init = initial_estimate_direct(R)
            wobj = adaptive_weights(beta_init, exclusion_eps, "direct-inverse")
        else:
            kap = (_ridge_kappa_by_cv(scores, folds, seed)
                   if kappa == "cv" else float(kappa))
            beta_init = initial_estimate_ridge(R, kap)
            wobj = adaptive_weights(beta_init, exclusion_eps, f"ridge(kappa={kap:g})")
    else:
        raise ValueError(f"unknown weights mode {weights!r}")

    ratio = lambda_ratio if lambda_ratio is not None else (1e-3 if low_dim else 1e-2)
    grid = lambda_grid(R.xx, R.xy, wobj, n, n_lambda=n_lambda, ratio=ratio)

    cv = None
    if fixed_lambda is None:
        cv = cross_validate(scores, wobj, grid, folds=folds, seed=seed, n=n,
                            tol=tol, max_iter=max_iter)
        idx = cv.idx_1se if rule == "1se" else cv.idx_min
        chosen = float(grid[idx])
    else:
        if fixed_lambda < 0:
            raise ValueError("lambda must be nonnegative")
        chosen = float(fixed_lambda)

    path = fit_path(R, wobj, grid, n, tol=tol, max_iter=max_iter)
    if fixed_lambda is None:
        b_std = path.coefficients[idx]
        converged = bool(path.converged[idx])
    else:
        b_std, _, converged = _cd_solve(R.xx, R.xy, wobj.weights, chosen, n,
                                        path.coefficients[-1], tol, max_iter)

    beta, intercept = destandardize(b_std, summaries)
    support = tuple(int(j) for j in np.flatnonzero(b_std != 0.0))
    return SelectionFit(beta=beta, intercept=intercept, support=support,
                        lambda_=chosen, path=path, cv=cv,
                        summaries=tuple(summaries), columns=Z.columns,
                        estimator=kind, weights=wobj, converged=converged,
                        correlation=R)
