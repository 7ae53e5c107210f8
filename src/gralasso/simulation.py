"""Synthetic benchmarks: AR(1) designs, cellwise contamination, metrics and
replicated grids over contamination rate and outlier magnitude.

Every artifact is a pure function of its seed. Replicate seeds are derived
by a stable 64-bit mix of (rate, magnitude, replicate), so adding grid cells
never perturbs existing ones and replicates can be reproduced in isolation.
"""

import csv
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .data import DataMatrix, write_csv
from .regression import (_check_options, _fit_stack, column_summaries,
                         fit_gr_alasso)

__all__ = [
    "SimDesign",
    "ContaminationSpec",
    "BenchmarkRecord",
    "SelectionRates",
    "RECORD_FIELDS",
    "AGGREGATE_FIELDS",
    "mix_seed",
    "cell_seed",
    "ar1_correlation",
    "gen_design",
    "gen_response",
    "contaminate_cells",
    "replicate_data",
    "compute_metrics",
    "run_grid",
    "aggregate_records",
    "write_records_csv",
    "read_records_csv",
    "write_aggregate_csv",
    "selection_stability_study",
]

_MASK64 = (1 << 64) - 1

RECORD_FIELDS = ("e", "gamma", "replicate", "method", "tpr", "fpr",
                 "mse_beta", "mspe", "runtime_ms", "status")
AGGREGATE_FIELDS = ("e", "gamma", "method", "n_ok",
                    "tpr_mean", "tpr_se", "fpr_mean", "fpr_se",
                    "mse_beta_mean", "mse_beta_se", "mspe_mean", "mspe_se")

# What each in-process method is: its estimator, and unit weights for the
# Lasso. These win over `run_grid`'s fit_kwargs. Competitor methods enter
# only through result CSVs with the RECORD_FIELDS schema.
METHOD_OPTIONS = {
    "gr-alasso": {"estimator": "gr"},
    "alasso": {"estimator": "pearson"},
    "lasso": {"estimator": "pearson", "weights": "unit"},
}


def _default_beta(p: int) -> np.ndarray:
    beta = np.zeros(p)
    beta[: min(5, p)] = 1.0
    return beta


@dataclass(frozen=True)
class SimDesign:
    """Linear-model design: n rows, p AR(1)-correlated predictors, the first
    five coefficients equal to one and Gaussian noise."""

    n: int = 100
    p: int = 20
    beta_true: np.ndarray = None
    ar1_rho: float = 0.5
    noise_sd: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError("n and p must be positive")
        if not -1.0 < self.ar1_rho < 1.0:
            raise ValueError("ar1_rho must lie in (-1, 1)")
        if not self.noise_sd > 0:
            raise ValueError("noise_sd must be positive")
        beta = (_default_beta(self.p) if self.beta_true is None
                else np.asarray(self.beta_true, dtype=float))
        if beta.shape != (self.p,):
            raise ValueError("beta_true must have length p")
        object.__setattr__(self, "beta_true", beta)


@dataclass(frozen=True)
class ContaminationSpec:
    """Cellwise replacement: each predictor cell is independently replaced
    with probability `rate` by a draw from N(+-magnitude, 1), sign fair."""

    rate: float
    magnitude: float

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ValueError("rate must lie in [0, 1)")
        if not 0.0 <= self.magnitude < np.inf:
            raise ValueError("magnitude must be nonnegative and finite, "
                             f"got {self.magnitude!r}")


@dataclass(frozen=True)
class BenchmarkRecord:
    e: float
    gamma: float
    replicate: int
    method: str
    tpr: float
    fpr: float
    mse_beta: float
    mspe: float
    runtime_ms: float
    status: str = "ok"


@dataclass(frozen=True)
class SelectionRates:
    """Per-variable selection rates for the clean and contaminated runs of
    the real-data stability protocol."""

    columns: tuple
    clean: np.ndarray
    contaminated: np.ndarray


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix_seed(*parts) -> int:
    """Order-sensitive 64-bit mix of integer parts, for derived RNG streams."""
    h = 0x9E3779B97F4A7C15
    for part in parts:
        h = _splitmix64(h ^ (int(part) & _MASK64))
    return h


def _cell_key(e: float, gamma: float) -> tuple:
    # e rounded to 1e-3 and gamma to 0.1: cells that round alike share
    # replicate seeds, which run_grid rejects
    if np.isinf(gamma * 10):
        raise ValueError(f"magnitude {gamma!r} is too large for a replicate "
                         "seed")
    return round(e * 1000), round(gamma * 10)


def cell_seed(seed0: int, e: float, gamma: float, replicate: int) -> int:
    """Stable per-replicate seed for grid cell (e, gamma)."""
    return mix_seed(seed0, *_cell_key(e, gamma), replicate)


def ar1_correlation(p: int, rho: float) -> np.ndarray:
    if not -1.0 < rho < 1.0:
        raise ValueError("AR(1) parameter must lie in (-1, 1)")
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def gen_design(design: SimDesign) -> np.ndarray:
    """Predictor matrix with rows i.i.d. N(0, Sigma), Sigma_ij = rho^|i-j|,
    via the Cholesky factor; deterministic per seed."""
    sigma = ar1_correlation(design.p, design.ar1_rho)
    chol = np.linalg.cholesky(sigma)
    rng = np.random.default_rng(design.seed)
    return rng.standard_normal((design.n, design.p)) @ chol.T


def gen_response(X, beta_true, noise_sd: float, seed: int) -> np.ndarray:
    """y = X beta + Gaussian noise; deterministic per seed."""
    X = np.asarray(X, dtype=float)
    beta = np.asarray(beta_true, dtype=float)
    if X.shape[1] != beta.size:
        raise ValueError("beta length does not match the number of predictors")
    rng = np.random.default_rng(seed)
    return X @ beta + noise_sd * rng.standard_normal(X.shape[0])


def contaminate_cells(X, spec: ContaminationSpec, seed: int):
    """Replace a Bernoulli(rate) subset of predictor cells by draws from
    N(+-magnitude, 1). Returns the contaminated copy and the boolean mask."""
    X = np.asarray(X, dtype=float)
    rng = np.random.default_rng(seed)
    mask = rng.random(X.shape) < spec.rate
    draws = spec.magnitude + rng.standard_normal(X.shape)
    signs = np.where(rng.random(X.shape) < 0.5, 1.0, -1.0)
    return np.where(mask, signs * draws, X), mask


def compute_metrics(fit_support, beta_hat, beta_true, test_X_clean,
                    test_y_clean, intercept: float = 0.0) -> dict:
    """TPR/FPR of the selected set plus coefficient MSE and clean-data MSPE."""
    beta_true = np.asarray(beta_true, dtype=float)
    beta_hat = np.asarray(beta_hat, dtype=float)
    p = beta_true.size
    active = set(np.flatnonzero(beta_true != 0.0).tolist())
    if not active:
        raise ValueError("no active predictors in the true coefficient vector")
    selected = set(int(j) for j in fit_support)
    inactive = p - len(active)
    tpr = len(selected & active) / len(active)
    fpr = (len(selected - active) / inactive) if inactive else 0.0
    mse_beta = float(np.mean((beta_hat - beta_true) ** 2))
    pred = intercept + np.asarray(test_X_clean, dtype=float) @ beta_hat
    mspe = float(np.mean((pred - np.asarray(test_y_clean, dtype=float)) ** 2))
    return {"tpr": tpr, "fpr": fpr, "mse_beta": mse_beta, "mspe": mspe}


def replicate_data(design: SimDesign, e: float, gamma: float, rs: int,
                   contaminate_test: bool = False):
    """One replicate's data from the seed `rs`: (train, mask, X_test, y_test).

    The training table is `design` with a Bernoulli(e) share of its predictor
    cells replaced (`mask` marks them); the test set is an independent draw of
    n rows, clean unless `contaminate_test` is set.
    """
    # fixed purpose -> position map; appending new streams is fine, but
    # reordering these would silently re-roll every published benchmark.
    # Stream 7 is the CV seed of `_replicate_records`.
    seed_x, seed_eps, seed_cells, seed_tx, seed_teps, seed_tcells = (
        mix_seed(rs, t) for t in range(1, 7)
    )
    spec = ContaminationSpec(e, gamma)
    X = gen_design(replace(design, seed=seed_x))
    y = gen_response(X, design.beta_true, design.noise_sd, seed_eps)
    Xc, mask = contaminate_cells(X, spec, seed_cells)
    X_test = gen_design(replace(design, seed=seed_tx))
    y_test = gen_response(X_test, design.beta_true, design.noise_sd, seed_teps)
    if contaminate_test:
        X_test, _ = contaminate_cells(X_test, spec, seed_tcells)
    return DataMatrix.from_arrays(y, Xc), mask, X_test, y_test


def _replicate_records(task):
    """The records of one replicate, one per method in the order given.

    A method's options are `fit_kwargs` with its `METHOD_OPTIONS` on top
    and the replicate's CV seed; `run_grid` has checked them. The methods
    are fitted as one stack (`regression._fit_stack`, whose per-fit times
    they keep); the Pearson ones share one table stage and one set of
    folds. Each fit is that of `fit_gr_alasso(train, **options)`: the same
    bits but for the last bits of some CV errors, where a fold's stacked
    solves were padded wider than in its own fit. If the stack raises, each
    method is fitted alone by `fit_gr_alasso`, so a failing method fails
    alone, timed on its own. A method whose fit or metrics raise gets NaN
    metrics and the status `failed:<exception type>`.
    """
    design, e, gamma, r, methods, seed0, contaminate_test, fit_kwargs = task
    rs = cell_seed(seed0, e, gamma, r)
    train, _, X_test, y_test = replicate_data(
        design, e, gamma, rs, contaminate_test=contaminate_test)
    options = [{**fit_kwargs, **METHOD_OPTIONS[m], "seed": mix_seed(rs, 7)}
               for m in methods]
    try:
        fits = _fit_stack(train, options)
    except Exception:  # noqa: BLE001 - each method is then fitted alone
        fits = [(None, None)] * len(options)
    records = []
    for method, opts, (fit, ms) in zip(methods, options, fits):
        t0 = time.perf_counter()
        try:
            if fit is None:
                try:
                    fit = fit_gr_alasso(train, **opts)
                finally:
                    ms = (time.perf_counter() - t0) * 1000.0
            m = compute_metrics(fit.support, fit.beta, design.beta_true,
                                X_test, y_test, fit.intercept)
            status = "ok"
        except Exception as exc:  # noqa: BLE001 - per-method isolation
            m = dict.fromkeys(("tpr", "fpr", "mse_beta", "mspe"), np.nan)
            status = f"failed:{type(exc).__name__}"
        records.append(BenchmarkRecord(e, gamma, r, method, runtime_ms=ms,
                                       status=status, **m))
    return records


def _checked_fit_kwargs(fit_kwargs, n, p, methods=()):
    """`fit_kwargs` as a new dict, checked before any fit on an n x p table,
    alone or under the `METHOD_OPTIONS` of each of `methods`, whose names
    fix their estimator and unit weights; each replicate derives its seed."""
    fit_kwargs = dict(fit_kwargs or {})
    for key, value in fit_kwargs.items():
        if key not in _check_options.__kwdefaults__:
            raise ValueError(f"{key!r} in fit_kwargs is not a fit_gr_alasso "
                             "option")
        by_name = key == "estimator" or (key, value) == ("weights", "unit")
        if key == "seed" or (methods and by_name):
            raise ValueError(f"fit_kwargs cannot set {key}={value!r}: each "
                             "replicate derives its seed, and a method's "
                             "name fixes its estimator and unit weights")
    for options in [METHOD_OPTIONS[m] for m in methods] or [{}]:
        _check_options(n, p, **{**fit_kwargs, **options})
    return fit_kwargs


def run_grid(design: SimDesign, e_list, gamma_list, replicates: int = 200,
             methods=("gr-alasso",), seed0: int = 0,
             contaminate_test: bool = False, threads: int = 1,
             fit_kwargs=None):
    """Replicated benchmark over the (rate, magnitude) grid.

    Each replicate regenerates the whole dataset (train, contamination and
    an independent clean test set of n rows) from seeds derived via
    `cell_seed`. Prediction error is scored on clean test data unless
    `contaminate_test` is set. Per-replicate failures are recorded
    with a failure status instead of aborting the grid. Records come back
    in ascending (e, gamma, replicate) order, each replicate's methods in
    the order given, whatever `threads` is.
    `fit_kwargs` are `fit_gr_alasso` options for every method. A method's
    name fixes its estimator (and unit weights for "lasso"), and each
    replicate derives its CV seed, so `estimator`, `seed`, `weights="unit"`
    and keys that are not `fit_gr_alasso` options are rejected; `weights`
    reaches the adaptive methods only. Before any replicate runs, repeated
    values in `e_list`, `gamma_list` or `methods`, cells that
    `ContaminationSpec` rejects, distinct cells that `cell_seed` would give
    the same seeds and fit options that a table of `design`'s shape fails
    are rejected.
    """
    methods = tuple(methods)
    if "gr-alasso" not in methods:
        raise ValueError("method set must include gr-alasso")
    unknown = [m for m in methods if m not in METHOD_OPTIONS]
    if unknown:
        raise ValueError(f"unknown in-process methods: {unknown}; external "
                         "results are ingested as CSV instead")
    if replicates < 1:
        raise ValueError("replicates must be positive")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    if len(e_list) == 0 or len(gamma_list) == 0:
        raise ValueError("e_list and gamma_list must be nonempty")
    for name, values in (("e_list", e_list), ("gamma_list", gamma_list),
                         ("methods", methods)):
        if len(set(values)) < len(values):
            raise ValueError(f"{name} repeats a value: {list(values)}")
    cells = {}
    for cell in sorted((float(e), float(g)) for e in e_list for g in gamma_list):
        ContaminationSpec(*cell)  # the replicates' own check, up front
        other = cells.setdefault(_cell_key(*cell), cell)
        if other != cell:
            raise ValueError(f"grid cells (e, gamma) = {other} and {cell} "
                             "would share replicate seeds")
    fit_kwargs = _checked_fit_kwargs(fit_kwargs, design.n, design.p, methods)
    tasks = [(design, e, g, r, methods, seed0, contaminate_test, fit_kwargs)
             for e, g in cells.values() for r in range(replicates)]
    workers = min(threads, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_replicate_records, tasks, chunksize=4))
    else:
        chunks = [_replicate_records(t) for t in tasks]
    return [rec for chunk in chunks for rec in chunk]


def _mean_se(values: np.ndarray):
    mean = float(np.mean(values))
    if values.size > 1:
        se = float(np.std(values, ddof=1) / np.sqrt(values.size))
    else:
        se = 0.0
    return mean, se


def aggregate_records(records):
    """Per (e, gamma, method) means and standard errors over successful
    replicates, sorted deterministically."""
    groups = {}
    for rec in records:
        groups.setdefault((rec.e, rec.gamma, rec.method), []).append(rec)
    rows = []
    for (e, gamma, method), recs in sorted(groups.items()):
        ok = [r for r in recs if r.status == "ok"]
        row = {"e": e, "gamma": gamma, "method": method, "n_ok": len(ok)}
        for metric in ("tpr", "fpr", "mse_beta", "mspe"):
            if ok:
                mean, se = _mean_se(np.asarray([getattr(r, metric) for r in ok]))
            else:
                mean, se = np.nan, np.nan
            row[f"{metric}_mean"] = mean
            row[f"{metric}_se"] = se
        rows.append(row)
    return rows


def write_records_csv(path, records, metadata=None):
    """Raw benchmark records with '# key=value' metadata comment lines."""
    write_csv(path, RECORD_FIELDS, ([getattr(rec, f) for f in RECORD_FIELDS]
                                    for rec in records), metadata)


def read_records_csv(path):
    """Read a records CSV (own output or an external method's results),
    skipping blank and '#' metadata lines and a leading byte-order mark.
    A cell that does not parse as its field's type raises, naming the
    field, the cell and the record line."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [[cell.strip() for cell in row] for row in csv.reader(
            line for line in fh
            if line.strip() and not line.lstrip().startswith("#"))]
    if not rows:
        raise ValueError("empty records file")
    if tuple(rows[0]) != RECORD_FIELDS:
        raise ValueError(f"unexpected records header {rows[0]!r}; "
                         f"expected {','.join(RECORD_FIELDS)}")
    records = []
    for cells in rows[1:]:
        if len(cells) != len(RECORD_FIELDS):
            raise ValueError(f"malformed record line: {','.join(cells)!r}")
        values = []
        for f, cell in zip(fields(BenchmarkRecord), cells):
            try:
                values.append(f.type(cell))
            except ValueError:
                raise ValueError(f"bad {f.name} {cell!r} in record line: "
                                 f"{','.join(cells)!r}") from None
        records.append(BenchmarkRecord(*values))
    return records


def write_aggregate_csv(path, rows, metadata=None):
    """Aggregate CSV; contains no timings, so reruns are byte-identical."""
    write_csv(path, AGGREGATE_FIELDS,
              ([row[f] for f in AGGREGATE_FIELDS] for row in rows), metadata)


def selection_stability_study(Z: DataMatrix, n_redundant: int = 10,
                              rate: float = 0.05, magnitude: float = 10.0,
                              ar1_rho: float = 0.5, replicates: int = 200,
                              seed: int = 0, fit_kwargs=None) -> SelectionRates:
    """Selection-rate stability protocol for a real dataset.

    Predictors are standardised once by median and Qn, then each replicate
    appends `n_redundant` fresh AR(1) noise predictors and fits twice: on
    the clean table and on a copy with `rate` of all predictor cells
    replaced by N(+-magnitude, 1) draws. Returns per-variable selection
    rates for both scenarios. `fit_kwargs` (not `seed`) go to every fit.
    Before any fit, `replicates` and `n_redundant` must be at least 1 and
    `fit_kwargs` must suit the fitted tables' shape.
    """
    for name, value in (("replicates", replicates),
                        ("n_redundant", n_redundant)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1")
    fit_kwargs = _checked_fit_kwargs(fit_kwargs, Z.n, Z.p + n_redundant)
    y = Z.y
    med, scale = column_summaries(Z)
    Xs = (Z.X - med[1:]) / scale[1:]
    names = tuple(Z.predictor_names) + tuple(
        f"noise{k + 1}" for k in range(n_redundant)
    )
    hits = np.zeros((2, Z.p + n_redundant))  # clean, contaminated
    spec = ContaminationSpec(rate, magnitude)
    for r in range(replicates):
        rs = mix_seed(seed, r)
        noise = gen_design(SimDesign(n=Z.n, p=n_redundant, ar1_rho=ar1_rho,
                                     seed=mix_seed(rs, 1)))
        X_full = np.hstack([Xs, noise])
        X_cont, _ = contaminate_cells(X_full, spec, mix_seed(rs, 3))
        for row, X in zip(hits, (X_full, X_cont)):
            fit = fit_gr_alasso(
                DataMatrix.from_arrays(y, X, names, Z.response_name),
                seed=mix_seed(rs, 2), **fit_kwargs)
            row[list(fit.support)] += 1
    clean, contaminated = hits / replicates
    return SelectionRates(columns=names, clean=clean,
                          contaminated=contaminated)
