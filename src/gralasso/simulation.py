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
from .regression import (_finish, _prepare, _trace, column_summaries,
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

# Estimator/weight combinations fitted in-process. Competitor methods enter
# only through result CSVs with the RECORD_FIELDS schema.
METHOD_OPTIONS = {
    "gr-alasso": {"estimator": "gr", "weights": "auto"},
    "alasso": {"estimator": "pearson", "weights": "auto"},
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
        if self.magnitude < 0:
            raise ValueError("magnitude must be nonnegative")


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
                   n_test=None, contaminate_test: bool = False):
    """One replicate's data from the seed `rs`: (train, mask, X_test, y_test).

    The training table is `design` with a Bernoulli(e) share of its predictor
    cells replaced (`mask` marks them); the test set is an independent draw of
    `n_test` rows (default n), clean unless `contaminate_test` is set.
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
    n_test = design.n if n_test is None else n_test
    X_test = gen_design(replace(design, n=n_test, seed=seed_tx))
    y_test = gen_response(X_test, design.beta_true, design.noise_sd, seed_teps)
    if contaminate_test:
        X_test, _ = contaminate_cells(X_test, spec, seed_tcells)
    return DataMatrix.from_arrays(y, Xc), mask, X_test, y_test


def _replicate_records(task):
    design, e, gamma, r, methods, seed0, contaminate_test, fit_kwargs = task
    rs = cell_seed(seed0, e, gamma, r)
    train, _, X_test, y_test = replicate_data(
        design, e, gamma, rs, contaminate_test=contaminate_test)
    records = []
    for method, (fit, elapsed) in _replicate_fits(
            train, methods, mix_seed(rs, 7), fit_kwargs).items():
        try:
            if isinstance(fit, Exception):
                raise fit
            m = compute_metrics(fit.support, fit.beta, design.beta_true,
                                X_test, y_test, fit.intercept)
            records.append(BenchmarkRecord(e, gamma, r, method, m["tpr"],
                                           m["fpr"], m["mse_beta"], m["mspe"],
                                           elapsed, "ok"))
        except Exception as exc:  # noqa: BLE001 - per-replicate isolation
            records.append(BenchmarkRecord(e, gamma, r, method, np.nan,
                                           np.nan, np.nan, np.nan, elapsed,
                                           f"failed:{type(exc).__name__}"))
    return records


def _replicate_fits(train, methods, seed, fit_kwargs):
    """{method: (its fit of `train`, or the exception that stopped it,
    milliseconds)}, each fit that of `fit_gr_alasso(train, seed=seed,
    **options)`: the same bits but for the last bits of some CV errors,
    where a fold's stacked solves were padded wider than in its own fit.

    Every method is prepared first; the Pearson ones share one table stage
    and one set of folds. The path problems of all prepared methods are then
    traced as one lockstep stack (one per grid length), and each method is
    finished on its own rows. A method whose stage raises fails alone; if
    the shared trace raises, each method is traced on its own. A method's
    time is its own preparation and finish plus its problem-count share of
    the trace it was in.
    """
    out = {}  # a method's plan, then its fit, or the exception that stopped it
    ms = dict.fromkeys(methods, 0.0)

    def stage(method, call):
        t0 = time.perf_counter()
        try:
            out[method] = call()
        except Exception as exc:  # noqa: BLE001 - per-method isolation
            out[method] = exc
        ms[method] += (time.perf_counter() - t0) * 1000.0

    cache = {}
    for method in methods:
        options = {**METHOD_OPTIONS[method], **fit_kwargs}
        stage(method, lambda: _prepare(train, cache, seed=seed, **options))
    del cache  # the plans hold what they use
    groups = {}
    for method in methods:
        if not isinstance(out[method], Exception):
            groups.setdefault(out[method].grid.size, []).append(method)
    for group in groups.values():
        plans = [out[m] for m in group]
        t0 = time.perf_counter()
        rows = _trace_each(plans)
        share = (time.perf_counter() - t0) * 1000.0 / sum(
            len(plan.cs) for plan in plans)
        for method, plan, row in zip(group, plans, rows):
            ms[method] += share * len(plan.cs)
            if isinstance(row, Exception):
                out[method] = row
            else:
                stage(method, lambda: _finish(plan, *row))
    return {m: (out[m], ms[m]) for m in methods}


def _trace_each(plans):
    """`_trace(plans)`, or where the stack raises, each plan traced on its
    own: its rows or the exception its own trace raised."""
    try:
        return _trace(plans)
    except Exception as exc:  # noqa: BLE001 - per-method isolation
        if len(plans) == 1:
            return [exc]
        return [_trace_each([plan])[0] for plan in plans]


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
    sorted by (e, gamma, replicate, method) regardless of `threads`.
    Distinct cells that `cell_seed` would give the same seeds are rejected.
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
    if len(e_list) == 0 or len(gamma_list) == 0:
        raise ValueError("e_list and gamma_list must be nonempty")
    cells = {}
    for cell in sorted({(float(e), float(g)) for e in e_list for g in gamma_list}):
        other = cells.setdefault(_cell_key(*cell), cell)
        if other != cell:
            raise ValueError(f"grid cells (e, gamma) = {other} and {cell} "
                             "would share replicate seeds")
    fit_kwargs = dict(fit_kwargs or {})
    tasks = [(design, float(e), float(g), r, methods, seed0,
              contaminate_test, fit_kwargs)
             for e in e_list for g in gamma_list for r in range(replicates)]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(_replicate_records, tasks, chunksize=4))
    else:
        chunks = [_replicate_records(t) for t in tasks]
    records = [rec for chunk in chunks for rec in chunk]
    order = {m: i for i, m in enumerate(methods)}
    records.sort(key=lambda rec: (rec.e, rec.gamma, rec.replicate,
                                  order[rec.method]))
    return records


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
    skipping blank and '#' metadata lines."""
    with open(path, newline="", encoding="utf-8") as fh:
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
        records.append(BenchmarkRecord(*(f.type(cell) for f, cell in
                                         zip(fields(BenchmarkRecord), cells))))
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
    rates for both scenarios.
    """
    fit_kwargs = dict(fit_kwargs or {})
    fit_kwargs.setdefault("estimator", "gr")
    y = Z.y
    med, scale = column_summaries(Z)
    Xs = (Z.X - med[1:]) / scale[1:]
    names = tuple(Z.predictor_names) + tuple(
        f"noise{k + 1}" for k in range(n_redundant)
    )
    total = Z.p + n_redundant
    hits_clean = np.zeros(total)
    hits_cont = np.zeros(total)
    spec = ContaminationSpec(rate, magnitude)
    for r in range(replicates):
        rs = mix_seed(seed, r)
        noise = gen_design(SimDesign(n=Z.n, p=n_redundant, ar1_rho=ar1_rho,
                                     seed=mix_seed(rs, 1)))
        X_full = np.hstack([Xs, noise])
        seed_cv = mix_seed(rs, 2)
        clean_fit = fit_gr_alasso(
            DataMatrix.from_arrays(y, X_full, names, Z.response_name),
            seed=seed_cv, **fit_kwargs)
        for j in clean_fit.support:
            hits_clean[j] += 1
        X_cont, _ = contaminate_cells(X_full, spec, mix_seed(rs, 3))
        cont_fit = fit_gr_alasso(
            DataMatrix.from_arrays(y, X_cont, names, Z.response_name),
            seed=seed_cv, **fit_kwargs)
        for j in cont_fit.support:
            hits_cont[j] += 1
    return SelectionRates(columns=names, clean=hits_clean / replicates,
                          contaminated=hits_cont / replicates)
