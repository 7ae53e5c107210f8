"""The four benchmark workloads, their input generators and output checks.

Every input is generated here from the workload seed with numpy alone, so a
change to the package's own simulator cannot change what the benchmark
feeds it. The package sees only the generated tables or CSV files.

A workload provides:

- ``setup()``: input generation, CSV writing and a warm-up call on a tiny
  input. The runner repeats it and reports the median as set-up time.
- ``make_input(i)``: the input of operation ``i``, made outside the timed
  region.
- ``op(inp)``: the timed operation, called through the package's module
  attributes so that the traced run's wrappers see it.
- ``check(inp, out)``: an ``Outcome`` saying whether the output is correct,
  with the operation's selection fingerprint.
"""

import csv
import hashlib
import json
import os
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from gralasso import cli, covariance, data, regression, robust_stats, simulation

# Solver defaults of fit_gr_alasso; a converged solution meets the KKT
# conditions within the solver's own slack of 10 * tol * n.
TOL = 1e-7
SCREEN_TOL = 1e-9
GRID_METHODS = ("gr-alasso", "alasso", "lasso")

# correlation estimator of each fit the workloads make (SelectionFit.estimator)
_CORR = {
    "gaussian-rank": covariance.gaussian_rank_corr_matrix,
    "pearson": covariance.pearson_corr_matrix,
}


@dataclass
class Outcome:
    ok: bool
    message: str = ""
    fingerprint: dict = field(default_factory=dict)


# ---------------------------------------------------------------- inputs ---

def seed_stream(seed, *parts):
    """Independent 64-bit seed for (workload seed, *parts)."""
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1, np.uint64)[0])


def ar1_table(rng, n, p, rho=0.5, rate=0.05, magnitude=10.0, n_active=5):
    """Response-first n x (p+1) table: AR(1) predictors, y = sum of the first
    `n_active` predictors plus N(0, 1) noise, and each predictor cell
    replaced with probability `rate` by N(+-magnitude, 1)."""
    z = rng.standard_normal((n, p))
    X = np.empty((n, p))
    X[:, 0] = z[:, 0]
    innovation = np.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        X[:, j] = rho * X[:, j - 1] + innovation * z[:, j]
    y = X[:, :n_active].sum(axis=1) + rng.standard_normal(n)
    mask = rng.random((n, p)) < rate
    signs = np.where(rng.random((n, p)) < 0.5, 1.0, -1.0)
    outliers = signs * (magnitude + rng.standard_normal((n, p)))
    return np.column_stack([y, np.where(mask, outliers, X)])


def table_columns(p):
    return ("y",) + tuple(f"x{j + 1}" for j in range(p))


def write_csv(path, values):
    """Headered CSV at 17 significant digits, so reading it back is exact."""
    header = ",".join(table_columns(values.shape[1] - 1))
    np.savetxt(path, values, fmt="%.17g", delimiter=",", header=header,
               comments="")


def run_cli(argv):
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        return cli.main(argv)


# ---------------------------------------------------------------- checks ---

def chosen_index(fit):
    hits = np.flatnonzero(fit.path.lambdas == fit.lambda_)
    if hits.size != 1:
        raise ValueError("chosen lambda is not a grid point")
    return int(hits[0])


def kkt_residual(corr, weights, lam, n, b):
    """Largest violation of the lasso optimality conditions of
    n b'Gb - 2n b'c + lam sum w_j |b_j| at b, for G, c from `corr`."""
    gram = np.asarray(corr.xx, dtype=float)
    grad = 2.0 * n * (gram @ b - np.asarray(corr.xy, dtype=float))
    finite = np.isfinite(weights)
    if np.any(b[~finite] != 0.0):
        return float("inf")
    nz = finite & (b != 0.0)
    zz = finite & (b == 0.0)
    viol = np.concatenate([
        np.abs(grad[nz] + lam * weights[nz] * np.sign(b[nz])),
        np.maximum(np.abs(grad[zz]) - lam * weights[zz], 0.0),
    ])
    return float(viol.max()) if viol.size else 0.0


def fit_kkt(Z, fit):
    """KKT residual of a fit at its chosen lambda, from a correlation matrix
    recomputed outside the fit."""
    b = fit.path.coefficients[chosen_index(fit)]
    return kkt_residual(_CORR[fit.estimator](Z), fit.weights.weights,
                        fit.lambda_, Z.n, b)


def check_fit(Z, fit):
    """Outcome of one fit: converged, and KKT residual within the slack."""
    slack = 10.0 * TOL * Z.n
    resid = fit_kkt(Z, fit)
    fp = fit_fingerprint(fit)
    if not fit.converged:
        return Outcome(False, "fit did not converge", fp), resid
    if not resid <= slack:
        return Outcome(False, f"KKT residual {resid:.3g} > {slack:.3g}", fp), resid
    return Outcome(True, "", fp), resid


def fit_fingerprint(fit):
    return {
        "support": list(fit.support),
        "lambda_idx": chosen_index(fit),
        "path_sweeps": int(fit.path.iterations.sum()),
    }


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def gr_marginal_oracle(values):
    """Gaussian-rank correlation of each predictor with the response, from
    scipy's mid-ranks and normal quantiles (independent of the package)."""
    from scipy.stats import norm, rankdata

    n = values.shape[0]
    scores = norm.ppf(rankdata(values, axis=0) / (n + 1))
    scores = scores - scores.mean(axis=0)
    norms = np.linalg.norm(scores, axis=0)
    corr = np.zeros(values.shape[1] - 1)
    live = norms[1:] > 0.0
    corr[live] = (scores[:, 0] @ scores[:, 1:][:, live]) / (norms[0] * norms[1:][live])
    return np.clip(corr, -1.0, 1.0)


# ------------------------------------------------------------- workloads ---

class FitWide:
    """fit_gr_alasso on a fresh contaminated AR(1) table per operation."""

    name = "fit_wide"
    min_ops = 2

    def __init__(self, seed, work_dir, n=100, p=200):
        self.seed, self.n, self.p = seed, n, p

    def _table(self, i):
        values = ar1_table(np.random.default_rng(seed_stream(self.seed, 1, i)),
                           self.n, self.p)
        return data.DataMatrix(values, table_columns(self.p))

    def setup(self):
        self._table(0)
        warm = ar1_table(np.random.default_rng(seed_stream(self.seed, 0)), 40, 10)
        regression.fit_gr_alasso(data.DataMatrix(warm, table_columns(10)))

    def make_input(self, i):
        return self._table(i)

    def op(self, Z):
        return regression.fit_gr_alasso(Z)

    def check(self, Z, fit):
        return check_fit(Z, fit)[0]


class FitTall:
    """`gralasso fit` on one pre-written tall CSV, every operation."""

    name = "fit_tall"
    min_ops = 2

    def __init__(self, seed, work_dir, n=20000, p=10):
        self.seed, self.n, self.p = seed, n, p
        self.csv = os.path.join(work_dir, "fit_tall.csv")
        self.warm_csv = os.path.join(work_dir, "fit_tall_warm.csv")
        self.out = os.path.join(work_dir, "fit_tall_out")
        self._reference = None

    def setup(self):
        rng = np.random.default_rng(seed_stream(self.seed, 1))
        write_csv(self.csv, ar1_table(rng, self.n, self.p))
        write_csv(self.warm_csv, ar1_table(rng, 60, 3))
        run_cli(["fit", "--input", self.warm_csv, "--output-dir", self.out])
        self._reference = None

    def make_input(self, i):
        return ["fit", "--input", self.csv, "--response", "y",
                "--output-dir", self.out]

    def op(self, argv):
        return run_cli(argv)

    def reference(self):
        """The library fit of the same CSV, with its KKT check (once).

        It reads the CSV like the CLI does: the fit's last digits depend on
        the table's memory layout, and from_csv's differs from ar1_table's.
        """
        if self._reference is None:
            Z = data.DataMatrix.from_csv(self.csv, "y")
            fit = regression.fit_gr_alasso(Z)
            self._reference = (fit, check_fit(Z, fit)[0])
        return self._reference

    def check(self, argv, code):
        if code != 0:
            return Outcome(False, f"exit code {code}")
        fit, ref = self.reference()
        if not ref.ok:
            return ref
        with open(os.path.join(self.out, "fit.json"), encoding="utf-8") as fh:
            meta = json.load(fh)
        with open(os.path.join(self.out, "coefficients.csv"), newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        beta = np.array([float(r["coefficient"]) for r in rows])
        if not meta["converged"]:
            return Outcome(False, "fit did not converge", ref.fingerprint)
        if (meta["lambda"] != fit.lambda_
                or meta["selected"] != list(fit.selected_names)
                or not np.array_equal(beta, fit.beta)):
            return Outcome(False, "CLI output differs from the library fit",
                           ref.fingerprint)
        return ref


class ScreenWide:
    """`gralasso screen --screen-k k` on one pre-written wide CSV."""

    name = "screen_wide"
    min_ops = 2

    def __init__(self, seed, work_dir, n=200, p=5000, k=100):
        self.seed, self.n, self.p, self.k = seed, n, p, k
        self.csv = os.path.join(work_dir, "screen_wide.csv")
        self.warm_csv = os.path.join(work_dir, "screen_wide_warm.csv")
        self.out = os.path.join(work_dir, "screen_wide_out")
        self.oracle = None

    def setup(self):
        rng = np.random.default_rng(seed_stream(self.seed, 1))
        self.values = ar1_table(rng, self.n, self.p)
        write_csv(self.csv, self.values)
        write_csv(self.warm_csv, ar1_table(rng, 40, 20))
        run_cli(["screen", "--input", self.warm_csv, "--output-dir", self.out,
                 "--screen-k", "5"])
        self.oracle = None

    def make_input(self, i):
        return ["screen", "--input", self.csv, "--response", "y",
                "--output-dir", self.out, "--screen-k", str(self.k)]

    def op(self, argv):
        return run_cli(argv)

    def check(self, argv, code):
        if code != 0:
            return Outcome(False, f"exit code {code}")
        if self.oracle is None:
            self.oracle = gr_marginal_oracle(self.values)
        with open(os.path.join(self.out, "screen.csv"), newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        idx = np.array([int(r["variable"][1:]) - 1 for r in rows])
        got = np.array([float(r["gr_correlation"]) for r in rows])
        fp = {"top_k": digest(idx.tolist()), "head": idx[:5].tolist()}
        if [int(r["rank"]) for r in rows] != list(range(1, self.k + 1)):
            return Outcome(False, f"expected ranks 1..{self.k}", fp)
        err = float(np.max(np.abs(got - self.oracle[idx])))
        if not err <= SCREEN_TOL:
            return Outcome(False, f"correlations differ from scipy by {err:.3g}", fp)
        if np.any(np.diff(np.abs(got)) > SCREEN_TOL):
            return Outcome(False, "screen.csv is not sorted by |correlation|", fp)
        rest = np.delete(np.abs(self.oracle), idx)
        if rest.size and rest.max() > np.abs(self.oracle[idx]).min() + SCREEN_TOL:
            return Outcome(False, "an unlisted predictor outranks a listed one", fp)
        return Outcome(True, "", fp)


class GridPaper:
    """One replicate of one (e, gamma) cell of the paper's grid per
    operation, all three in-process methods, cycling through the cells."""

    name = "grid_paper"
    min_ops = 4
    e_list = (0.05, 0.10)
    gamma_list = (2.0, 10.0)
    pool_threads = 2
    pool_replicates = 2

    def __init__(self, seed, work_dir, n=100, p=20):
        self.seed = seed
        self.design = simulation.SimDesign(n, p)
        self.cells = [(e, g) for e in self.e_list for g in self.gamma_list]

    def setup(self):
        simulation.run_grid(simulation.SimDesign(30, 5), [0.05], [2.0],
                            replicates=1, methods=GRID_METHODS)

    def make_input(self, i):
        e, g = self.cells[i % len(self.cells)]
        return e, g, seed_stream(self.seed, 1, i // len(self.cells))

    def op(self, inp):
        e, g, seed0 = inp
        return simulation.run_grid(self.design, [e], [g], replicates=1,
                                   methods=GRID_METHODS, seed0=seed0)

    def check(self, inp, records):
        fp = {"records": digest([repr((r.method, r.tpr, r.fpr, r.mse_beta, r.mspe))
                                 for r in records])}
        bad = [r.status for r in records if r.status != "ok"]
        if len(records) != len(GRID_METHODS) or bad:
            return Outcome(False, f"grid records not ok: {bad}", fp)
        return Outcome(True, "", fp)

    def pool_batch(self):
        """Whole grid at threads=2, `pool_replicates` replicates per cell.

        pool.map hands out chunks of four tasks, so two replicates of the
        four cells give each of the two workers one chunk.
        """
        return simulation.run_grid(
            self.design, self.e_list, self.gamma_list,
            replicates=self.pool_replicates, methods=GRID_METHODS,
            seed0=seed_stream(self.seed, 2), threads=self.pool_threads)


WORKLOADS = {w.name: w for w in (FitWide, FitTall, ScreenWide, GridPaper)}


def trace_points():
    """(owner, attribute, span name, capture) for every traced call site.

    Functions imported into several modules are wrapped in each module that
    calls them, under one span name.
    """
    return [
        (cli, "main", "cli.main", False),
        (data.DataMatrix, "from_csv", "data.from_csv", True),
        (regression, "fit_gr_alasso", "regression.fit_gr_alasso", True),
        (cli, "fit_gr_alasso", "regression.fit_gr_alasso", True),
        (simulation, "fit_gr_alasso", "regression.fit_gr_alasso", True),
        (regression, "column_summaries", "regression.column_summaries", False),
        (robust_stats, "qn_scale", "robust_stats.qn_scale", False),
        (regression, "score_matrix", "covariance.score_matrix", False),
        (covariance, "normal_scores", "robust_stats.normal_scores", False),
        (regression, "normal_scores", "robust_stats.normal_scores", False),
        (regression, "cross_validate", "regression.cross_validate", False),
        (regression, "fit_path", "regression.fit_path", True),
        (cli, "screen_top_k", "regression.screen_top_k", False),
        (regression, "marginal_gr_correlations",
         "regression.marginal_gr_correlations", False),
        (cli, "marginal_gr_correlations",
         "regression.marginal_gr_correlations", False),
        (simulation, "run_grid", "simulation.run_grid", False),
        (simulation, "gen_design", "simulation.datagen", False),
        (simulation, "gen_response", "simulation.datagen", False),
        (simulation, "contaminate_cells", "simulation.datagen", False),
    ]
