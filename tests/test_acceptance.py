"""Acceptance gate: every release-blocking criterion with its tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s`` or in
captured output). Thresholds are fixed here, not calibrated at run time.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time

import numpy as np
import pytest

from gralasso.cli import main
from gralasso.covariance import gaussian_rank_corr_matrix, sqrt_factorize
from gralasso.data import DataMatrix
from gralasso.regression import (
    fit_gr_alasso,
    fit_path,
    lambda_grid,
)
from gralasso.robust_stats import qn_scale
from gralasso.simulation import (
    ContaminationSpec,
    SimDesign,
    aggregate_records,
    contaminate_cells,
    gen_design,
    gen_response,
    mix_seed,
    run_grid,
    selection_stability_study,
)

from oracles import grid_minimize, ols_fit


def _report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


class _Parts:
    def __init__(self, xx, xy):
        self.xx = xx
        self.xy = xy


def _kkt_residuals_ok(gram, c, w, lam, n, b, tol=1e-7):
    grad = 2.0 * n * (gram @ b - c)
    slack = 10.0 * tol * n
    for j in range(b.size):
        if not np.isfinite(w[j]):
            if b[j] != 0.0:
                return False
        elif b[j] != 0.0:
            if abs(grad[j] + lam * w[j] * np.sign(b[j])) > slack:
                return False
        elif abs(grad[j]) > lam * w[j] + slack:
            return False
    return True


def test_criterion_1_ols_oracle_small_instance(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    X = rng.standard_normal((100, 5))
    y = X @ np.array([1.0, -0.5, 0.0, 2.0, 0.0]) + rng.standard_normal(100)
    data = tmp_path / "data.csv"
    DataMatrix.from_arrays(y, X).to_csv(data)
    out = tmp_path / "fit"
    code = main(["fit", "--input", str(data), "--response", "y",
                 "--output-dir", str(out), "--estimator", "pearson",
                 "--lambda", "0", "--seed", "0"])
    rows = (out / "coefficients.csv").read_text().splitlines()[1:]
    beta = np.array([float(r.split(",")[1]) for r in rows])
    slopes, intercept = ols_fit(X, y)
    meta = json.loads((out / "fit.json").read_text())
    dev = max(float(np.max(np.abs(beta - slopes))),
              abs(meta["intercept"] - intercept))
    elapsed = time.perf_counter() - t0
    _report(1, code == 0 and dev <= 1e-6 and elapsed < 1.0,
            f"pearson lambda=0 vs normal-equations OLS, max dev {dev:.2e}, "
            f"{elapsed:.2f} s")


def test_criterion_2_solver_vs_grid_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    kkt_ok = True
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        p = int(rng.integers(1, 4))
        A = rng.standard_normal((p + 3, p))
        gram = A.T @ A / (p + 3)
        c = rng.standard_normal(p)
        w = rng.uniform(0.2, 5.0, size=p)
        n = int(rng.integers(20, 80))
        lam_max = float(np.max(2.0 * n * np.abs(c) / w))
        lam = float(rng.uniform(0.05, 0.8)) * lam_max
        b = fit_path(_Parts(gram, c), w, [lam], n, tol=1e-9).coefficients[0]
        ref = grid_minimize(gram, c, w, lam, n,
                            half_width=float(np.max(np.abs(b)) + 0.5))
        worst = max(worst, float(np.max(np.abs(b - ref))))
        grid = lambda_grid(gram, c, w, n, n_lambda=30)
        path = fit_path(_Parts(gram, c), w, grid, n)
        for i, g_lam in enumerate(grid):
            if not _kkt_residuals_ok(gram, c, w, float(g_lam), n,
                                     path.coefficients[i]):
                kkt_ok = False
    elapsed = time.perf_counter() - t0
    _report(2, worst <= 1e-4 and kkt_ok and elapsed < 30.0,
            f"50 instances, max |cd - grid oracle| {worst:.2e}, KKT "
            f"certificates {'all hold' if kkt_ok else 'VIOLATED'}, "
            f"{elapsed:.1f} s")


def test_criterion_3_estimator_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    z1 = rng.standard_normal(10_000)
    z2 = 0.5 * z1 + np.sqrt(0.75) * rng.standard_normal(10_000)
    gr = gaussian_rank_corr_matrix(np.column_stack([z1, z2])).matrix[0, 1]
    qn = qn_scale(rng.standard_normal(100_000))
    elapsed = time.perf_counter() - t0
    _report(3, abs(gr - 0.5) <= 0.03 and abs(qn - 1.0) <= 0.02
            and elapsed < 30.0,
            f"GR corr {gr:.4f} (target 0.5 +- 0.03), Qn {qn:.4f} "
            f"(target 1 +- 0.02), {elapsed:.1f} s")


def test_criterion_4_propagation_formula():
    t0 = time.perf_counter()
    spec = ContaminationSpec(0.05, 10.0)
    hit = 0
    for rep in range(500):
        _, mask = contaminate_cells(np.zeros((100, 20)), spec,
                                    mix_seed(104, rep))
        hit += int(mask.any(axis=1).sum())
    frac = hit / (500 * 100)
    expected = 1.0 - 0.95 ** 20
    elapsed = time.perf_counter() - t0
    _report(4, abs(frac - expected) <= 0.02 and elapsed < 10.0,
            f"contaminated-row fraction {frac:.4f} vs 1-(1-e)^p = "
            f"{expected:.4f} (+-0.02), {elapsed:.1f} s")


def test_criterion_5_low_dimensional_selection_grid():
    t0 = time.perf_counter()
    design = SimDesign(n=100, p=20)
    recs = run_grid(design, [0.02], [2.0, 4.0, 6.0, 8.0, 10.0],
                    replicates=50, methods=("gr-alasso",), seed0=0)
    recs += run_grid(design, [0.10], [10.0], replicates=50,
                     methods=("gr-alasso",), seed0=0)
    recs += run_grid(design, [0.05], [10.0], replicates=50,
                     methods=("gr-alasso", "alasso"), seed0=0)
    rows = {(r["e"], r["gamma"], r["method"]): r
            for r in aggregate_records(recs)}

    low_rate = [rows[(0.02, g, "gr-alasso")] for g in (2.0, 4.0, 6.0, 8.0, 10.0)]
    a_ok = all(r["tpr_mean"] >= 0.98 and r["fpr_mean"] <= 0.15
               for r in low_rate)
    a_txt = ", ".join(f"g={r['gamma']:g}: tpr {r['tpr_mean']:.3f}/fpr "
                      f"{r['fpr_mean']:.3f}" for r in low_rate)

    heavy = rows[(0.10, 10.0, "gr-alasso")]
    b_ok = abs(heavy["tpr_mean"] - 0.95) <= 0.05

    gr = rows[(0.05, 10.0, "gr-alasso")]["tpr_mean"]
    al = rows[(0.05, 10.0, "alasso")]["tpr_mean"]
    c_ok = gr - al >= 0.10

    n_failed = sum(1 for r in recs if r.status != "ok")
    elapsed = time.perf_counter() - t0
    _report(5, a_ok and b_ok and c_ok and n_failed == 0 and elapsed < 900.0,
            f"(a) e=0.02: {a_txt}; (b) e=0.10 g=10 tpr {heavy['tpr_mean']:.3f}"
            f" (0.95 +- 0.05); (c) e=0.05 g=10 gr {gr:.3f} vs alasso {al:.3f}"
            f" (gap >= 0.10); {elapsed:.0f} s")


def test_criterion_6_high_dimensional_smoke():
    t0 = time.perf_counter()
    design = SimDesign(n=100, p=200)
    recs = run_grid(design, [0.05], [6.0], replicates=20,
                    methods=("gr-alasso",), seed0=106,
                    fit_kwargs={"weights": "ridge"})
    row = aggregate_records(recs)[0]
    failures = sum(1 for r in recs if r.status != "ok")
    elapsed = time.perf_counter() - t0
    _report(6, row["tpr_mean"] >= 0.90 and failures == 0 and elapsed < 1200.0,
            f"p=200 ridge weights: tpr {row['tpr_mean']:.3f} (>= 0.90), "
            f"{failures} solver failures, {elapsed:.0f} s")


def test_criterion_7_selection_consistency_in_n():
    t0 = time.perf_counter()
    rates = {}
    for n in (100, 1000):
        exact = 0
        for r in range(100):
            d = SimDesign(n=n, p=20, seed=mix_seed(107, n, r, 1))
            X = gen_design(d)
            y = gen_response(X, d.beta_true, 1.0, mix_seed(107, n, r, 2))
            fit = fit_gr_alasso(DataMatrix.from_arrays(y, X),
                                seed=mix_seed(107, n, r, 3))
            if fit.support == (0, 1, 2, 3, 4):
                exact += 1
        rates[n] = exact / 100
    elapsed = time.perf_counter() - t0
    _report(7, rates[1000] >= rates[100] and rates[1000] >= 0.9
            and elapsed < 600.0,
            f"exact-support recovery {rates[100]:.2f} @ n=100 -> "
            f"{rates[1000]:.2f} @ n=1000 (needs nondecreasing, >= 0.9), "
            f"{elapsed:.0f} s")


def test_criterion_8_invariant_suites(tmp_path):
    t0 = time.perf_counter()

    # (a) PSD of the rank-based correlation matrix on 1000 random datasets
    min_eig = np.inf
    rng = np.random.default_rng(108)
    for _ in range(1000):
        n = int(rng.integers(10, 201))
        p = int(rng.integers(2, 51))
        data = rng.standard_normal((n, p))
        lam = np.linalg.eigvalsh(gaussian_rank_corr_matrix(data).matrix)
        min_eig = min(min_eig, float(lam[0]))
    psd_ok = min_eig >= -1e-10

    # (b) strictly monotone predictor transforms leave supports unchanged
    rng = np.random.default_rng(109)
    X = rng.standard_normal((100, 8))
    y = X @ np.r_[np.ones(3), np.zeros(5)] + rng.standard_normal(100)
    Z1 = DataMatrix.from_arrays(y, X)
    X2 = X.copy()
    X2[:, 1] = np.exp(X2[:, 1])
    X2[:, 4] = X2[:, 4] ** 3
    fit1 = fit_gr_alasso(Z1, seed=8)
    fit2 = fit_gr_alasso(DataMatrix.from_arrays(y, X2), seed=8)
    monotone_ok = (fit1.path.supports == fit2.path.supports
                   and fit1.support == fit2.support)

    # (c) square-root partition identities to 1e-8 relative
    rng = np.random.default_rng(110)
    sqrt_ok = True
    for _ in range(20):
        A = rng.standard_normal((7, 7))
        sigma = A.T @ A
        v, w = sqrt_factorize(sigma)
        norm = np.linalg.norm(sigma)
        sqrt_ok &= abs(v @ v - sigma[0, 0]) <= 1e-8 * norm
        sqrt_ok &= bool(np.max(np.abs(w.T @ v - sigma[1:, 0])) <= 1e-8 * norm)
        sqrt_ok &= bool(np.max(np.abs(w.T @ w - sigma[1:, 1:])) <= 1e-8 * norm)

    # (d) byte-identical reruns of the CLI fit and benchmark aggregate
    rng = np.random.default_rng(111)
    Xd = rng.standard_normal((40, 3))
    yd = Xd[:, 0] + 0.2 * rng.standard_normal(40)
    data = tmp_path / "data.csv"
    DataMatrix.from_arrays(yd, Xd).to_csv(data)
    fit_args = ["fit", "--input", str(data), "--response", "y", "--seed", "4"]
    main(fit_args + ["--output-dir", str(tmp_path / "f1")])
    main(fit_args + ["--output-dir", str(tmp_path / "f2")])
    det_ok = all(
        (tmp_path / "f1" / f).read_bytes() == (tmp_path / "f2" / f).read_bytes()
        for f in ("fit_report.txt", "coefficients.csv", "fit.json"))
    bench_args = ["benchmark", "--n", "60", "--p", "5", "--e-list", "0.05",
                  "--gamma-list", "6", "--replicates", "3", "--methods",
                  "gr-alasso", "--seed", "6"]
    main(bench_args + ["--output-dir", str(tmp_path / "b1")])
    main(bench_args + ["--output-dir", str(tmp_path / "b2")])
    det_ok &= ((tmp_path / "b1" / "aggregate.csv").read_bytes()
               == (tmp_path / "b2" / "aggregate.csv").read_bytes())

    elapsed = time.perf_counter() - t0
    _report(8, psd_ok and monotone_ok and sqrt_ok and det_ok
            and elapsed < 300.0,
            f"PSD min eig {min_eig:.2e} over 1000 datasets; monotone-"
            f"transform supports {'stable' if monotone_ok else 'CHANGED'}; "
            f"sqrt identities {'hold' if sqrt_ok else 'FAIL'}; reruns "
            f"{'byte-identical' if det_ok else 'DIFFER'}; {elapsed:.0f} s")


def test_criterion_9_selection_rate_stability():
    t0 = time.perf_counter()
    # synthetic stand-in for the real-data protocol: a fixed base table,
    # redundant AR(1) predictors appended and 5% +-N(10,1) contamination
    d = SimDesign(n=150, p=9, beta_true=np.r_[2.0, 1.5, 1.0, np.zeros(6)],
                  seed=113)
    X = gen_design(d)
    y = gen_response(X, d.beta_true, 1.0, seed=114)
    Z = DataMatrix.from_arrays(y, X)
    rates = selection_stability_study(Z, n_redundant=10, rate=0.05,
                                      magnitude=10.0, replicates=200,
                                      seed=115)
    gaps = np.abs(rates.clean - rates.contaminated)
    worst = float(gaps.max())
    worst_name = rates.columns[int(gaps.argmax())]
    elapsed = time.perf_counter() - t0
    _report(9, worst <= 0.10 and elapsed < 900.0,
            f"per-variable selection-rate gap clean vs 5% contamination: "
            f"max {worst:.3f} at {worst_name} (<= 0.10), {elapsed:.0f} s")
