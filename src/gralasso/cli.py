"""Command-line front end: fit, screen, simulate and benchmark subcommands.

Every flag can also be set through an environment variable with the
``GRALASSO_`` prefix (``--n-lambda`` -> ``GRALASSO_N_LAMBDA``); explicit
flags win. All outputs embed the seed and package version and contain no
timestamps, so a rerun with the same configuration is byte-identical.

Exit codes: 0 success, 2 usage or data error, 3 degraded benchmark (more
than 10% of replicates failed).
"""

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .covariance import assemble_covariance
from .data import DataMatrix, format_float as _FMT
from .regression import fit_gr_alasso, marginal_gr_correlations, screen_top_k
from .simulation import (
    ContaminationSpec,
    SimDesign,
    aggregate_records,
    contaminate_cells,
    gen_design,
    gen_response,
    mix_seed,
    read_records_csv,
    run_grid,
    write_aggregate_csv,
    write_records_csv,
)

_ENV_PREFIX = "GRALASSO_"


def _env_default(name, default, cast):
    value = os.environ.get(_ENV_PREFIX + name.upper())
    if value is None:
        return default
    return cast(value)


def _resolve(args, name, default, cast):
    value = getattr(args, name)
    if value is not None:
        return value
    return _env_default(name, default, cast)


def _float_list(text):
    return [float(t) for t in text.split(",") if t.strip() != ""]


def _str_list(text):
    return [t.strip() for t in text.split(",") if t.strip() != ""]


def _kappa_value(text):
    return text if text == "cv" else float(text)


def _ensure_outdir(path):
    os.makedirs(path, exist_ok=True)
    return path


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gralasso",
        description="Cellwise-robust variable selection and benchmarking.",
    )
    parser.add_argument("--version", action="version",
                        version=f"gralasso {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a selection model to a CSV dataset")
    fit.add_argument("--input", required=True, help="input CSV with header")
    fit.add_argument("--response", default=None, help="response column name")
    fit.add_argument("--output-dir", default=None)
    fit.add_argument("--estimator", choices=("gr", "spearman", "pearson"),
                     default=None)
    fit.add_argument("--weights", choices=("auto", "direct", "ridge", "unit"),
                     default=None)
    fit.add_argument("--kappa", type=_kappa_value, default=None,
                     help="ridge penalty for initial weights, or 'cv'")
    fit.add_argument("--folds", type=int, default=None)
    fit.add_argument("--n-lambda", type=int, default=None)
    fit.add_argument("--lambda-ratio", type=float, default=None)
    fit.add_argument("--rule", choices=("min", "1se"), default=None)
    fit.add_argument("--lambda", dest="fixed_lambda", type=float, default=None,
                     help="skip CV and solve at this penalty")
    fit.add_argument("--seed", type=int, default=None)
    fit.add_argument("--export-correlation", action="store_true",
                     help="also write the correlation matrix CSV")
    fit.add_argument("--export-covariance", action="store_true",
                     help="also write the assembled covariance CSV")
    fit.set_defaults(func=cmd_fit)

    screen = sub.add_parser("screen",
                            help="rank predictors by marginal GR correlation")
    screen.add_argument("--input", required=True)
    screen.add_argument("--response", default=None)
    screen.add_argument("--output-dir", default=None)
    screen.add_argument("--screen-k", type=int, default=None)
    screen.set_defaults(func=cmd_screen)

    sim = sub.add_parser("simulate",
                         help="emit one contaminated train/test dataset pair")
    sim.add_argument("--output-dir", default=None)
    sim.add_argument("--n", type=int, default=None)
    sim.add_argument("--p", type=int, default=None)
    sim.add_argument("--rho", type=float, default=None)
    sim.add_argument("--noise-sd", type=float, default=None)
    sim.add_argument("--e", type=float, default=None,
                     help="cellwise contamination rate")
    sim.add_argument("--gamma", type=float, default=None,
                     help="outlier magnitude")
    sim.add_argument("--seed", type=int, default=None)
    sim.set_defaults(func=cmd_simulate)

    bench = sub.add_parser("benchmark",
                           help="replicated grid over rates and magnitudes")
    bench.add_argument("--output-dir", default=None)
    bench.add_argument("--n", type=int, default=None)
    bench.add_argument("--p", type=int, default=None)
    bench.add_argument("--rho", type=float, default=None)
    bench.add_argument("--noise-sd", type=float, default=None)
    bench.add_argument("--e-list", type=_float_list, default=None)
    bench.add_argument("--gamma-list", type=_float_list, default=None)
    bench.add_argument("--replicates", type=int, default=None)
    bench.add_argument("--methods", type=_str_list, default=None,
                       help="comma list from gr-alasso,alasso,lasso")
    bench.add_argument("--external-csv", action="append", default=[],
                       help="merge an external method's records CSV into "
                            "the aggregate (repeatable)")
    bench.add_argument("--contaminate-test", action="store_true",
                       help="score prediction error on contaminated test "
                            "sets instead of clean ones")
    bench.add_argument("--threads", type=int, default=None)
    bench.add_argument("--seed", type=int, default=None)
    bench.set_defaults(func=cmd_benchmark)

    return parser


def _write_matrix_csv(path, matrix, columns):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in matrix:
            fh.write(",".join(_FMT(v) for v in row) + "\n")


def cmd_fit(args) -> int:
    response = _resolve(args, "response", "y", str)
    outdir = _resolve(args, "output_dir", "gralasso_fit", str)
    estimator = _resolve(args, "estimator", "gr", str)
    weights = _resolve(args, "weights", "auto", str)
    kappa = _resolve(args, "kappa", 0.1, _kappa_value)
    folds = _resolve(args, "folds", 5, int)
    n_lambda = _resolve(args, "n_lambda", 100, int)
    lambda_ratio = _resolve(args, "lambda_ratio", None, float)
    rule = _resolve(args, "rule", "1se", str)
    seed = _resolve(args, "seed", 0, int)

    Z = DataMatrix.from_csv(args.input, response)
    fit = fit_gr_alasso(Z, estimator=estimator, weights=weights, kappa=kappa,
                        folds=folds, n_lambda=n_lambda,
                        lambda_ratio=lambda_ratio, rule=rule, seed=seed,
                        fixed_lambda=args.fixed_lambda)

    coef_path = os.path.join(_ensure_outdir(outdir), "coefficients.csv")
    with open(coef_path, "w", encoding="utf-8") as fh:
        fh.write("variable,coefficient,selected\n")
        for j, name in enumerate(Z.predictor_names):
            fh.write(f"{name},{_FMT(fit.beta[j])},"
                     f"{int(j in set(fit.support))}\n")

    if fit.cv is not None:
        with open(os.path.join(outdir, "cv_curve.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write("lambda,mean_error,se_error\n")
            for lam, m, s in zip(fit.cv.lambdas, fit.cv.mean_errors,
                                 fit.cv.se_errors):
                fh.write(f"{_FMT(lam)},{_FMT(m)},{_FMT(s)}\n")

    meta = {
        "version": __version__,
        "seed": seed,
        "input": os.path.basename(args.input),
        "response": response,
        "estimator": fit.estimator,
        "weights": weights,
        "weight_source": fit.weights.source,
        "folds": folds,
        "n_lambda": n_lambda,
        "lambda_ratio": lambda_ratio,
        "rule": rule,
        "lambda": fit.lambda_,
        "lambda_min": fit.cv.lambda_min if fit.cv is not None else None,
        "lambda_1se": fit.cv.lambda_1se if fit.cv is not None else None,
        "intercept": fit.intercept,
        "selected": list(fit.selected_names),
        "converged": fit.converged,
        "n": Z.n,
        "p": Z.p,
    }
    with open(os.path.join(outdir, "fit.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")

    report = os.path.join(outdir, "fit_report.txt")
    with open(report, "w", encoding="utf-8") as fh:
        fh.write(f"gralasso {__version__} fit report\n")
        fh.write(f"input: {args.input}\nresponse: {response}\n")
        fh.write(f"n: {Z.n}\np: {Z.p}\nestimator: {fit.estimator}\n")
        fh.write(f"weights: {fit.weights.source}\nseed: {seed}\n")
        fh.write(f"rule: {rule}\nlambda: {_FMT(fit.lambda_)}\n")
        if fit.cv is not None:
            fh.write(f"lambda (cv-min): {_FMT(fit.cv.lambda_min)}\n")
            fh.write(f"lambda (cv-1se): {_FMT(fit.cv.lambda_1se)}\n")
        fh.write(f"converged: {fit.converged}\n")
        fh.write(f"intercept: {_FMT(fit.intercept)}\n")
        fh.write("selected variables:\n")
        if fit.support:
            for j in fit.support:
                fh.write(f"  {Z.predictor_names[j]}: {_FMT(fit.beta[j])}\n")
        else:
            fh.write("  (none)\n")
        fh.write("column summaries (location, scale):\n")
        for name, summ in zip(Z.columns, fit.summaries):
            fh.write(f"  {name}: {_FMT(summ.location)}, {_FMT(summ.scale)}\n")

    if args.export_correlation:
        _write_matrix_csv(os.path.join(outdir, "correlation.csv"),
                          fit.correlation.matrix, Z.columns)
    if args.export_covariance:
        cov = assemble_covariance(fit.correlation, fit.summaries)
        _write_matrix_csv(os.path.join(outdir, "covariance.csv"),
                          cov.sigma, Z.columns)

    print(f"fit written to {outdir} "
          f"(selected {len(fit.support)} of {Z.p} predictors)")
    return 0


def cmd_screen(args) -> int:
    response = _resolve(args, "response", "y", str)
    outdir = _resolve(args, "output_dir", "gralasso_screen", str)
    Z = DataMatrix.from_csv(args.input, response)
    k = _resolve(args, "screen_k", min(100, Z.p), int)
    idx = screen_top_k(Z, k)
    # each column's score is independent of the others, so scoring only the
    # response and the chosen columns gives the same numbers
    corr = marginal_gr_correlations(Z.values[:, np.r_[0, idx + 1]])
    path = os.path.join(_ensure_outdir(outdir), "screen.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("rank,variable,gr_correlation\n")
        for rank, (j, r) in enumerate(zip(idx, corr), start=1):
            fh.write(f"{rank},{Z.predictor_names[j]},{_FMT(r)}\n")
    print(f"screen written to {path} (top {k} of {Z.p} predictors)")
    return 0


def cmd_simulate(args) -> int:
    outdir = _ensure_outdir(_resolve(args, "output_dir", "gralasso_sim", str))
    n = _resolve(args, "n", 100, int)
    p = _resolve(args, "p", 20, int)
    rho = _resolve(args, "rho", 0.5, float)
    noise_sd = _resolve(args, "noise_sd", 1.0, float)
    e = _resolve(args, "e", 0.05, float)
    gamma = _resolve(args, "gamma", 10.0, float)
    seed = _resolve(args, "seed", 0, int)

    design = SimDesign(n=n, p=p, ar1_rho=rho, noise_sd=noise_sd,
                       seed=mix_seed(seed, 1))
    X = gen_design(design)
    y = gen_response(X, design.beta_true, noise_sd, mix_seed(seed, 2))
    Xc, mask = contaminate_cells(X, ContaminationSpec(e, gamma),
                                 mix_seed(seed, 3))
    test_design = SimDesign(n=n, p=p, ar1_rho=rho, noise_sd=noise_sd,
                            seed=mix_seed(seed, 4))
    X_test = gen_design(test_design)
    y_test = gen_response(X_test, design.beta_true, noise_sd, mix_seed(seed, 5))

    train = DataMatrix.from_arrays(y, Xc)
    train.to_csv(os.path.join(outdir, "train.csv"))
    DataMatrix.from_arrays(y_test, X_test).to_csv(
        os.path.join(outdir, "test.csv"))
    with open(os.path.join(outdir, "mask.csv"), "w", encoding="utf-8") as fh:
        fh.write("row,column\n")
        for i, j in np.argwhere(mask):
            fh.write(f"{i + 1},{train.predictor_names[j]}\n")
    truth = {
        "version": __version__,
        "seed": seed,
        "n": n,
        "p": p,
        "rho": rho,
        "noise_sd": noise_sd,
        "e": e,
        "gamma": gamma,
        "beta_true": [float(b) for b in design.beta_true],
        "active_set": [int(j) for j in np.flatnonzero(design.beta_true != 0)],
        "contaminated_cells": int(mask.sum()),
    }
    with open(os.path.join(outdir, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"simulation written to {outdir} "
          f"({int(mask.sum())} contaminated cells)")
    return 0


def cmd_benchmark(args) -> int:
    outdir = _ensure_outdir(_resolve(args, "output_dir", "gralasso_bench", str))
    n = _resolve(args, "n", 100, int)
    p = _resolve(args, "p", 20, int)
    rho = _resolve(args, "rho", 0.5, float)
    noise_sd = _resolve(args, "noise_sd", 1.0, float)
    e_list = _resolve(args, "e_list", [0.0, 0.02, 0.05, 0.10], _float_list)
    gamma_list = _resolve(args, "gamma_list", [2.0, 4.0, 6.0, 8.0, 10.0],
                          _float_list)
    replicates = _resolve(args, "replicates", 200, int)
    methods = _resolve(args, "methods", ["gr-alasso", "alasso", "lasso"],
                       _str_list)
    threads = _resolve(args, "threads", 1, int)
    seed = _resolve(args, "seed", 0, int)

    design = SimDesign(n=n, p=p, ar1_rho=rho, noise_sd=noise_sd)
    records = run_grid(design, e_list, gamma_list, replicates=replicates,
                       methods=methods, seed0=seed,
                       contaminate_test=args.contaminate_test,
                       threads=threads)
    external = []
    for path in args.external_csv:
        external.extend(read_records_csv(path))

    meta = {
        "version": __version__,
        "seed": seed,
        "n": n,
        "p": p,
        "rho": rho,
        "noise_sd": noise_sd,
        "n_test": n,
        "e_list": ";".join(_FMT(e) for e in e_list),
        "gamma_list": ";".join(_FMT(g) for g in gamma_list),
        "replicates": replicates,
        "methods": ";".join(methods),
        "contaminate_test": args.contaminate_test,
    }
    write_records_csv(os.path.join(outdir, "records.csv"), records, meta)
    rows = aggregate_records(records + external)
    write_aggregate_csv(os.path.join(outdir, "aggregate.csv"), rows, meta)

    ok = sum(1 for r in records if r.status == "ok")
    frac = ok / len(records) if records else 0.0
    print(f"benchmark written to {outdir} "
          f"({ok}/{len(records)} replicate fits succeeded)")
    if frac < 0.9:
        print("warning: more than 10% of replicate fits failed",
              file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
