"""Command-line front end: fit, screen, simulate and benchmark subcommands.

Flags that tune a fit, the simulated design or the benchmark grid can also
be set through an environment variable with the ``GRALASSO_`` prefix
(``--n-lambda`` -> ``GRALASSO_N_LAMBDA``); explicit flags win. ``--input``,
``--lambda``, ``--export-correlation``, ``--export-covariance``,
``--external-csv`` and ``--contaminate-test`` have no environment twin.
Defaults come from the library: the `fit_gr_alasso` signature, the
`run_grid` signature and the `SimDesign` fields. All outputs embed the seed
and package version and contain no timestamps, so a rerun with the same
configuration is byte-identical.

Exit codes: 0 success, 2 usage or data error, 3 degraded benchmark (more
than 10% of replicates failed).
"""

import argparse
import inspect
import json
import os
import sys

import numpy as np

from . import __version__
from .covariance import assemble_covariance
from .data import DataMatrix, format_float as _FMT, write_csv
from .regression import fit_gr_alasso, marginal_gr_correlations, screen_top_k
from .simulation import (
    SimDesign,
    aggregate_records,
    read_records_csv,
    replicate_data,
    run_grid,
    write_aggregate_csv,
    write_records_csv,
)

_ENV_PREFIX = "GRALASSO_"


def _defaults(func):
    return {name: par.default
            for name, par in inspect.signature(func).parameters.items()}


_FIT = _defaults(fit_gr_alasso)
_GRID = _defaults(run_grid)
_DESIGN = SimDesign()


def _twin(parser, flag, default, **kwargs):
    """Add `flag` with its ``GRALASSO_`` environment variable as the default,
    falling back to `default`; argparse converts a string default with the
    flag's `type`, so flag > environment > default."""
    name = flag.lstrip("-").replace("-", "_")
    parser.add_argument(
        flag, default=os.environ.get(_ENV_PREFIX + name.upper(), default),
        **kwargs)


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
    _twin(fit, "--response", "y", help="response column name")
    _twin(fit, "--output-dir", "gralasso_fit")
    _twin(fit, "--estimator", _FIT["estimator"],
          choices=("gr", "pearson"))
    _twin(fit, "--weights", _FIT["weights"],
          choices=("auto", "direct", "ridge", "unit"))
    _twin(fit, "--kappa", _FIT["kappa"], type=_kappa_value,
          help="ridge penalty for initial weights, or 'cv'")
    _twin(fit, "--folds", _FIT["folds"], type=int)
    _twin(fit, "--n-lambda", _FIT["n_lambda"], type=int)
    _twin(fit, "--lambda-ratio", _FIT["lambda_ratio"], type=float)
    _twin(fit, "--rule", _FIT["rule"], choices=("min", "1se"))
    fit.add_argument("--lambda", dest="fixed_lambda", type=float, default=None,
                     help="skip CV and solve at this penalty")
    _twin(fit, "--seed", _FIT["seed"], type=int)
    fit.add_argument("--export-correlation", action="store_true",
                     help="also write the correlation matrix CSV")
    fit.add_argument("--export-covariance", action="store_true",
                     help="also write the assembled covariance CSV")
    fit.set_defaults(func=cmd_fit)

    screen = sub.add_parser("screen",
                            help="rank predictors by marginal GR correlation")
    screen.add_argument("--input", required=True)
    _twin(screen, "--response", "y")
    _twin(screen, "--output-dir", "gralasso_screen")
    _twin(screen, "--screen-k", None, type=int, help="default min(100, p)")
    screen.set_defaults(func=cmd_screen)

    sim = sub.add_parser("simulate",
                         help="emit one contaminated train/test dataset pair")
    bench = sub.add_parser("benchmark",
                           help="replicated grid over rates and magnitudes")
    for command, outdir in ((sim, "gralasso_sim"), (bench, "gralasso_bench")):
        _twin(command, "--output-dir", outdir)
        _twin(command, "--n", _DESIGN.n, type=int)
        _twin(command, "--p", _DESIGN.p, type=int)
        _twin(command, "--rho", _DESIGN.ar1_rho, type=float)
        _twin(command, "--noise-sd", _DESIGN.noise_sd, type=float)

    _twin(sim, "--e", 0.05, type=float, help="cellwise contamination rate")
    _twin(sim, "--gamma", 10.0, type=float, help="outlier magnitude")
    _twin(sim, "--seed", _GRID["seed0"], type=int)
    sim.set_defaults(func=cmd_simulate)

    _twin(bench, "--e-list", [0.0, 0.02, 0.05, 0.10], type=_float_list)
    _twin(bench, "--gamma-list", [2.0, 4.0, 6.0, 8.0, 10.0], type=_float_list)
    _twin(bench, "--replicates", _GRID["replicates"], type=int)
    _twin(bench, "--methods", ["gr-alasso", "alasso", "lasso"],
          type=_str_list, help="comma list from gr-alasso,alasso,lasso")
    bench.add_argument("--external-csv", action="append", default=[],
                       help="merge an external method's records CSV into "
                            "the aggregate (repeatable)")
    bench.add_argument("--contaminate-test", action="store_true",
                       help="score prediction error on contaminated test "
                            "sets instead of clean ones")
    _twin(bench, "--threads", _GRID["threads"], type=int)
    _twin(bench, "--seed", _GRID["seed0"], type=int)
    bench.set_defaults(func=cmd_benchmark)

    return parser


def cmd_fit(args) -> int:
    outdir = args.output_dir
    Z = DataMatrix.from_csv(args.input, args.response)
    fit = fit_gr_alasso(Z, estimator=args.estimator, weights=args.weights,
                        kappa=args.kappa, folds=args.folds,
                        n_lambda=args.n_lambda, lambda_ratio=args.lambda_ratio,
                        rule=args.rule, seed=args.seed,
                        fixed_lambda=args.fixed_lambda)
    # with --lambda the grid and rule choose nothing, and the folds serve
    # only a ridge kappa picked by CV
    cv = fit.cv is not None
    folds_used = cv or (args.kappa == "cv"
                        and fit.weights.source.startswith("ridge"))

    write_csv(os.path.join(_ensure_outdir(outdir), "coefficients.csv"),
              ("variable", "coefficient", "selected"),
              ((name, fit.beta[j], int(j in fit.support))
               for j, name in enumerate(Z.predictor_names)))

    if cv:
        write_csv(os.path.join(outdir, "cv_curve.csv"),
                  ("lambda", "mean_error", "se_error"),
                  zip(fit.cv.lambdas, fit.cv.mean_errors, fit.cv.se_errors))

    meta = {
        "version": __version__,
        "seed": args.seed,
        "input": os.path.basename(args.input),
        "response": args.response,
        "estimator": fit.estimator,
        "weights": args.weights,
        "weight_source": fit.weights.source,
        "folds": args.folds if folds_used else None,
        "n_lambda": args.n_lambda if cv else None,
        "lambda_ratio": args.lambda_ratio if cv else None,
        "rule": args.rule if cv else None,
        "lambda": fit.lambda_,
        "lambda_min": fit.cv.lambda_min if cv else None,
        "lambda_1se": fit.cv.lambda_1se if cv else None,
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
        fh.write(f"input: {args.input}\nresponse: {args.response}\n")
        fh.write(f"n: {Z.n}\np: {Z.p}\nestimator: {fit.estimator}\n")
        fh.write(f"weight_source: {fit.weights.source}\nseed: {args.seed}\n")
        if cv:
            fh.write(f"rule: {args.rule}\n")
        fh.write(f"lambda: {_FMT(fit.lambda_)}\n")
        if cv:
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
        for name, loc, scale in zip(Z.columns, fit.locations, fit.scales):
            fh.write(f"  {name}: {_FMT(loc)}, {_FMT(scale)}\n")

    if args.export_correlation:
        write_csv(os.path.join(outdir, "correlation.csv"), Z.columns,
                  fit.correlation.matrix)
    if args.export_covariance:
        cov = assemble_covariance(fit.correlation, fit.scales)
        write_csv(os.path.join(outdir, "covariance.csv"), Z.columns,
                  cov.sigma)

    print(f"fit written to {outdir} "
          f"(selected {len(fit.support)} of {Z.p} predictors)")
    return 0


def cmd_screen(args) -> int:
    Z = DataMatrix.from_csv(args.input, args.response)
    k = min(100, Z.p) if args.screen_k is None else args.screen_k
    idx = screen_top_k(Z, k)
    # each column's score is independent of the others, so scoring only the
    # response and the chosen columns gives the same numbers
    corr = marginal_gr_correlations(Z.values[:, np.r_[0, idx + 1]])
    path = os.path.join(_ensure_outdir(args.output_dir), "screen.csv")
    write_csv(path, ("rank", "variable", "gr_correlation"),
              ((rank, Z.predictor_names[j], r)
               for rank, (j, r) in enumerate(zip(idx, corr), start=1)))
    print(f"screen written to {path} (top {k} of {Z.p} predictors)")
    return 0


def cmd_simulate(args) -> int:
    design = SimDesign(n=args.n, p=args.p, ar1_rho=args.rho,
                       noise_sd=args.noise_sd)
    train, mask, X_test, y_test = replicate_data(design, args.e, args.gamma,
                                                 args.seed)
    outdir = _ensure_outdir(args.output_dir)
    train.to_csv(os.path.join(outdir, "train.csv"))
    DataMatrix.from_arrays(y_test, X_test).to_csv(
        os.path.join(outdir, "test.csv"))
    write_csv(os.path.join(outdir, "mask.csv"), ("row", "column"),
              ((i + 1, train.predictor_names[j])
               for i, j in np.argwhere(mask)))
    truth = {
        "version": __version__,
        "seed": args.seed,
        "n": args.n,
        "p": args.p,
        "rho": args.rho,
        "noise_sd": args.noise_sd,
        "e": args.e,
        "gamma": args.gamma,
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
    design = SimDesign(n=args.n, p=args.p, ar1_rho=args.rho,
                       noise_sd=args.noise_sd)
    # external records are read first, so a bad file fails before the grid
    external = []
    for path in args.external_csv:
        external.extend(read_records_csv(path))
    records = run_grid(design, args.e_list, args.gamma_list,
                       replicates=args.replicates, methods=args.methods,
                       seed0=args.seed, contaminate_test=args.contaminate_test,
                       threads=args.threads)

    meta = {
        "version": __version__,
        "seed": args.seed,
        "n": args.n,
        "p": args.p,
        "rho": args.rho,
        "noise_sd": args.noise_sd,
        "n_test": args.n,
        "e_list": ";".join(_FMT(e) for e in args.e_list),
        "gamma_list": ";".join(_FMT(g) for g in args.gamma_list),
        "replicates": args.replicates,
        "methods": ";".join(args.methods),
        "contaminate_test": args.contaminate_test,
    }
    outdir = _ensure_outdir(args.output_dir)
    write_records_csv(os.path.join(outdir, "records.csv"), records, meta)
    rows = aggregate_records(records + external)
    write_aggregate_csv(os.path.join(outdir, "aggregate.csv"), rows, meta)

    ok = sum(1 for r in records if r.status == "ok")
    frac = ok / len(records)
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
