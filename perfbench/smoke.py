#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (well under a minute).

    python3 perfbench/smoke.py

Checks that every workload emits exactly the metrics named in
BENCHMARK.json, untraced and traced, with no failed operation; that the
correctness gate fails when an oracle value is deliberately wrong; and that
the benchmark refuses to run in a directory without the package. Exits
non-zero on the first failed check.
"""

import json
import shutil
import subprocess
import sys

import run

TINY = {
    "fit_wide": {"n": 40, "p": 60},
    "fit_tall": {"n": 300, "p": 4},  # n > 200 takes Qn's selection path
    "screen_wide": {"n": 40, "p": 80, "k": 10},
    "grid_paper": {"n": 40, "p": 8},
}


def expect(cond, what):
    if not cond:
        raise SystemExit(f"smoke: FAILED: {what}")
    print(f"smoke: ok: {what}")


def tiny(name, seed=3):
    import workloads

    run.WORK.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[name](seed, str(run.WORK), **TINY[name])


def metric_names():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


def check_metrics(import_s):
    end_to_end, per_layer = metric_names()
    for name in TINY:
        for trace, names in ((0, end_to_end), (1, per_layer)):
            res = run.run_workload(tiny(name), 0.0, trace, import_s)
            expect(set(res["metrics"]) == names,
                   f"{name} trace {trace} emits the BENCHMARK.json metrics")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{name} trace {trace} has no failed operation")


def check_gates(import_s):
    import numpy as np

    import workloads

    real_oracle = workloads.gr_marginal_oracle
    real_corr = dict(workloads._CORR)

    def shifted_oracle(values):
        out = real_oracle(values)
        out[np.argmax(np.abs(out))] += 1e-6
        return out

    def shifted_corr(Z):
        R = real_corr["gaussian-rank"](Z)
        m = R.matrix.copy()
        m[0, 1:] *= 1.01
        m[1:, 0] *= 1.01
        return type(R)(m, R.estimator, R.columns)

    try:
        workloads.gr_marginal_oracle = shifted_oracle
        res = run.run_workload(tiny("screen_wide"), 0.0, 0, import_s)
        expect(not res["correct"] and res["failed"] == res["attempted"],
               "screen gate fails on a wrong scipy oracle value")
    finally:
        workloads.gr_marginal_oracle = real_oracle
    try:
        workloads._CORR["gaussian-rank"] = shifted_corr
        res = run.run_workload(tiny("fit_wide"), 0.0, 0, import_s)
        expect(not res["correct"] and res["failed"] == res["attempted"],
               "fit gate fails on a wrong KKT correlation matrix")
    finally:
        workloads._CORR.update(real_corr)


def check_refuses_without_package():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fit_wide",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and proc.stdout == "",
               "refuses to run without src/gralasso, printing no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    import_s = run.import_package()
    check_metrics(import_s)
    check_gates(import_s)
    check_refuses_without_package()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
