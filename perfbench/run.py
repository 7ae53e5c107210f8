#!/usr/bin/env python3
"""gralasso benchmark: closed loop, one client, one process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit_wide --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout; without it the run
exits non-zero and prints no result. Each operation is issued once the
previous one has finished, and its output is checked. ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json; ``--trace 1`` installs
span wrappers and reports the per-layer metrics. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full result (environment, every operation, selection
fingerprints and, when traced, the spans) is written to
``perfbench/results/``.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
WORK = ROOT / "perfbench" / "work"

# One BLAS thread: the same for the parent and the change, and no
# oversubscription when run_grid's two workers share the two CPUs.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the BLAS thread count is set)

SETUP_REPEATS = 5
# A 60 s run completes about 35 to 75 operations, about ten or more beyond
# p75 (linear interpolation), so p75 is the tail; the sample count is
# reported with it.
TAIL_PERCENTILE = 75
# grid_paper's traced run keeps the rest of its time for the threads=2 batch
GRID_LOOP_SHARE = 0.6
WORKLOAD_NAMES = ("fit_wide", "fit_tall", "screen_wide", "grid_paper")
COUNT_METRICS = (
    "robust_stats.qn_calls", "robust_stats.normal_scores_calls",
    "regression.marginal_calls", "regression.path_sweeps",
    "regression.support_size",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """Import gralasso from ROOT/src; return the seconds it took."""
    src = ROOT / "src"
    if not (src / "gralasso" / "__init__.py").is_file():
        raise SystemExit(f"error: no gralasso package under {src}")
    t0 = perf_counter()
    sys.path.insert(0, str(src))
    import gralasso
    import workloads  # noqa: F401  (imports the package modules it drives)

    elapsed = perf_counter() - t0
    if not Path(gralasso.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: gralasso imported from {gralasso.__file__}")
    return elapsed


def environment():
    import ctypes
    import glob
    import platform

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        so = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(so, sym):
                fn = getattr(so, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


class Runner:
    """Runs one workload's operations and checks, counting failures."""

    def __init__(self, wl):
        self.wl = wl
        self.ops = []  # one dict per executed operation

    def run_op(self, i, inp, tracer=None):
        """Time one operation, then check its output. With a tracer, spans
        are recorded under op id `i` during the operation only."""
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            out = self.wl.op(inp)
            err = None
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            out, err = None, traceback.format_exc()
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        if err is None:
            try:
                outcome = self.wl.check(inp, out)
                ok, msg, fp = outcome.ok, outcome.message, outcome.fingerprint
            except Exception:  # noqa: BLE001
                ok, msg, fp = False, traceback.format_exc(), {}
        else:
            ok, msg, fp = False, err, {}
        if not ok:
            print(f"op {i} failed: {msg}", file=sys.stderr)
        rec = {"op": i, "traced": tracer is not None, "s": dt, "ok": ok, "message": msg,
               "fingerprint": fp}
        self.ops.append(rec)
        return rec, out

    def fail(self, i, msg):
        print(f"op {i} failed: {msg}", file=sys.stderr)
        self.ops.append({"op": i, "traced": True, "s": 0.0, "ok": False,
                         "message": msg, "fingerprint": {}})


def timed_setup(wl, import_s):
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        wl.setup()
        times.append(perf_counter() - t0)
    return import_s + statistics.median(times)


def more_ops(i, durations, deadline, min_ops):
    """Issue operation i if it is one of the first `min_ops`, or if an
    iteration of median length still ends before the deadline, so that a
    run measures for about its time and never much longer."""
    if i < min_ops:
        return True
    return perf_counter() + statistics.median(durations) <= deadline


def run_untraced(wl, seconds):
    runner = Runner(wl)
    deadline = perf_counter() + seconds
    iter_s = []  # operation plus its input and check
    i = 0
    while more_ops(i, iter_s, deadline, wl.min_ops):
        t0 = perf_counter()
        runner.run_op(i, wl.make_input(i))
        iter_s.append(perf_counter() - t0)
        i += 1
    times = [r["s"] for r in runner.ops]
    metrics = {
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (float(np.percentile(times, TAIL_PERCENTILE)), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return runner, metrics


def run_traced(wl, seconds):
    """Each operation runs twice on the same input, once with the wrappers
    installed and once without, alternating which goes first; the ratio of
    the two times gives the tracing overhead."""
    import workloads
    from tracing import Tracer

    tracer = Tracer()
    points = workloads.trace_points()
    runner = Runner(wl)
    per_op = {}  # op id -> captured numbers
    ratios = []
    budget = seconds * (GRID_LOOP_SHARE if wl.name == "grid_paper" else 1.0)
    deadline = perf_counter() + budget
    pair_s = []
    i = 0
    while more_ops(i, pair_s, deadline, wl.min_ops):
        t0 = perf_counter()
        inp = wl.make_input(i)
        pair = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced:
                pair[traced], _ = runner.run_op(i, inp)
                continue
            tracer.install(points)
            try:
                pair[traced], _ = runner.run_op(i, inp, tracer)
            finally:
                tracer.uninstall()
        if pair[True]["fingerprint"] != pair[False]["fingerprint"]:
            runner.fail(i, "traced and untraced outputs differ")
        ratios.append(pair[True]["s"] / pair[False]["s"])
        per_op[i] = captured_numbers(tracer, runner, i)
        pair_s.append(perf_counter() - t0)
        i += 1

    pool = pool_numbers(wl, runner) if wl.name == "grid_paper" else {}
    metrics = layer_metrics(tracer, runner, per_op, wl.min_ops)
    metrics["trace.overhead_ratio"] = (float(np.median(ratios)), "ratio")
    untraced = [r["s"] for r in runner.ops if r["op"] != "pool" and not r["traced"]]
    t2 = pool.get("reps_per_s_t2", 0.0)
    metrics["simulation.reps_per_s_t2"] = (t2, "1/s")
    # threads=1 replicates/s is len(untraced) / sum(untraced)
    metrics["simulation.pool_efficiency"] = (
        t2 * sum(untraced) / len(untraced) / wl.pool_threads if pool else 0.0,
        "ratio")
    metrics["simulation.tpr_mean"] = (pool.get("tpr_mean", 0.0), "ratio")
    metrics["simulation.fpr_mean"] = (pool.get("fpr_mean", 0.0), "ratio")
    metrics["simulation.mspe_mean"] = (pool.get("mspe_mean", 0.0), "mse")
    return runner, metrics, tracer


def captured_numbers(tracer, runner, op):
    """KKT residuals, sweeps, support sizes and cells read by one traced
    operation, computed after it from what the capture points returned."""
    import workloads

    out = {"kkt": [], "sweeps": 0, "support": [], "cells": 0}
    for op_id, name, args, result in tracer.captured:
        if op_id != op:
            continue
        if name == "regression.fit_gr_alasso":
            outcome, resid = workloads.check_fit(args[0], result)
            out["kkt"].append(resid)
            out["support"].append(len(result.support))
            if not outcome.ok:
                runner.fail(op, outcome.message)
        elif name == "regression.fit_path":
            out["sweeps"] += int(result.iterations.sum())
        elif name == "data.from_csv":
            out["cells"] += result.values.size
    tracer.captured.clear()
    return out


def pool_numbers(wl, runner):
    """run_grid at threads=2 on a fresh batch, with no wrappers installed:
    replicates per second and the gr-alasso quality means of the batch."""
    import workloads

    t0 = perf_counter()
    try:
        records = wl.pool_batch()
    except Exception:  # noqa: BLE001
        runner.fail("pool", traceback.format_exc())
        return {}
    wall = perf_counter() - t0
    bad = [r.status for r in records if r.status != "ok"]
    runner.ops.append({"op": "pool", "traced": False, "s": wall, "ok": not bad,
                       "message": f"failed records: {bad}" if bad else "",
                       "fingerprint": {}})
    gr = [r for r in records if r.method == "gr-alasso" and r.status == "ok"]
    if not gr:
        return {"reps_per_s_t2": len(records) / len(workloads.GRID_METHODS) / wall}
    return {
        "reps_per_s_t2": len(records) / len(workloads.GRID_METHODS) / wall,
        "tpr_mean": float(np.mean([r.tpr for r in gr])),
        "fpr_mean": float(np.mean([r.fpr for r in gr])),
        "mspe_mean": float(np.mean([r.mspe for r in gr])),
    }


def layer_metrics(tracer, runner, per_op, det_ops):
    """Per-layer metrics: times are medians over traced operations; counts
    are means over the first `det_ops` operations, which every run
    completes, so they repeat exactly for a seed."""
    profiles = tracer.profiles()
    op_time = {r["op"]: r["s"] for r in runner.ops if r["traced"]}
    rows = {}
    for op, nums in per_op.items():
        prof = profiles.get(op, {})

        def tot(name):
            return prof.get(name, (0.0, 0.0, 0))[0]

        def self_s(name):
            return prof.get(name, (0.0, 0.0, 0))[1]

        def calls(name):
            return prof.get(name, (0.0, 0.0, 0))[2]

        fit_s = tot("regression.fit_gr_alasso")
        csv_s = tot("data.from_csv")
        rows[op] = {
            "data.from_csv_s": csv_s,
            "data.cells_per_s": nums["cells"] / csv_s if csv_s else 0.0,
            "robust_stats.summaries_s": tot("regression.column_summaries"),
            "robust_stats.qn_calls": calls("robust_stats.qn_scale"),
            "robust_stats.normal_scores_s": tot("robust_stats.normal_scores"),
            "robust_stats.normal_scores_calls": calls("robust_stats.normal_scores"),
            "covariance.score_matrix_s": tot("covariance.score_matrix"),
            "regression.screen_s": tot("regression.screen_top_k"),
            "regression.marginal_calls": calls("regression.marginal_gr_correlations"),
            "regression.fit_s": fit_s,
            "regression.cv_s": tot("regression.cross_validate"),
            "regression.path_s": tot("regression.fit_path"),
            "regression.cv_share": tot("regression.cross_validate") / fit_s if fit_s else 0.0,
            "regression.path_sweeps": nums["sweeps"],
            "regression.support_size": (sum(nums["support"]) / len(nums["support"])
                                        if nums["support"] else 0.0),
            "regression.fit_self_s": self_s("regression.fit_gr_alasso"),
            "simulation.datagen_s": tot("simulation.datagen"),
            "simulation.fit_share": fit_s / op_time[op] if op_time.get(op) else 0.0,
            "cli.self_s": self_s("cli.main"),
        }
    units = {
        "data.cells_per_s": "1/s", "regression.cv_share": "ratio",
        "simulation.fit_share": "ratio",
    }
    first = sorted(rows)[:det_ops]
    metrics = {}
    for key in next(iter(rows.values())):
        if key in COUNT_METRICS:
            value = sum(rows[op][key] for op in first) / len(first)
            metrics[key] = (float(value), "count")
        else:
            value = statistics.median(rows[op][key] for op in rows)
            metrics[key] = (float(value), units.get(key, "s"))
    kkt = [r for nums in per_op.values() for r in nums["kkt"]]
    metrics["regression.kkt_resid_max"] = (max(kkt) if kkt else 0.0, "abs")
    return metrics


def run_workload(wl, seconds, trace, import_s):
    """Set up, run and measure one workload; returns the result dict."""
    setup_s = timed_setup(wl, import_s)
    if trace:
        runner, metrics, tracer = run_traced(wl, seconds)
    else:
        runner, metrics = run_untraced(wl, seconds)
        metrics["setup_s"] = (setup_s, "s")
        tracer = None
    failed = sum(1 for r in runner.ops if not r["ok"])
    attempted = len(runner.ops)
    # untraced operations only, so that both modes give one digest per seed
    first = [r["fingerprint"] for r in runner.ops
             if not r["traced"] and isinstance(r["op"], int) and r["op"] < wl.min_ops]
    import workloads

    return {
        "workload": wl.name,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "setup_s": setup_s,
        "tail_percentile": TAIL_PERCENTILE,
        "samples": sum(1 for r in runner.ops if isinstance(r["op"], int)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "fingerprints": first,
        "fingerprint_digest": workloads.digest(first),
        "ops": runner.ops,
        "spans": tracer.dump() if tracer else None,
    }


def reference_fingerprint(workload, seed):
    """Fingerprint digest recorded for (workload, seed) in
    perfbench/fingerprints.json, or None. A mismatch is reported, not failed:
    a solver change may move a selection, and the report makes it visible."""
    path = ROOT / "perfbench" / "fingerprints.json"
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def main(argv=None):
    args = parse_args(argv)
    import_s = import_package()
    import workloads

    WORK.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, str(WORK))
    result = run_workload(wl, args.seconds, args.trace, import_s)
    result["seed"] = args.seed
    result["seconds"] = args.seconds
    result["environment"] = environment()

    result["fingerprint_reference"] = reference_fingerprint(args.workload, args.seed)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans")
    if spans is not None:
        with open(f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['samples']} ops, {result['failed']} failed "
          f"(failed_ratio {result['failed_ratio']:.3g}), "
          f"op_s_tail = p{TAIL_PERCENTILE}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    ref = result["fingerprint_reference"]
    drift = ("no reference for this seed" if ref is None else
             "matches the reference" if ref == result["fingerprint_digest"] else
             f"DRIFT: reference is {ref}")
    print(f"fingerprint {result['fingerprint_digest']} ({drift}) "
          + json.dumps(result["fingerprints"]))
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
