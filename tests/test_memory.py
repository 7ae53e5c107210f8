"""Deterministic memory guards: the tracemalloc peak of fixed calls.

A peak counts every block the call allocates while it runs (its inputs are
made before tracing starts) and, unlike RSS, does not depend on the
allocator's history, so it can be pinned. Each bound is stated relative to
the arrays the call must hold, and lies 5% above that ratio as measured at
commit 7ac93b3, before the whole-table column summaries, or for the
benchmark replicate when its methods were first traced as one stack.
"""

import tracemalloc

import numpy as np

from gralasso.data import DataMatrix
from gralasso.regression import column_summaries, fit_gr_alasso
from gralasso.simulation import SimDesign, _replicate_records

# peaks at commit 7ac93b3: a 100 x 200 fit held 4,426,166 bytes, 1.537 times
# its (6, p, p) gram stack plus its (6, G, p) coefficients (five folds and
# the full data), and the summaries of a 20,000 x 11 table 2,245,266 bytes,
# 1.276 times the table
FIT_PEAK_PER_STACK_BYTE = 1.537
SUMMARIES_PEAK_PER_TABLE_BYTE = 1.276
# a 100 x 20 replicate of three methods held about 1.19 MB, 3.437 times
# its (18, p, p) gram stack plus its (18, G, p) coefficients: each method's
# five folds and full data, traced as one stack
REPLICATE_PEAK_PER_STACK_BYTE = 3.437


def _ar1_table(seed, n, p, rho=0.5, rate=0.05):
    """Response-first n x (p+1) table: AR(1) predictors, y = x1 + ... + x5
    plus N(0, 1) noise, and 5% of predictor cells replaced by N(+-10, 1)."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, p))
    X = np.empty((n, p))
    X[:, 0] = z[:, 0]
    for j in range(1, p):
        X[:, j] = rho * X[:, j - 1] + np.sqrt(1.0 - rho * rho) * z[:, j]
    y = X[:, :5].sum(axis=1) + rng.standard_normal(n)
    cells = rng.random((n, p)) < rate
    X[cells] = (np.where(rng.random(cells.sum()) < 0.5, -10.0, 10.0)
                + rng.standard_normal(cells.sum()))
    names = ("y",) + tuple(f"x{j + 1}" for j in range(p))
    return DataMatrix(np.column_stack([y, X]), names)


def _peak(call):
    call()  # first-call allocations (caches, lazy imports) are not counted
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wide_fit_peak():
    n, p, n_lambda, stack = 100, 200, 100, 6
    Z = _ar1_table(0, n, p)
    held = stack * (p * p + n_lambda * p) * 8
    peak = _peak(lambda: fit_gr_alasso(Z, n_lambda=n_lambda))
    assert peak <= 1.05 * FIT_PEAK_PER_STACK_BYTE * held


def test_tall_summaries_peak():
    Z = _ar1_table(1, 20_000, 10)
    peak = _peak(lambda: column_summaries(Z))
    assert peak <= 1.05 * SUMMARIES_PEAK_PER_TABLE_BYTE * Z.values.nbytes


def test_replicate_peak():
    n, p, n_lambda, stack = 100, 20, 100, 18
    task = (SimDesign(n, p), 0.05, 2.0, 0, ("gr-alasso", "alasso", "lasso"),
            0, False, {})
    held = stack * (p * p + n_lambda * p) * 8
    peak = _peak(lambda: _replicate_records(task))
    assert peak <= 1.05 * REPLICATE_PEAK_PER_STACK_BYTE * held
