"""Every table inside the package is column-major float64, so the bits of a
fit and of its column stage depend only on the numbers: a C-ordered array,
a Fortran-ordered one, a strided column view and a CSV written and read
back all give the same results."""

import dataclasses
import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from gralasso.covariance import gaussian_rank_corr_matrix, score_matrix
from gralasso.data import DataMatrix
from gralasso.regression import column_summaries, fit_gr_alasso


@st.composite
def _tables(draw):
    """Response-first n x (p + 1) tables, n in 10..60 and p in 1..6: y a
    sum of the first predictors plus noise, and some predictor cells
    replaced by outliers."""
    n = draw(st.integers(10, 60))
    p = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, p))
    X[rng.random((n, p)) < 0.05] += 10.0
    y = X[:, :3].sum(axis=1) + rng.standard_normal(n)
    return np.column_stack([y, X])


def _builds(values, tmpdir):
    """The numbers of `values` in four layouts: C order, Fortran order, a
    strided view of every other column of a wider table, and a DataMatrix
    read back from a CSV whose column names match the col0, col1, ... of
    the arrays."""
    wide = np.zeros((values.shape[0], 2 * values.shape[1]))
    wide[:, ::2] = values
    names = tuple(f"col{j}" for j in range(values.shape[1]))
    path = os.path.join(tmpdir, "table.csv")
    DataMatrix(values, names).to_csv(path)
    return {"C": np.ascontiguousarray(values),
            "F": np.asfortranarray(values),
            "strided": wide[:, ::2],
            "csv": DataMatrix.from_csv(path, "col0")}


def _bits(obj):
    """A form of a result that compares equal only where every number has
    the same bits, signed zeros included."""
    if dataclasses.is_dataclass(obj):
        return tuple(_bits(getattr(obj, f.name))
                     for f in dataclasses.fields(obj))
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, (tuple, list)):
        return tuple(_bits(x) for x in obj)
    if isinstance(obj, float):
        return obj.hex()
    return obj


def _results(Z):
    """Every result whose bits must not depend on the layout of Z."""
    out = {f"fit:{e}": fit_gr_alasso(Z, estimator=e)
           for e in ("gr", "pearson")}
    out.update({f"summaries:{e}": column_summaries(Z, e)
                for e in ("gr", "pearson")})
    out.update({f"scores:{k}": score_matrix(Z, k)
                for k in ("gaussian-rank", "pearson")})
    out["gr-correlation"] = gaussian_rank_corr_matrix(Z)
    return out


@settings(max_examples=25, deadline=None)
@given(_tables())
def test_results_do_not_depend_on_the_memory_layout(values):
    with tempfile.TemporaryDirectory() as tmpdir:
        builds = _builds(values, tmpdir)
    results = {layout: _results(Z) for layout, Z in builds.items()}
    for name, ref in results["C"].items():
        for layout, res in results.items():
            assert _bits(res[name]) == _bits(ref), (name, layout)
