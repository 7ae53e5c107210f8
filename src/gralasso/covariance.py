"""Correlation and covariance assembly for response-first data tables.

The Gaussian-rank correlation matrix is the Pearson matrix of the columnwise
normal scores, so it is positive semi-definite by construction and immune to
cellwise outliers up to rank displacement. Scales enter separately through
``assemble_covariance``, which also exposes the symmetric square-root
factors of the covariance (exported by ``gralasso fit --export-covariance``
and checked by the partition identities of acceptance criterion 8(c)).
"""

from dataclasses import dataclass

import numpy as np

from .data import as_table
# unused here, but the benchmark's tracer wraps `covariance.normal_scores`
from .robust_stats import _midrank_scores, _midranks, normal_scores

__all__ = [
    "CorrelationMatrix",
    "CovarianceModel",
    "score_matrix",
    "pearson_corr_matrix",
    "gaussian_rank_corr_matrix",
    "assemble_covariance",
    "sqrt_factorize",
]


class _Partitions:
    """The blocks of the square matrix `_full`, response in slot 0."""

    @property
    def yy(self) -> float:
        return float(self._full[0, 0])

    @property
    def xy(self) -> np.ndarray:
        return self._full[1:, 0]

    @property
    def xx(self) -> np.ndarray:
        return self._full[1:, 1:]


@dataclass(frozen=True)
class CorrelationMatrix(_Partitions):
    """Symmetric unit-diagonal correlation matrix, response in slot 0."""

    matrix: np.ndarray
    estimator: str
    columns: tuple | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("correlation matrix must be square")
        if np.max(np.abs(m - m.T)) > 1e-12:
            raise ValueError("correlation matrix must be symmetric")
        if np.max(np.abs(np.diag(m) - 1.0)) > 1e-12:
            raise ValueError("correlation matrix must have a unit diagonal")
        object.__setattr__(self, "matrix", m)

    _full = property(lambda self: self.matrix)


@dataclass(frozen=True)
class CovarianceModel(_Partitions):
    """Covariance sigma = S R S with its partitions and square-root factors.

    ``sqrt_v`` is the first column of the symmetric square root and
    ``sqrt_w`` the remaining columns, so that
    sqrt_v.T @ sqrt_v = sigma_yy, sqrt_w.T @ sqrt_v = sigma_xy and
    sqrt_w.T @ sqrt_w = sigma_xx.
    """

    sigma: np.ndarray
    scales: np.ndarray
    sqrt_v: np.ndarray
    sqrt_w: np.ndarray
    columns: tuple | None = None

    _full = property(lambda self: self.sigma)


def score_matrix(Z, kind: str = "gaussian-rank") -> np.ndarray:
    """Columnwise pseudo-data transform.

    "gaussian-rank" maps each column to its normal scores and "pearson" to
    (x - mean) / sd. Pearson correlation of the result equals the
    corresponding correlation estimator of the input, and both kinds are
    (near-)mean-zero so pseudo-data residuals carry no constant offset.
    """
    values, names = as_table(Z)
    n = values.shape[0]
    if kind == "pearson":
        sd = values.std(axis=0, ddof=1) if n > 1 else np.zeros(values.shape[1])
        bad = np.flatnonzero(sd <= 0.0)
        if bad.size:
            raise ValueError(f"zero-variance column {names[bad[0]]!r}")
        return (values - values.mean(axis=0)) / sd
    if kind != "gaussian-rank":
        raise ValueError(f"unknown score kind {kind!r}")
    tied = np.flatnonzero((values == values[0]).all(axis=0))
    if tied.size:
        raise ValueError(f"degenerate column {names[tied[0]]!r}: all values tied")
    return _midrank_scores(_midranks(values))


def _pearson_of_values(values: np.ndarray, names=None) -> np.ndarray:
    n = values.shape[0]
    if n < 2:
        raise ValueError("need at least two observations")
    centered = values - values.mean(axis=0)
    sd = np.sqrt((centered * centered).sum(axis=0))
    if np.any(sd <= 0.0):
        j = int(np.flatnonzero(sd <= 0.0)[0])
        name = names[j] if names is not None else f"col{j}"
        raise ValueError(f"zero-variance column {name!r}")
    std = centered / sd
    corr = std.T @ std
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    return np.clip(corr, -1.0, 1.0)


def pearson_corr_matrix(Z) -> CorrelationMatrix:
    """Product-moment correlation matrix; errors on a zero-variance column.
    Each column is first scaled exactly by a power of two, so the squares
    of a finite table neither overflow nor underflow."""
    values, names = as_table(Z)
    _, exp = np.frexp(np.abs(values).max(axis=0, initial=0.0))
    R = _pearson_of_values(np.ldexp(values, -exp), names)
    return CorrelationMatrix(R, "pearson", names)


def gaussian_rank_corr_matrix(Z) -> CorrelationMatrix:
    """Pearson correlation of the columnwise normal scores.

    Positive semi-definite by construction and invariant under strictly
    monotone transforms of each column.
    """
    values, names = as_table(Z)
    if values.shape[0] < 3:
        raise ValueError("need at least three observations")
    R = _pearson_of_values(score_matrix(Z, "gaussian-rank"), names)
    return CorrelationMatrix(R, "gaussian-rank", names)


def assemble_covariance(R: CorrelationMatrix, scales) -> CovarianceModel:
    """Combine a correlation matrix with a vector of per-column scales into
    sigma[i, j] = s_i * R[i, j] * s_j, plus its square-root factors."""
    scales = np.array(scales, dtype=float)
    if scales.size != R.matrix.shape[0]:
        raise ValueError(
            f"{scales.size} scales for a {R.matrix.shape[0]}-column matrix"
        )
    if np.any(scales <= 0.0):
        j = int(np.flatnonzero(scales <= 0.0)[0])
        name = R.columns[j] if R.columns else f"col{j}"
        raise ValueError(f"nonpositive scale for column {name!r}")
    sigma = R.matrix * np.outer(scales, scales)
    v, w = sqrt_factorize(sigma)
    return CovarianceModel(sigma=sigma, scales=scales, sqrt_v=v, sqrt_w=w,
                           columns=R.columns)


def sqrt_factorize(sigma):
    """Symmetric square root of a PSD matrix, split into its first column v
    and the remaining columns W.

    Eigenvalues in [-1e-8 * ||sigma||, 0) are clipped to zero (floating-point
    fuzz); anything more negative raises. LAPACK ``eigh`` reads only one
    triangle, so squareness and symmetry are checked here.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.max(np.abs(sigma))))
    if np.max(np.abs(sigma - sigma.T)) > 1e-10 * scale:
        raise ValueError("matrix must be symmetric")
    lam, vecs = np.linalg.eigh(0.5 * (sigma + sigma.T))  # ascending order
    bound = 1e-8 * max(1e-300, float(np.max(np.abs(lam))))
    if lam[0] < -bound:
        raise ValueError("not positive semi-definite")
    root = (vecs * np.sqrt(np.clip(lam, 0.0, None))) @ vecs.T
    return root[:, 0].copy(), root[:, 1:].copy()
