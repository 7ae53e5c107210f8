"""Univariate robust estimators: median, Qn scale, ranks and normal scores.

These are the column-level building blocks behind the rank-based correlation
estimators. All functions validate their input (no NaN or infinite entries)
and are pure, so concurrent use needs no locking.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QN_CONSISTENCY",
    "RobustSummary",
    "median",
    "qn_scale",
    "ranks",
    "normal_scores",
    "std_normal_quantile",
    "robust_summary",
]

# Scale factor making the Qn estimator consistent for the standard deviation
# under normality (1 / (sqrt(2) * qnorm(5/8))). No finite-sample correction
# is applied; see the package docs.
QN_CONSISTENCY = 2.2219

# Largest n for which all pairwise differences are enumerated in memory.
# Beyond this, an order-statistic selection via counting/bisection is used;
# both paths return the same value and cross over in speed around n = 200.
_QN_DENSE_LIMIT = 200


@dataclass(frozen=True)
class RobustSummary:
    """Per-column location and scale estimates (median and Qn by default)."""

    location: float
    scale: float

    def __post_init__(self):
        if not (math.isfinite(self.location) and math.isfinite(self.scale)):
            raise ValueError("summary entries must be finite")
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")


def _as_sample(x, min_n: int = 1, min_n_message: str | None = None) -> np.ndarray:
    arr = np.asarray(x, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("empty input")
    if arr.size < min_n:
        raise ValueError(min_n_message or f"need at least {min_n} observations")
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise ValueError(f"sample contains a non-finite value at position {bad}")
    return arr


def median(x) -> float:
    """Sample median: middle order statistic, or the average of the two
    middle order statistics for even n."""
    arr = _as_sample(x)
    return float(np.median(arr))


def qn_scale(x) -> float:
    """Qn scale estimate: 2.2219 times the k-th smallest pairwise absolute
    difference, with h = floor(n/2) + 1 and k = C(h, 2).

    Robust (50% breakdown) and, unlike the MAD, efficient under normality.
    Small samples enumerate all pairs; large samples select the same order
    statistic by counting on the sorted values.
    """
    arr = _as_sample(x, min_n=2, min_n_message="need at least two observations")
    n = arr.size
    h = n // 2 + 1
    k = h * (h - 1) // 2
    if n <= _QN_DENSE_LIMIT:
        kth = _qn_kth_diff_dense(arr, k)
    else:
        kth = _qn_kth_diff_select(arr, k)
    return QN_CONSISTENCY * kth


def _qn_kth_diff_dense(arr: np.ndarray, k: int) -> float:
    i, j = np.triu_indices(arr.size, k=1)
    diffs = np.abs(arr[i] - arr[j])
    return float(np.partition(diffs, k - 1)[k - 1])


def _qn_kth_diff_select(arr: np.ndarray, k: int) -> float:
    # k-th smallest pairwise difference without materialising all O(n^2)
    # pairs: bisect on the value, counting pairs below the pivot in
    # O(n log n) per step. The count only jumps at realised differences, so
    # the bisection lands exactly on the order statistic.
    xs = np.sort(arr)
    n = xs.size
    idx = np.arange(n)

    def count_le(t: float) -> int:
        lo = np.searchsorted(xs, xs - t, side="left")
        return int(np.sum(idx - lo))

    if count_le(0.0) >= k:
        return 0.0
    lo, hi = 0.0, float(xs[-1] - xs[0])
    while True:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        if count_le(mid) >= k:
            hi = mid
        else:
            lo = mid
    return hi


def ranks(x, ties: str = "midrank") -> np.ndarray:
    """Ranks in 1..n. Tied values share their mid-rank average under the
    default policy; "ordinal" assigns distinct ranks in input order."""
    arr = _as_sample(x)
    n = arr.size
    if ties == "ordinal":
        out = np.empty(n, dtype=float)
        out[np.argsort(arr, kind="stable")] = np.arange(1, n + 1)
        return out
    if ties != "midrank":
        raise ValueError(f"unknown tie policy {ties!r}")
    _, inverse, counts = np.unique(arr, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts
    midranks = 0.5 * (starts + 1 + ends)
    return midranks[inverse]


def normal_scores(x) -> np.ndarray:
    """Normal scores: standard-normal quantiles of rank/(n+1).

    Invariant under strictly increasing transforms of the data, and always
    finite since rank/(n+1) stays inside (0, 1).
    """
    arr = _as_sample(x, min_n=2)
    return std_normal_quantile(ranks(arr) / (arr.size + 1))


# Coefficients of Acklam's rational approximation to the standard normal
# quantile (central region and tails), polished below by one Newton step.
_ACK_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACK_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_ACK_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACK_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)

_ERFC = np.vectorize(math.erfc, otypes=[float])
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _acklam(p: np.ndarray) -> np.ndarray:
    # lower half only (p <= 0.5): std_normal_quantile reflects upper-tail
    # arguments, so Acklam's upper-tail region is never reached
    z = np.empty_like(p)
    low = p < 0.02425
    if np.any(low):
        q = np.sqrt(-2.0 * np.log(p[low]))
        z[low] = (
            ((((_ACK_C[0] * q + _ACK_C[1]) * q + _ACK_C[2]) * q + _ACK_C[3]) * q + _ACK_C[4]) * q
            + _ACK_C[5]
        ) / ((((_ACK_D[0] * q + _ACK_D[1]) * q + _ACK_D[2]) * q + _ACK_D[3]) * q + 1.0)

    mid = ~low
    if np.any(mid):
        q = p[mid] - 0.5
        r = q * q
        z[mid] = (
            ((((_ACK_A[0] * r + _ACK_A[1]) * r + _ACK_A[2]) * r + _ACK_A[3]) * r + _ACK_A[4]) * r
            + _ACK_A[5]
        ) * q / (
            ((((_ACK_B[0] * r + _ACK_B[1]) * r + _ACK_B[2]) * r + _ACK_B[3]) * r + _ACK_B[4]) * r
            + 1.0
        )

    return z


def _std_normal_cdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * _ERFC(-x / _SQRT2)


def std_normal_quantile(p):
    """Standard normal quantile for p in the open interval (0, 1).

    Rational approximation followed by one Newton refinement against the
    erfc-based CDF; absolute error is far below 1e-9 everywhere. Upper-tail
    arguments are reflected through the exact complement 1 - p, so the
    refinement never hits cancellation and the p <-> 1-p symmetry is exact.
    Accepts a scalar or an array and matches the input shape.
    """
    scalar = np.isscalar(p)
    arr = np.asarray(p, dtype=float)
    if arr.size and not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("probability out of range")
    flat = arr.reshape(-1) if arr.ndim else arr.reshape(1)
    flip = flat > 0.5
    work = np.where(flip, 1.0 - flat, flat)
    x = _acklam(work)
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    x -= (_std_normal_cdf(x) - work) / pdf
    x = np.where(flip, -x, x)
    if scalar:
        return float(x[0])
    return x.reshape(arr.shape)


def robust_summary(x) -> RobustSummary:
    """Median and Qn of a sample, bundled for standardisation."""
    arr = _as_sample(x, min_n=2, min_n_message="need at least two observations")
    return RobustSummary(location=median(arr), scale=qn_scale(arr))
