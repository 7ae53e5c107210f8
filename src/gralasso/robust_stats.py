"""Univariate robust estimators: median, Qn scale, ranks and normal scores.

These are the column-level building blocks behind the rank-based correlation
estimators. `_robust_summaries`, `_medians` and `_qn_of_sorted` work on
whole tables, one column per row of the sorted transpose; `median`,
`qn_scale` and `robust_summary` are their calls on a one-column table. The
public functions validate their input (no NaN or infinite entries); all are
pure, so concurrent use needs no locking.
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

# Qn lists the remaining candidate differences outright once at most
# max(n, _QN_BAND) of them are left; at n <= 200 that is every pair.
_QN_BAND = 20_000


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
    return float(_medians(np.sort(_as_sample(x))[None])[0])


def qn_scale(x) -> float:
    """Qn scale estimate: 2.2219 times the k-th smallest pairwise absolute
    difference, with h = floor(n/2) + 1 and k = C(h, 2).

    Robust (50% breakdown) and, unlike the MAD, efficient under normality.
    The order statistic is always a realised pairwise difference, equal bit
    for bit to sorting all n(n-1)/2 of them (`_qn_of_sorted`).
    """
    arr = _as_sample(x, min_n=2, min_n_message="need at least two observations")
    return float(_qn_of_sorted(np.sort(arr)[None])[0])


def _medians(xs: np.ndarray) -> np.ndarray:
    """Median of each row of a table whose rows are sorted."""
    m = xs.shape[1] // 2
    return xs[:, m].copy() if xs.shape[1] % 2 else (xs[:, m - 1] + xs[:, m]) / 2


def _lists_all_pairs(n: int) -> bool:
    """Whether Qn lists all n(n-1)/2 pairs of n values (n <= 200)."""
    return n * (n - 1) // 2 <= max(n, _QN_BAND)


def _robust_summaries(values: np.ndarray):
    """(medians, Qn scales) of the columns of a table of n >= 2 rows.

    Up to the listing band the transposed table is sorted once. Longer
    columns are sorted one at a time: a sorted copy of the whole table
    beside Qn's selection passes would nearly double the peak memory.
    """
    if values.shape[1] == 1 or _lists_all_pairs(values.shape[0]):
        xs = np.sort(values.T, axis=1)
        return _medians(xs), _qn_of_sorted(xs)
    loc, scale = zip(*(_robust_summaries(col[:, None]) for col in values.T))
    return np.concatenate(loc), np.concatenate(scale)


def _qn_of_sorted(xs: np.ndarray) -> np.ndarray:
    """Qn of each row of a table whose rows are sorted (n >= 2 columns).

    Up to the listing band every row lists its n(n-1)/2 pairwise
    differences from one shared set of pair indices and takes the k-th
    with a partition; one listing of the whole table is slower at n = 100,
    bound by memory rather than by calls. Longer rows select the k-th
    difference by counting passes (`_qn_kth_diff`).
    """
    n = xs.shape[1]
    h = n // 2 + 1
    k = h * (h - 1) // 2
    kth = np.empty(xs.shape[0])
    if _lists_all_pairs(n):
        # pairs j < i in the order `_qn_kth_diff` lists them, so that the
        # partition picks the same difference, signed zeros included
        i, j = np.tril_indices(n, -1)
        for r, row in enumerate(xs):
            diff = row.take(i)
            diff -= row.take(j)
            diff.partition(k - 1)
            kth[r] = diff[k - 1]
    else:
        for r, row in enumerate(xs):
            kth[r] = _qn_kth_diff(row, k)
    return QN_CONSISTENCY * kth


def _qn_kth_diff(xs: np.ndarray, k: int) -> float:
    """k-th smallest (1-based) difference xs[i] - xs[j], j < i, of sorted xs.

    Row i keeps an interval [lo[i], hi[i]) of candidate partners j; their
    differences fall as j rises. Partners j >= hi[i] are known to lie below
    the answer (`below` counts them) and partners j < lo[i] above it. Each
    round takes a systematic sample of n candidates and picks two of them
    as pivots around the target rank, as in Floyd & Rivest's selection, so
    that a round usually cuts both sides. Every row is split at a pivot into
    differences below, equal to and above it by counting passes (`_qn_cut`),
    and a pivot whose own ties hold the target rank is the answer. A round
    costs O(n log n) and keeps about 4/sqrt(n) of the candidates: 20,000
    values take three rounds of two passes. Once at most max(n, _QN_BAND)
    candidates remain they are listed and the answer is taken with
    np.partition (`_qn_of_sorted` lists all pairs itself at n <= 200). Rows
    are cut on the computed differences, never on xs - t, so the answer is
    always a realised difference.
    """
    n = xs.size
    lo = np.zeros(n, dtype=np.intp)
    hi = np.arange(n)
    below = 0
    while True:
        w = hi - lo
        ends = np.cumsum(w)
        m = int(ends[-1])
        r = k - below  # rank of the answer among the remaining candidates
        if m <= max(n, _QN_BAND):
            rows = np.flatnonzero(w)
            i = np.repeat(rows, w[rows])
            j = np.arange(m) + np.repeat(hi[rows] - ends[rows], w[rows])
            return float(np.partition(xs[i] - xs[j], r - 1)[r - 1])
        # candidates numbered row by row; sample n of them evenly
        pos = ((np.arange(n) + 0.5) * (m / n)).astype(np.intp)
        i = np.searchsorted(ends, pos, side="right")
        sample = np.sort(xs[i] - xs[hi[i] - ends[i] + pos])
        mid = (r - 0.5) * n / m
        spread = 2.0 * math.sqrt(n)
        p_lo = sample[max(0, int(mid - spread))]
        p_hi = sample[min(n - 1, int(mid + spread) + 1)]
        # partners j >= cut[i] have differences <= p (< p when strict)
        le_lo = _qn_cut(xs, lo, hi, p_lo, strict=False)
        n_le_lo = int(np.sum(hi - le_lo))
        if r <= n_le_lo:  # at or below p_lo
            lt_lo = _qn_cut(xs, lo, hi, p_lo, strict=True)
            if r > int(np.sum(hi - lt_lo)):
                return float(p_lo)
            lo = lt_lo
            continue
        lt_hi = _qn_cut(xs, lo, hi, p_hi, strict=True)
        if r <= int(np.sum(hi - lt_hi)):  # strictly between the pivots
            lo, hi = lt_hi, le_lo
            below += n_le_lo
            continue
        le_hi = _qn_cut(xs, lo, hi, p_hi, strict=False)
        n_le_hi = int(np.sum(hi - le_hi))
        if r <= n_le_hi:
            return float(p_hi)
        hi = le_hi  # above p_hi
        below += n_le_hi


def _qn_cut(xs, lo, hi, t, strict):
    """Per row i, the first partner j in [lo[i], hi[i]] from which on every
    computed difference xs[i] - xs[j] is <= t (< t when strict)."""
    cut = np.searchsorted(xs, xs - t, side="right" if strict else "left")
    np.clip(cut, lo, hi, out=cut)
    keep = np.less if strict else np.less_equal
    # xs - t is rounded, so the search may stop a tie block short of the cut
    # or past it; step over whole tie blocks until the differences agree
    while True:
        rows = np.flatnonzero(cut < hi)
        rows = rows[~keep(xs[rows] - xs[cut[rows]], t)]
        if rows.size == 0:
            break
        step = np.searchsorted(xs, xs[cut[rows]], side="right")
        cut[rows] = np.minimum(step, hi[rows])
    while True:
        rows = np.flatnonzero(cut > lo)
        rows = rows[keep(xs[rows] - xs[cut[rows] - 1], t)]
        if rows.size == 0:
            break
        step = np.searchsorted(xs, xs[cut[rows] - 1], side="left")
        cut[rows] = np.maximum(step, lo[rows])
    return cut


def ranks(x) -> np.ndarray:
    """Ranks in 1..n; tied values share their mid-rank average."""
    return _midranks(_as_sample(x)[:, None])[:, 0]


def _midranks(values: np.ndarray) -> np.ndarray:
    """Mid-ranks of each column of a float table: one argsort of the
    transposed rows, then running maxima and reversed running minima carry
    each tie block's start a + 1 and end b to all its entries, for the exact
    mid-rank 0.5 (a + 1 + b)."""
    n, m = values.shape
    cols = values.T
    order = np.argsort(cols, axis=1)
    cols = np.take_along_axis(cols, order, axis=1)
    start = np.ones((m, n), dtype=bool)
    np.not_equal(cols[:, 1:], cols[:, :-1], out=start[:, 1:])
    end = np.roll(start, -1, axis=1)  # start[:, 0] is True: rows end blocks
    pos = np.arange(1.0, n + 1)
    lo = np.multiply(start, pos, out=cols)
    np.maximum.accumulate(lo, axis=1, out=lo)
    hi = np.where(end, pos, float(n))
    np.minimum.accumulate(hi[:, ::-1], axis=1, out=hi[:, ::-1])
    lo += hi
    lo *= 0.5
    out = np.empty_like(values)
    np.put_along_axis(out.T, order, lo, axis=1)
    return out


def normal_scores(x) -> np.ndarray:
    """Normal scores: standard-normal quantiles of rank/(n+1).

    Invariant under strictly increasing transforms of the data, and always
    finite since rank/(n+1) stays inside (0, 1).
    """
    return _midrank_scores(_midranks(_as_sample(x, min_n=2)[:, None]))[:, 0]


def _midrank_scores(r: np.ndarray) -> np.ndarray:
    """Normal scores of a table of n-row mid-ranks, written over them: the
    mid-ranks take the 2n - 1 values 1, 1.5, ..., n, so each is scored once
    and looked up."""
    n = r.shape[0]
    half = np.arange(2, 2 * n + 1) * 0.5
    r[...] = std_normal_quantile(half / (n + 1))[(2.0 * r).astype(int) - 2]
    return r


# Wichura's AS241 (PPND16) rational approximations, lowest degree first:
# numerator and denominator for the central region |p - 1/2| <= 0.425,
# then for r = sqrt(-log(p)) <= 5 (shifted by 1.6) and beyond (shifted by 5).
_AS241_CENTRAL = (
    (3.387132872796366608, 133.14166789178437745, 1971.5909503065514427,
     13731.693765509461125, 45921.953931549871457, 67265.770927008700853,
     33430.575583588128105, 2509.0809287301226727),
    (1.0, 42.313330701600911252, 687.1870074920579083, 5394.1960214247511077,
     21213.794301586595867, 39307.89580009271061, 28729.085735721942674,
     5226.495278852854561),
)
_AS241_NEAR = (
    (1.42343711074968357734, 4.6303378461565452959, 5.7694972214606914055,
     3.64784832476320460504, 1.27045825245236838258, 0.24178072517745061177,
     0.0227238449892691845833, 7.7454501427834140764e-4),
    (1.0, 2.05319162663775882187, 1.6763848301838038494, 0.68976733498510000455,
     0.14810397642748007459, 0.0151986665636164571966, 5.475938084995344946e-4,
     1.05075007164441684324e-9),
)
_AS241_FAR = (
    (6.6579046435011037772, 5.4637849111641143699, 1.7848265399172913358,
     0.29656057182850489123, 0.026532189526576123093, 0.0012426609473880784386,
     2.71155556874348757815e-5, 2.01033439929228813265e-7),
    (1.0, 0.59983220655588793769, 0.13692988092273580531, 0.0148753612908506148525,
     7.868691311456132591e-4, 1.8463183175100546818e-5, 1.4215117583164458887e-7,
     2.04426310338993978564e-15),
)


def _rational(coefs, r):
    num, den = coefs
    top, bottom = num[-1], den[-1]
    for a, b in zip(num[-2::-1], den[-2::-1]):
        top = top * r + a
        bottom = bottom * r + b
    return top / bottom


def _as241_lower(p: np.ndarray) -> np.ndarray:
    # lower half only (p <= 0.5): std_normal_quantile reflects the rest
    z = np.empty_like(p)
    q = p - 0.5
    central = q >= -0.425
    qc = q[central]
    z[central] = qc * _rational(_AS241_CENTRAL, 0.180625 - qc * qc)
    r = np.sqrt(-np.log(p[~central]))
    far = r > 5.0  # p < exp(-25), never a normal score below n = 7e10
    r[~far] = _rational(_AS241_NEAR, r[~far] - 1.6)
    if far.any():
        r[far] = _rational(_AS241_FAR, r[far] - 5.0)
    z[~central] = -r
    return z


def std_normal_quantile(p):
    """Standard normal quantile for p in the open interval (0, 1).

    Wichura's AS241 (PPND16) rational approximations, accurate to about
    1e-16 relative, evaluated with array operations only. Upper-tail
    arguments are reflected through the exact complement 1 - p, so the
    p <-> 1-p symmetry is exact. Accepts a scalar or an array and matches
    the input shape.
    """
    scalar = np.isscalar(p)
    arr = np.asarray(p, dtype=float)
    if arr.size and not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("probability out of range")
    flat = arr.reshape(-1) if arr.ndim else arr.reshape(1)
    flip = flat > 0.5
    x = _as241_lower(np.where(flip, 1.0 - flat, flat))
    x = np.where(flip, -x, x)
    if scalar:
        return float(x[0])
    return x.reshape(arr.shape)


def robust_summary(x) -> RobustSummary:
    """Median and Qn of a sample, bundled for standardisation: the
    summaries of a one-column table, sorted once for both."""
    loc, scale = _robust_summaries(_as_sample(
        x, min_n=2, min_n_message="need at least two observations")[:, None])
    return RobustSummary(location=float(loc[0]), scale=float(scale[0]))
