import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gralasso import regression
from gralasso.covariance import (
    CorrelationMatrix,
    _pearson_of_values,
    gaussian_rank_corr_matrix,
    pearson_corr_matrix,
    score_matrix,
)
from gralasso.data import DataMatrix
from gralasso.regression import (
    AdaptiveWeights,
    adaptive_weights,
    column_summaries,
    cross_validate,
    destandardize,
    fit_gr_alasso,
    fit_path,
    initial_estimate_direct,
    initial_estimate_ridge,
    lambda_grid,
    marginal_gr_correlations,
    penalized_objective,
    screen_top_k,
)
from gralasso.robust_stats import normal_scores, robust_summary

from oracles import (
    cd_reference,
    grid_minimize,
    kkt_by_point,
    ols_fit,
    penalized_objective_naive,
    qn_by_sorted_differences,
    soft_threshold,
    solve_path_reference,
    write_pieces_per_round,
)


def _corr_from(matrix):
    return CorrelationMatrix(np.asarray(matrix, dtype=float), "pearson")


class _Parts:
    """Bare partition holder; fit_path only needs the xx/xy attributes."""

    def __init__(self, xx, xy):
        self.xx = np.asarray(xx, dtype=float)
        self.xy = np.asarray(xy, dtype=float)


def _embed(gram, c):
    return _Parts(gram, c)


def _kkt_holds(gram, c, w, lam, n, b, tol):
    grad = 2.0 * n * (np.asarray(gram) @ b - np.asarray(c))
    slack = 10.0 * tol * n
    for j in range(b.size):
        if not np.isfinite(w[j]):
            if b[j] != 0.0:
                return False
            continue
        if b[j] != 0.0:
            if abs(grad[j] + lam * w[j] * np.sign(b[j])) > slack:
                return False
        elif abs(grad[j]) > lam * w[j] + slack:
            return False
    return True


def _random_instance(rng, p):
    A = rng.standard_normal((p + 4, p))
    gram = A.T @ A / (p + 4)
    c = rng.standard_normal(p)
    w = rng.uniform(0.2, 5.0, size=p)
    return gram, c, w


class TestInitialEstimates:
    def test_direct_identity(self):
        model = _embed(np.eye(3), [0.8, 0.0, 0.0])
        assert np.allclose(initial_estimate_direct(model), [0.8, 0.0, 0.0])

    def test_direct_two_by_two_hand_solve(self):
        model = _embed([[1.0, 0.5], [0.5, 1.0]], [1.0, 0.5])
        assert np.allclose(initial_estimate_direct(model), [1.0, 0.0],
                           atol=1e-12)

    def test_direct_matches_ols_oracle(self):
        rng = np.random.default_rng(20)
        X = rng.standard_normal((200, 4))
        y = X @ np.array([1.0, -2.0, 0.0, 0.5]) + rng.standard_normal(200)
        Z = DataMatrix.from_arrays(y, X)
        R = pearson_corr_matrix(Z)
        summ = column_summaries(Z, "pearson")
        beta_std = initial_estimate_direct(R)
        beta, intercept = destandardize(beta_std, summ)
        slopes, inter = ols_fit(X, y)
        assert np.allclose(beta, slopes, atol=1e-8)
        assert intercept == pytest.approx(inter, abs=1e-8)

    def test_direct_rejects_singular(self):
        m = np.ones((3, 3)) * 0.999999999999
        np.fill_diagonal(m, 1.0)
        with pytest.raises(ValueError, match="ridge"):
            initial_estimate_direct(_corr_from(m))

    def test_ridge_identity(self):
        model = _embed(np.eye(2), [2.0, 0.0])
        assert np.allclose(initial_estimate_ridge(model, 1.0), [1.0, 0.0])

    def test_ridge_large_kappa_shrinks_to_zero(self):
        rng = np.random.default_rng(21)
        gram, c, _ = _random_instance(rng, 5)
        model = _embed(gram / np.max(np.abs(gram)) * 0.5 + np.eye(5) * 0.5, c * 0.1)
        big = initial_estimate_ridge(model, 1e8)
        assert np.max(np.abs(big)) <= 1e-7

    def test_ridge_high_dimensional_smoke(self):
        rng = np.random.default_rng(22)
        data = rng.standard_normal((100, 201))
        R = gaussian_rank_corr_matrix(data)
        beta = initial_estimate_ridge(R, 0.1)
        assert beta.shape == (200,)
        assert np.all(np.isfinite(beta))
        assert np.linalg.norm(beta) < 100

    def test_ridge_requires_positive_kappa(self):
        with pytest.raises(ValueError, match="kappa"):
            initial_estimate_ridge(_embed(np.eye(2), [1.0, 0.0]), 0.0)


class TestAdaptiveWeights:
    def test_inverse(self):
        w = adaptive_weights([2.0, 0.5])
        assert np.allclose(w.weights, [0.5, 2.0])

    def test_zero_gives_infinite_weight(self):
        w = adaptive_weights([1.0, 0.0])
        assert w.weights[1] == np.inf
        # the pinned coordinate stays zero at every lambda
        gram = np.eye(2)
        b = fit_path(_Parts(gram, [0.9, 0.9]), w, [0.1], 50).coefficients[0]
        assert b[1] == 0.0 and b[0] != 0.0

    def test_scaling_equivalence(self):
        # scaling the initial estimate by c rescales the path: lambda' = lambda / c
        rng = np.random.default_rng(23)
        gram, cvec, _ = _random_instance(rng, 3)
        beta_init = rng.uniform(0.5, 2.0, size=3)
        scale = 2.5
        w1 = adaptive_weights(beta_init)
        w2 = adaptive_weights(scale * beta_init)
        lam = 4.0
        b1 = fit_path(_Parts(gram, cvec), w1, [lam], 30, tol=1e-10)
        b2 = fit_path(_Parts(gram, cvec), w2, [lam * scale], 30, tol=1e-10)
        assert np.allclose(b1.coefficients, b2.coefficients, atol=1e-8)

    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError, match="exclusion_eps"):
            adaptive_weights([1.0], exclusion_eps=-1.0)


class TestLambdaGrid:
    def test_single_predictor_kkt(self):
        grid = lambda_grid(np.eye(1), np.array([0.5]), np.array([1.0]), 10)
        assert grid[0] == pytest.approx(10.0)

    def test_zero_covariance_degenerate(self):
        with pytest.warns(UserWarning, match="degenerate lambda grid"):
            grid = lambda_grid(np.eye(2), np.zeros(2), np.ones(2), 10)
        assert np.array_equal(grid, [0.0])

    def test_weight_homogeneity(self):
        c = np.array([0.3, -0.7])
        w = np.array([1.0, 2.0])
        g1 = lambda_grid(np.eye(2), c, w, 10)
        g2 = lambda_grid(np.eye(2), c, 2 * w, 10)
        assert g2[0] == pytest.approx(0.5 * g1[0])

    def test_zero_raw_weight_is_rejected(self):
        # a zero weight would put lambda_max at +inf
        with pytest.raises(ValueError, match="weights must be positive"):
            lambda_grid(np.eye(2), np.array([0.5, 0.3]), np.array([0.0, 1.0]),
                        10)

    def test_all_infinite_weights(self):
        with pytest.raises(ValueError, match="no admissible predictors"):
            lambda_grid(np.eye(2), np.ones(2), np.full(2, np.inf), 10)

    def test_descending_log_spacing(self):
        grid = lambda_grid(np.eye(2), np.array([1.0, 0.2]), np.ones(2), 100,
                           n_lambda=7, ratio=1e-2)
        assert grid.size == 7
        assert np.all(np.diff(grid) < 0)
        assert grid[-1] == pytest.approx(grid[0] * 1e-2)
        ratios = grid[1:] / grid[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_solution_zero_at_lambda_max(self):
        rng = np.random.default_rng(24)
        gram, c, w = _random_instance(rng, 4)
        grid = lambda_grid(gram, c, w, 60)
        b = fit_path(_Parts(gram, c), w, [grid[0]], 60).coefficients[0]
        assert np.array_equal(b, np.zeros(4))
        # just below lambda_max something activates
        b = fit_path(_Parts(gram, c), w, [grid[0] * 0.99], 60).coefficients[0]
        assert np.any(b != 0.0)


class TestCoordinateDescent:
    def test_unpenalized_limit(self):
        rng = np.random.default_rng(25)
        gram, c, w = _random_instance(rng, 4)
        b = fit_path(_Parts(gram, c), w, [0.0], 80, tol=1e-10).coefficients[0]
        assert np.allclose(b, np.linalg.solve(gram, c), atol=1e-7)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_grid_search_oracle(self, seed):
        rng = np.random.default_rng(900 + seed)
        p = int(rng.integers(2, 4))
        gram, c, w = _random_instance(rng, p)
        lam_max = np.max(2.0 * 40 * np.abs(c) / w)
        lam = float(rng.uniform(0.1, 0.7)) * lam_max
        b = fit_path(_Parts(gram, c), w, [lam], 40, tol=1e-10).coefficients[0]
        ref = grid_minimize(gram, c, w, lam, 40,
                            half_width=float(np.max(np.abs(b)) + 0.5))
        assert np.max(np.abs(b - ref)) <= 1e-4
        err = penalized_objective_naive(gram, c, w, lam, 40, b) - \
            penalized_objective_naive(gram, c, w, lam, 40, ref)
        assert err <= 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_kkt_certificate(self, seed):
        rng = np.random.default_rng(1000 + seed)
        gram, c, w = _random_instance(rng, 6)
        lam_max = np.max(2.0 * 50 * np.abs(c) / w)
        for lam in (0.0, 0.05 * lam_max, 0.3 * lam_max, 0.9 * lam_max):
            b = fit_path(_Parts(gram, c), w, [lam], 50).coefficients[0]
            assert _kkt_holds(gram, c, w, lam, 50, b, 1e-7)

    def test_objective_nonincreasing_over_sweeps(self):
        # the reference descends monotonically and never below the exact path
        rng = np.random.default_rng(26)
        gram, c, w = _random_instance(rng, 5)
        lam = 0.2 * np.max(2.0 * 30 * np.abs(c) / w)
        prev = penalized_objective(gram, c, w, lam, 30, np.zeros(5))
        for sweeps in range(1, 12):
            b, _, _ = cd_reference(gram, c, w, lam, 30, None, 0.0, sweeps)
            val = penalized_objective(gram, c, w, lam, 30, b)
            assert val <= prev + 1e-9 * (1 + abs(prev))
            prev = val
        exact = fit_path(_Parts(gram, c), w, [lam], 30).coefficients[0]
        best = penalized_objective(gram, c, w, lam, 30, exact)
        assert best <= prev + 1e-9 * (1 + abs(prev))

    def test_objective_matches_naive(self):
        rng = np.random.default_rng(27)
        gram, c, w = _random_instance(rng, 4)
        b = rng.standard_normal(4)
        assert penalized_objective(gram, c, w, 3.0, 25, b) == pytest.approx(
            penalized_objective_naive(gram, c, w, 3.0, 25, b))

    def test_degenerate_predictor_variance(self):
        gram = np.diag([1.0, 0.0])
        with pytest.raises(ValueError, match="degenerate predictor variance"):
            fit_path(_Parts(gram, [0.5, 0.5]), np.ones(2), [0.1], 10)

    def test_no_predictors(self):
        path = fit_path(_Parts(np.zeros((0, 0)), []), [], [1.0], 10)
        assert path.coefficients.shape == (1, 0)

    def test_dimension_mismatch(self):
        # every entry point reaches the one check in _solve_path, for a
        # mismatched c and for weights of the wrong length
        grid = np.array([0.1])
        with pytest.raises(ValueError, match="dimension mismatch"):
            fit_path(_Parts(np.eye(3), np.ones(2)), np.ones(2), grid, 10)
        with pytest.raises(ValueError, match="dimension mismatch"):
            fit_path(_Parts(np.eye(3), np.ones(3)), np.ones(2), grid, 10)
        Z = np.random.default_rng(0).standard_normal((20, 4))
        with pytest.raises(ValueError, match="dimension mismatch"):
            fit_path(pearson_corr_matrix(Z), np.ones(2), grid, 20)
        with pytest.raises(ValueError, match="dimension mismatch"):
            cross_validate(Z, np.ones(2), grid)

    def test_negative_raw_weight_is_rejected(self):
        # a negative weight rewards |b_j|: the objective has no minimiser
        with pytest.raises(ValueError, match="weights must be positive"):
            fit_path(_Parts(np.eye(2), [0.5, 0.3]), [-1.0, 1.0], [1.0], 10)



def _unit_gram(rng, rows, p, duplicate):
    """Unit-diagonal PSD gram and c from `rows` draws of p + 1 variables,
    with x2 a copy of x1 if `duplicate`."""
    data = rng.standard_normal((rows, p + 1))
    if duplicate:
        data[:, 2] = data[:, 1]
    m = data.T @ data
    d = np.sqrt(np.diag(m))
    m = m / np.outer(d, d)
    np.fill_diagonal(m, 1.0)
    return m[1:, 1:], m[1:, 0]


@st.composite
def _lasso_instances(draw):
    """Unit-diagonal PSD gram and c from `rows` draws of p + 1 variables
    (rank-deficient when rows <= p, optionally with a duplicated
    predictor), weights with some +inf, lambda in [0, lambda_max] and a warm
    start for the coordinate-descent reference that may carry wrong signs."""
    p = draw(st.integers(1, 30))
    rows = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gram, c = _unit_gram(rng, rows, p, p > 1 and draw(st.booleans()))
    w = rng.uniform(0.2, 5.0, p)
    n_inf = draw(st.integers(0, p - 1))
    w[rng.choice(p, n_inf, replace=False)] = np.inf
    n = draw(st.sampled_from([10, 50, 200]))
    finite = np.isfinite(w)
    lam_max = float(np.max(2.0 * n * np.abs(c[finite]) / w[finite]))
    lam = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)) * lam_max
    warm = draw(st.sampled_from(["none", "random", "flipped"]))
    if warm == "none":
        b0 = None
    elif warm == "random":
        b0 = rng.standard_normal(p)
    else:
        b0 = -cd_reference(gram, c, w, lam, n, None, 1e-7, 10000)[0]
    return gram, c, w, lam, n, b0


@st.composite
def _path_instances(draw):
    """A `_lasso_instances` draw with its descending grid down to 0: as
    drawn ("plain"), with exact kink ties on one side ("tied") or with exact
    ties across sides ("flipped").

    "tied": the finite-weight predictors whose c_j has the sign of the first
    one get weights |c_j| 2^-e, so they all join first at exactly the same
    kink, on the same side; both kernels then take the lowest index.
    "flipped": a sign-flipped copy of one finite-weight predictor is
    appended with the same weight, so its kinks tie exactly with the
    original's on the other side.
    """
    gram, c, w, _, n, _ = draw(_lasso_instances())
    variant = draw(st.sampled_from(["plain", "tied", "flipped"]))
    finite = np.flatnonzero(np.isfinite(w))
    if variant == "tied":
        tie = np.sign(c[finite]) == np.sign(c[finite[0]])
        # 2^e exceeds every other |c_j| / w_j
        _, e = np.frexp(np.max(np.abs(c[finite[~tie]]) / w[finite[~tie]],
                               initial=0.0))
        w[finite[tie]] = np.abs(c[finite[tie]]) * 2.0 ** -e
    elif variant == "flipped":
        j = draw(st.sampled_from(finite.tolist()))
        gram = np.block([[gram, -gram[:, j:j + 1]],
                         [-gram[j:j + 1, :], np.ones((1, 1))]])
        c, w = np.append(c, -c[j]), np.append(w, w[j])
    grid = np.append(lambda_grid(gram, c, w, n, n_lambda=20), 0.0)
    return gram, c, w, grid, n, variant


def _row_weights(rng, p):
    """Weights in U(0.2, 5) with up to p - 1 of them +inf."""
    w = rng.uniform(0.2, 5.0, p)
    w[rng.choice(p, rng.integers(0, p), replace=False)] = np.inf
    return w


@st.composite
def _lasso_stacks(draw):
    """One to six problems of a `_lasso_instances` draw's size and n, in a
    drawn order: the others are drawn like it or are a copy of it. Each has
    its own weights (a copy of the first problem's, or drawn with some
    +inf) and its own grid of 20 points from its own lambda_max (a copy of
    the first problem's, or with another ratio), all down to 0 or none."""
    gram, c, w, _, n, _ = draw(_lasso_instances())
    to_zero = draw(st.booleans())

    def grid_of(g, v, wv, ratio):
        grid = lambda_grid(g, v, wv, n, n_lambda=20, ratio=ratio)
        return np.append(grid, 0.0) if to_zero else grid

    grams, cs, ws, grids = [gram], [c], [w], [grid_of(gram, c, w, 1e-3)]
    for _ in range(draw(st.integers(0, 5))):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if draw(st.integers(0, 4)) == 0:
            g, v = gram, c
        else:
            g, v = _unit_gram(rng, draw(st.integers(1, 40)), c.size,
                              c.size > 1 and draw(st.booleans()))
        wv = w if draw(st.integers(0, 2)) == 0 else _row_weights(rng, c.size)
        grid = grid_of(g, v, wv, draw(st.sampled_from([1e-3, 0.05, 0.5])))
        if draw(st.integers(0, 2)) == 0 or grid.size != grids[0].size:
            grid = grids[0]  # shared, or in place of a one-point grid
        grams.append(g)
        cs.append(v)
        ws.append(wv)
        grids.append(grid)
    order = draw(st.permutations(range(len(grams))))
    return tuple(np.array(a)[order] for a in (grams, cs, ws, grids)) + (n,)


def _shared(w, grid, count):
    """Weights and a grid shared by `count` problems, as rows."""
    w, grid = np.asarray(w, dtype=float), np.asarray(grid, dtype=float)
    return (np.broadcast_to(w, (count,) + w.shape),
            np.broadcast_to(grid, (count,) + grid.shape))


def _traced_rounds(grams, cs, wv, grids, n, tol=1e-7):
    """`_solve_path`'s outputs and the records its rounds hand to
    `_write_pieces`."""
    seen = []
    real = regression._write_pieces

    def spy(rounds, *args):
        seen.append(list(rounds))
        return real(rounds, *args)

    with mock.patch.object(regression, "_write_pieces", spy):
        out = regression._solve_path(grams, cs, wv, grids, n, tol)
    return out, seen[0]


def _kink_grid(rounds, grids):
    """One grid of every point of `grids` and every kink of the recorded
    pieces at or above the smallest last point, so that grid points fall
    exactly on kinks; above its old last point each path stays the same."""
    ends = np.concatenate([end for _, _, end, _, _ in rounds])
    low = grids[:, -1].min()
    points = np.concatenate([grids.ravel(), ends[ends >= low]])
    return np.unique(points)[::-1].copy()


def _assert_write_matches_per_round(grams, cs, wv, grids, n, tol=1e-7):
    """The coefficients (signs of zeros included) and piece counts of a
    stacked run are those the per-round write makes of its records, and its
    certificates those of the reference coefficients; returns the run's
    outputs and records."""
    (coefs, pieces, ok), rounds = _traced_rounds(grams, cs, wv, grids, n, tol)
    ref, ref_pieces = write_pieces_per_round(rounds, grids, cs.shape[1])
    assert np.array_equal(coefs, ref)
    assert np.array_equal(np.signbit(coefs), np.signbit(ref))
    assert np.array_equal(pieces, ref_pieces)
    for f in range(len(cs)):
        assert np.array_equal(ok[f], regression._kkt(
            grams[f], cs[f], grids[f], wv[f], 10.0 * tol * n, n, ref[f]))
    return (coefs, pieces, ok), rounds


def _assert_rows_match_stacks_of_one(grams, cs, wv, grids, n, tol=1e-7,
                                     kinks=False):
    """Every row of a stacked run has the pieces, certificates and supports
    of its stack-of-one run, and coefficients within 1e-12 of its largest;
    each run writes its records as the per-round write does. With `kinks`,
    the write is also checked on grids through the exact kinks of each run
    (a stacked row's kinks may differ from its stack-of-one run's in the
    last bits, so each run gets its own)."""
    stacks = [slice(None)] + [slice(f, f + 1) for f in range(len(cs))]
    runs = [_assert_write_matches_per_round(grams[rows], cs[rows], wv[rows],
                                            grids[rows], n, tol)
            for rows in stacks]
    coefs, pieces, ok = runs[0][0]
    assert coefs.shape == (len(cs), grids.shape[1], cs.shape[1])
    for f, (one, _) in enumerate(runs[1:]):
        assert np.array_equal(pieces[f], one[1][0])
        assert np.array_equal(ok[f], one[2][0])
        assert np.array_equal(coefs[f] != 0.0, one[0][0] != 0.0)
        scale = np.max(np.abs(one[0][0]), initial=0.0)
        assert np.all(np.abs(coefs[f] - one[0][0]) <= 1e-12 * scale)
    if kinks:
        for rows, (_, rounds) in zip(stacks, runs):
            grid = _kink_grid(rounds, grids[rows])
            _assert_write_matches_per_round(
                grams[rows], cs[rows], wv[rows],
                np.broadcast_to(grid, (len(cs[rows]), grid.size)), n, tol)


def _assert_matches_the_reference_kernel(gram, c, w, grid, n, variant):
    """A stack of one equals the reference kernel bit for bit, signs of
    zeros included, but for exact kink ties across sides."""
    got = [x[0] for x in regression._solve_path(
        gram[None], c[None], w[None], grid[None], n, 1e-7)]
    ref = solve_path_reference(gram, c, w, grid, n, 1e-7)
    if all(np.array_equal(x, y) for x, y in zip(got, ref)):
        assert np.array_equal(np.signbit(got[0]), np.signbit(ref[0]))
        return
    # only exact kink ties, between a predictor and its sign-flipped
    # copy, may go another way: to the lower index, not + joins first
    assert variant == "flipped"
    assert got[2].all() and ref[2].all()
    for lam, b, b_ref in zip(grid, got[0], ref[0]):
        obj = penalized_objective_naive(gram, c, w, lam, n, b)
        ref_obj = penalized_objective_naive(gram, c, w, lam, n, b_ref)
        assert abs(obj - ref_obj) <= 1e-12 * abs(ref_obj)


class TestLockstepPaths:
    """`_solve_path` traces a stack of problems in lockstep; each row must
    be the stack-of-one run of its problem."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_lasso_stacks())
    def test_rows_match_stacks_of_one(self, inst):
        _assert_rows_match_stacks_of_one(*inst, kinks=True)

    def test_rows_finishing_in_different_rounds(self):
        # one problem at shrinking c: smaller c puts fewer kinks above the
        # grid's end, and c = 0 stops after one piece; also on a grid whose
        # points are the exact kinks
        rng = np.random.default_rng(64)
        gram, c = _unit_gram(rng, 40, 8, False)
        grams = np.array([gram] * 4)
        cs = np.array([c, 0.3 * c, 0.1 * c, 0.0 * c])
        w = rng.uniform(0.2, 5.0, 8)
        grid = lambda_grid(gram, c, w, 40, n_lambda=30, ratio=0.02)
        _, rounds = _traced_rounds(grams, cs, *_shared(w, grid, 4), 40)
        last = [max(r for r, rec in enumerate(rounds) if f in rec[0])
                for f in range(4)]
        assert last[3] == 0 and len(set(last)) == 4
        _assert_rows_match_stacks_of_one(grams, cs, *_shared(w, grid, 4), 40,
                                         kinks=True)

    def test_no_predictors(self):
        coefs, pieces, ok = regression._solve_path(
            np.zeros((3, 0, 0)), np.zeros((3, 0)), *_shared(np.zeros(0),
                                                            [2.0, 1.0], 3),
            10, 1e-7)
        assert coefs.shape == (3, 2, 0)
        assert not pieces.any() and ok.all()

    def test_one_point_grid(self):
        rng = np.random.default_rng(60)
        grams, cs = zip(*(_unit_gram(rng, 30, 6, False) for _ in range(4)))
        grams, cs = np.array(grams), np.array(cs)
        w = rng.uniform(0.2, 5.0, 6)
        lam = 0.3 * lambda_grid(grams[0], cs[0], w, 30)[0]
        _assert_rows_match_stacks_of_one(grams, cs, *_shared(w, [lam], 4), 30)

    def test_grid_ending_at_zero_terminates(self):
        rng = np.random.default_rng(61)
        grams, cs = zip(*(_unit_gram(rng, 40, 5, False) for _ in range(3)))
        grams, cs = np.array(grams), np.array(cs)
        w = rng.uniform(0.2, 5.0, 5)
        grid = np.append(lambda_grid(grams[0], cs[0], w, 40, n_lambda=10),
                         0.0)
        _assert_rows_match_stacks_of_one(grams, cs, *_shared(w, grid, 3), 40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = fit_path(_Parts(grams[1], cs[1]), w, [0.0], 40).coefficients[0]
        # lambda = 0 is least squares on a full-rank gram
        assert np.allclose(b, np.linalg.solve(grams[1], cs[1]), atol=1e-10)

    def test_problem_done_after_its_first_piece(self):
        # c = 0: no predictor ever joins, so the first piece ends at 0
        rng = np.random.default_rng(62)
        gram, c = _unit_gram(rng, 30, 5, False)
        grams, cs = np.array([gram, gram, gram]), np.array([c, 0 * c, c])
        w = rng.uniform(0.2, 5.0, 5)
        grid = lambda_grid(gram, c, w, 30, n_lambda=15)
        coefs, pieces, ok = regression._solve_path(
            grams, cs, *_shared(w, grid, 3), 30, 1e-7)
        assert pieces[1].tolist() == [1] + [0] * 14
        assert not coefs[1].any() and ok[1].all()
        assert pieces[0].sum() > 1
        _assert_rows_match_stacks_of_one(grams, cs, *_shared(w, grid, 3), 30)

    def test_all_weights_infinite(self):
        rng = np.random.default_rng(63)
        grams, cs = zip(*(_unit_gram(rng, 30, 4, False) for _ in range(2)))
        coefs, pieces, ok = regression._solve_path(
            np.array(grams), np.array(cs),
            *_shared(np.full(4, np.inf), [3.0, 1.0, 0.0], 2), 30, 1e-7)
        assert not coefs.any() and ok.all()
        assert pieces.tolist() == [[1, 0, 0], [1, 0, 0]]


    def test_every_row_is_checked(self):
        # each problem's own grid must descend, and the weights and grids
        # must have one row per problem
        rng = np.random.default_rng(65)
        grams, cs = zip(*(_unit_gram(rng, 30, 4, False) for _ in range(2)))
        grams, cs = np.array(grams), np.array(cs)
        wv, grids = _shared(np.ones(4), [3.0, 2.0, 1.0], 2)
        bad = grids.copy()
        bad[1, 2] = 2.0
        with pytest.raises(ValueError, match="strictly descending"):
            regression._solve_path(grams, cs, wv, bad, 30, 1e-7)
        for args in ((wv[:1], grids), (wv, grids[:1]), (wv[:, :3], grids)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                regression._solve_path(grams, cs, *args, 30, 1e-7)


class TestActiveSetSolver:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_lasso_instances())
    def test_certified_and_no_worse_than_coordinate_descent(self, inst):
        gram, c, w, lam, n, b0 = inst
        tol = 1e-7
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an uncertified solve warns
            b = fit_path(_Parts(gram, c), w, [lam], n, tol=tol).coefficients[0]
        ref, _, _ = cd_reference(gram, c, w, lam, n, b0, tol, 10000)
        assert _kkt_holds(gram, c, w, lam, n, b, tol)
        obj = penalized_objective_naive(gram, c, w, lam, n, b)
        ref_obj = penalized_objective_naive(gram, c, w, lam, n, ref)
        assert obj <= ref_obj + 1e-9 * (1 + abs(ref_obj))

    @pytest.mark.parametrize("gram, c, w, lam, warm", [
        # identical predictors: an active set holding both is singular
        ([[1.0, 1.0, 0.3], [1.0, 1.0, 0.3], [0.3, 0.3, 1.0]],
         [0.6, 0.6, 0.2], [1.0, 1.0, 1.0], 1.0, None),
        # sign-flipped copies at a lambda so small that coordinate descent
        # (`cd_reference`) warm-started on both is still uncertified after
        # 10,000 sweeps
        ([[1.0, -1.0], [-1.0, 1.0]], [-1.0, 1.0], [0.25, 4.0], 1e-5,
         [0.36, 1.3]),
    ])
    def test_singular_working_set_is_certified(self, gram, c, w, lam, warm):
        gram, c, w = (np.asarray(a, dtype=float) for a in (gram, c, w))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = fit_path(_Parts(gram, c), w, [lam], 40,
                         tol=1e-7).coefficients[0]
        assert _kkt_holds(gram, c, w, lam, 40, b, 1e-7)
        ref, _, _ = cd_reference(gram, c, w, lam, 40, warm, 1e-7, 10000)
        ref_obj = penalized_objective_naive(gram, c, w, lam, 40, ref)
        assert penalized_objective_naive(gram, c, w, lam, 40, b) <= \
            ref_obj + 1e-9 * (1 + abs(ref_obj))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_lasso_instances())
    def test_whole_path_is_certified(self, inst):
        gram, c, w, _, n, _ = inst
        grid = lambda_grid(gram, c, w, n, n_lambda=20)
        path = fit_path(_embed(gram, c), w, grid, n)
        assert path.converged.all()
        for lam, b in zip(grid, path.coefficients):
            assert _kkt_holds(gram, c, w, lam, n, b, 1e-7)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_lasso_instances())
    def test_path_certificate_matches_the_per_point_check(self, inst):
        gram, c, w, _, n, _ = inst
        grid = lambda_grid(gram, c, w, n, n_lambda=20)
        # with tol = 0 most points with an active coefficient fail
        for tol in (1e-7, 0.0):
            coefs, _, flags = (x[0] for x in regression._solve_path(
                gram[None], c[None], w[None], grid[None], n, tol))
            assert np.array_equal(
                flags, kkt_by_point(gram, c, grid, w, 10.0 * tol * n, n, coefs))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_path_instances())
    def test_matches_the_reference_kernel(self, inst):
        gram, c, w, grid, n, variant = inst
        _assert_matches_the_reference_kernel(gram, c, w, grid, n, variant)
        if variant == "flipped":
            # at a cross-side tie the kernels take different pieces, and a
            # grid point on that kink can leave the reference uncertified
            return
        # grid points exactly on the kinks: the piece ending there holds them
        _, rounds = _traced_rounds(gram[None], c[None], w[None], grid[None], n)
        _assert_matches_the_reference_kernel(
            gram, c, w, _kink_grid(rounds, grid[None]), n, variant)

    def test_well_conditioned_solve_takes_few_rounds(self):
        # pieces of the exact path against sweeps of the reference
        rng = np.random.default_rng(32)
        gram, c, w = _random_instance(rng, 8)
        lam = 0.3 * np.max(2.0 * 50 * np.abs(c) / w)
        path = fit_path(_embed(gram, c), w, np.array([lam]), 50, tol=1e-7)
        _, sweeps, _ = cd_reference(gram, c, w, lam, 50, None, 1e-7, 10000)
        assert path.converged[0]
        assert _kkt_holds(gram, c, w, lam, 50, path.coefficients[0], 1e-7)
        assert path.iterations[0] < sweeps


class TestFitPath:
    def test_empty_support_at_lambda_max(self):
        rng = np.random.default_rng(28)
        gram, c, w = _random_instance(rng, 5)
        gram = gram / np.outer(np.sqrt(np.diag(gram)), np.sqrt(np.diag(gram)))
        grid = lambda_grid(gram, c, w, 40)
        path = fit_path(_embed(gram, c), w, grid, 40)
        assert path.supports[0] == ()

    def test_orthogonal_design_soft_threshold_oracle(self):
        c = np.array([0.9, -0.6, 0.4, 0.2, -0.05])
        w = np.array([1.0, 2.0, 0.5, 1.5, 1.0])
        n = 50
        grid = lambda_grid(np.eye(5), c, w, n, n_lambda=25)
        path = fit_path(_embed(np.eye(5), c), w, grid, n, tol=1e-12)
        sizes = [len(s) for s in path.supports]
        assert sizes == sorted(sizes)  # supports weakly grow as lambda drops
        for i, lam in enumerate(grid):
            expected = [soft_threshold(c[j], lam * w[j] / (2 * n))
                        for j in range(5)]
            assert np.allclose(path.coefficients[i], expected, atol=1e-10)

    def test_orthogonal_design_piece_count(self):
        # with G = I no coefficient ever leaves: the path has one piece above
        # lambda_max and one more per join at 2n|c_j|/w_j
        c = np.array([0.9, -0.6, 0.4, 0.2, -0.05])
        w = np.array([1.0, 2.0, 0.5, 1.5, 1.0])
        n = 50
        for ratio in (1e-3, 0.5, 0.2):
            grid = lambda_grid(np.eye(5), c, w, n, n_lambda=25, ratio=ratio)
            path = fit_path(_embed(np.eye(5), c), w, grid, n)
            joins = int(np.sum(2 * n * np.abs(c) / w >= grid[-1]))
            assert path.iterations.sum() == 1 + joins

    def test_tied_joins_all_enter(self):
        # equal 2n|c_j|/w_j: after the first join the others sit on their
        # kink within rounding, above or below the current lambda
        c = np.array([0.5, -0.5, 0.25, 0.5])
        w = np.array([1.0, 1.0, 0.5, 1.0])
        n = 40
        grid = lambda_grid(np.eye(4), c, w, n, n_lambda=10)
        path = fit_path(_embed(np.eye(4), c), w, grid, n)
        assert path.converged.all()
        for i, lam in enumerate(grid):
            expected = [soft_threshold(c[j], lam * w[j] / (2 * n))
                        for j in range(4)]
            assert np.allclose(path.coefficients[i], expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_warm_equals_cold(self, seed):
        rng = np.random.default_rng(1100 + seed)
        gram, c, w = _random_instance(rng, 6)
        grid = lambda_grid(gram, c, w, 45, n_lambda=20)
        path = fit_path(_embed(gram, c), w, grid, 45)
        for i, lam in enumerate(grid):
            cold = fit_path(_Parts(gram, c), w, [lam], 45)
            assert np.allclose(path.coefficients[i], cold.coefficients[0],
                               atol=1e-6)

    def test_requires_descending_grid(self):
        with pytest.raises(ValueError, match="descending"):
            fit_path(_embed(np.eye(2), [0.1, 0.1]), np.ones(2),
                     np.array([1.0, 2.0]), 10)


# the last three are one-point grids: a single lambda is a one-point path
_BAD_GRIDS = [[5.0, -1.0], [np.inf, 10.0], [1.0, np.nan], [1.0, 50.0],
              [2.0, 2.0], [np.nan], [-1.0], [np.inf]]


class TestGridCheck:
    """Every path entry rejects a grid that is not finite, not nonnegative
    or not strictly descending with one named error."""

    MESSAGE = "lambda grid must be finite, nonnegative and strictly descending"

    @pytest.mark.parametrize("grid", _BAD_GRIDS)
    def test_fit_path(self, grid):
        with pytest.raises(ValueError, match=self.MESSAGE):
            fit_path(_embed(np.eye(2), [0.3, -0.2]), np.ones(2),
                     np.array(grid), 10)

    @pytest.mark.parametrize("grid", _BAD_GRIDS)
    def test_cross_validate(self, grid):
        pseudo = np.random.default_rng(36).standard_normal((20, 3))
        with pytest.raises(ValueError, match=self.MESSAGE):
            cross_validate(pseudo, np.ones(2), np.array(grid), folds=4)


class TestCrossValidate:
    def _noiseless_pseudo(self, seed=29, n=80, p=6):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, p))
        b_true = np.array([1.2, -0.8, 0.0, 0.6, 0.0, 0.0])
        y = X @ b_true
        return np.column_stack([y, X]), b_true

    def test_noiseless_recovers_exact_support(self):
        pseudo, b_true = self._noiseless_pseudo()
        R = _pearson_of_values(pseudo)
        model = _corr_from(R)
        beta_init = initial_estimate_direct(model)
        w = adaptive_weights(beta_init)
        grid = lambda_grid(model.xx, model.xy, w, pseudo.shape[0])
        cv = cross_validate(pseudo, w, grid, folds=5, seed=3)
        path = fit_path(model, w, grid, pseudo.shape[0])
        support = path.supports[cv.idx_1se]
        assert support == tuple(np.flatnonzero(b_true != 0.0))

    def test_deterministic_given_seed(self):
        pseudo, _ = self._noiseless_pseudo(seed=30)
        R = _corr_from(_pearson_of_values(pseudo))
        w = adaptive_weights(initial_estimate_direct(R))
        grid = lambda_grid(R.xx, R.xy, w, pseudo.shape[0])
        cv1 = cross_validate(pseudo, w, grid, folds=5, seed=11)
        cv2 = cross_validate(pseudo, w, grid, folds=5, seed=11)
        assert np.array_equal(cv1.mean_errors, cv2.mean_errors)
        assert np.array_equal(cv1.se_errors, cv2.se_errors)
        assert cv1.idx_min == cv2.idx_min and cv1.idx_1se == cv2.idx_1se

    @pytest.mark.parametrize("seed", range(4))
    def test_one_se_at_least_min(self, seed):
        rng = np.random.default_rng(1200 + seed)
        pseudo = rng.standard_normal((60, 5))
        pseudo[:, 0] = pseudo[:, 1] + 0.5 * rng.standard_normal(60)
        R = _corr_from(_pearson_of_values(pseudo))
        w = adaptive_weights(initial_estimate_direct(R))
        grid = lambda_grid(R.xx, R.xy, w, 60)
        cv = cross_validate(pseudo, w, grid, folds=5, seed=seed)
        assert cv.lambda_1se >= cv.lambda_min

    def test_small_fold_warning(self):
        rng = np.random.default_rng(31)
        pseudo = rng.standard_normal((12, 9))
        R = _corr_from(_pearson_of_values(pseudo))
        w = AdaptiveWeights(np.ones(8), "unit")
        grid = lambda_grid(R.xx, R.xy, w, 12, n_lambda=5)
        with pytest.warns(UserWarning, match="training rows"):
            cross_validate(pseudo, w, grid, folds=4, seed=0)

    def test_uncertified_fold_solves_warn_once(self):
        pseudo, _ = self._noiseless_pseudo(seed=33)
        R = _corr_from(_pearson_of_values(pseudo))
        w = adaptive_weights(initial_estimate_direct(R))
        grid = lambda_grid(R.xx, R.xy, w, pseudo.shape[0], n_lambda=5)
        # zero slack: no solve can certify, whatever the solver does
        with pytest.warns(UserWarning, match="cross-validation") as record:
            cross_validate(pseudo, w, grid, folds=5, seed=0, tol=0.0)
        assert sum("cross-validation" in str(r.message) for r in record) == 1

    def test_scores_match_per_lambda_residuals(self):
        pseudo, _ = self._noiseless_pseudo(seed=34)
        pseudo = pseudo + 0.3 * np.random.default_rng(35).standard_normal(
            pseudo.shape)
        R = _corr_from(_pearson_of_values(pseudo))
        w = adaptive_weights(initial_estimate_direct(R))
        grid = lambda_grid(R.xx, R.xy, w, pseudo.shape[0], n_lambda=12)
        cv = cross_validate(pseudo, w, grid, folds=4, seed=2)
        perm = np.random.default_rng(2).permutation(pseudo.shape[0])
        errors = []
        for block in np.array_split(perm, 4):
            train = _corr_from(_pearson_of_values(
                pseudo[np.setdiff1d(perm, block)]))
            path = fit_path(train, w, grid, pseudo.shape[0])
            held = pseudo[block]
            errors.append([np.mean((held[:, 0] - held[:, 1:] @ b) ** 2)
                           for b in path.coefficients])
        assert np.allclose(cv.mean_errors, np.mean(errors, axis=0),
                           rtol=1e-12, atol=0.0)

    def test_fold_count_validation(self):
        with pytest.raises(ValueError, match="folds"):
            cross_validate(np.zeros((10, 3)), np.ones(2), np.array([1.0]),
                           folds=1)


@st.composite
def _summary_tables(draw):
    """Tables for the whole-table summaries: n odd or even, on both sides
    of Qn's listing band (200 and 201 rows), columns continuous, heavy-
    tailed, rounded (tied), 0/1 dummies or holding signed zeros, in C or
    Fortran memory order."""
    n = draw(st.sampled_from([2, 3, 10, 11, 100, 101, 200, 201])
             | st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for _ in range(draw(st.integers(2, 5))):
        style = draw(st.sampled_from(["normal", "cauchy", "rounded", "dummy",
                                      "zeros"]))
        if style == "normal":
            x = rng.standard_normal(n) * 10.0 ** draw(st.integers(-3, 3))
        elif style == "cauchy":
            x = rng.standard_cauchy(n)
        elif style == "rounded":
            x = np.round(rng.standard_normal(n), draw(st.integers(0, 1)))
        elif style == "dummy":
            x = (rng.random(n) < draw(st.floats(0.05, 0.95))).astype(float)
        else:
            x = rng.choice([-0.0, 0.0, 1.0, -1.0, 2.5], n)
        cols.append(x)
    values = np.column_stack(cols)
    return np.asfortranarray(values) if draw(st.booleans()) else values


def _per_column_summaries(values, estimator):
    """(locations, scales) column by column: the median of np.sort and the
    Qn of all sorted differences, each equal to `robust_summary`'s, or
    np.mean and np.std(ddof=1)."""
    locs, scales = [], []
    for col in values.T:
        if estimator == "pearson":
            loc, scale = float(np.mean(col)), float(np.std(col, ddof=1))
        else:
            xs, m = np.sort(col), col.size // 2
            loc = float(xs[m] if col.size % 2 else (xs[m - 1] + xs[m]) / 2)
            scale = qn_by_sorted_differences(col)
            one_loc, one_scale = robust_summary(col)
            # a zero Qn may be a realised -0.0; such a column raises anyway
            assert _same_bits(one_loc, loc) and one_scale == scale
        locs.append(loc)
        scales.append(scale)
    return locs, scales


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


class TestColumnSummaries:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_summary_tables())
    def test_whole_table_matches_the_per_column_summaries(self, values):
        names = tuple(f"col{j}" for j in range(values.shape[1]))
        for estimator in ("gr", "pearson"):
            locs, scales = _per_column_summaries(values, estimator)
            zero = [j for j, s in enumerate(scales) if s <= 0.0]
            if zero:
                with pytest.raises(ValueError) as err:
                    column_summaries(values, estimator)
                assert str(err.value) == f"zero scale for column {names[zero[0]]!r}"
                continue
            got_locs, got_scales = column_summaries(values, estimator)
            assert _same_bits(got_locs, locs)
            assert _same_bits(got_scales, scales)

    def test_summaries_of_a_constant_column_name_it(self):
        values = np.column_stack([np.arange(12.0), np.ones(12),
                                  np.zeros(12)])
        for estimator in ("gr", "pearson"):
            with pytest.raises(ValueError, match="zero scale for column 'col1'"):
                column_summaries(values, estimator)

    def test_one_row_is_rejected(self):
        with pytest.raises(ValueError, match="at least two observations"):
            column_summaries(np.ones((1, 3)), "pearson")

    def test_non_finite_summary_names_the_column(self):
        # the mean of the second column overflows
        values = np.column_stack([np.arange(4.0), np.full(4, 1e308)])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError,
                               match="non-finite summary for column 'col1'"):
                column_summaries(values, "pearson")

    def test_summaries_are_arrays_response_first(self):
        values = np.column_stack([np.arange(5.0), 10.0 * np.arange(5.0)])
        locs, scales = column_summaries(values, "gr")
        assert locs.tolist() == [2.0, 20.0]
        assert scales[1] == 10.0 * scales[0] > 0.0


class TestDestandardize:
    def test_identity_mapping(self):
        summ = (np.zeros(3), np.ones(3))
        beta, intercept = destandardize([1.0, -2.0], summ)
        assert np.allclose(beta, [1.0, -2.0])
        assert intercept == 0.0

    def test_hand_case(self):
        beta, intercept = destandardize([1.0], ([10.0, 1.0], [2.0, 4.0]))
        assert beta[0] == pytest.approx(0.5)
        assert intercept == pytest.approx(9.5)

    def test_round_trip_with_prestandardized_fit(self):
        rng = np.random.default_rng(32)
        X = rng.standard_normal((120, 6)) * rng.uniform(0.5, 4.0, size=6) + \
            rng.normal(size=6)
        y = X @ np.array([1.0, 0.0, -1.5, 0.0, 2.0, 0.0]) + \
            rng.standard_normal(120)
        Z = DataMatrix.from_arrays(y, X)
        fit_raw = fit_gr_alasso(Z, seed=5)
        locs, scales = fit_raw.locations, fit_raw.scales
        std_values = (Z.values - locs) / scales
        fit_std = fit_gr_alasso(DataMatrix(std_values, Z.columns), seed=5)
        assert fit_std.support == fit_raw.support
        mapped = fit_std.beta * scales[0] / scales[1:]
        assert np.allclose(mapped, fit_raw.beta, atol=1e-8)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError, match="zero scale"):
            destandardize([1.0], ([0.0, 0.0], [1.0, 0.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            destandardize([1.0, 2.0], ([0.0, 0.0], [1.0, 1.0]))


class TestScreening:
    def test_k_equals_p_returns_all(self):
        rng = np.random.default_rng(33)
        Z = DataMatrix.from_arrays(rng.standard_normal(30),
                                   rng.standard_normal((30, 6)))
        idx = screen_top_k(Z, 6)
        assert sorted(idx.tolist()) == list(range(6))

    def test_duplicated_response_ranks_first(self):
        rng = np.random.default_rng(34)
        y = rng.standard_normal(40)
        X = np.column_stack([rng.standard_normal((40, 3)), y])
        Z = DataMatrix.from_arrays(y, X)
        idx = screen_top_k(Z, 2)
        assert idx[0] == 3
        assert marginal_gr_correlations(Z)[3] == pytest.approx(1.0, abs=1e-12)

    def test_strong_signal_lands_in_top_five(self):
        hits = 0
        for seed in range(50):
            rng = np.random.default_rng(1300 + seed)
            X = rng.standard_normal((60, 20))
            y = 2.0 * X[:, 7] + 0.5 * rng.standard_normal(60)
            Z = DataMatrix.from_arrays(y, X)
            if 7 in screen_top_k(Z, 5).tolist():
                hits += 1
        assert hits >= 49

    def test_k_out_of_range(self):
        rng = np.random.default_rng(35)
        Z = DataMatrix.from_arrays(rng.standard_normal(20),
                                   rng.standard_normal((20, 4)))
        with pytest.raises(ValueError, match="k must be"):
            screen_top_k(Z, 0)
        with pytest.raises(ValueError, match="k must be"):
            screen_top_k(Z, 5)

    def test_constant_predictor_gets_zero_correlation(self):
        rng = np.random.default_rng(36)
        y = rng.standard_normal(25)
        X = np.column_stack([np.full(25, 3.0), y])
        Z = DataMatrix.from_arrays(y, X)
        corr = marginal_gr_correlations(Z)
        assert corr[0] == 0.0
        assert screen_top_k(Z, 1)[0] == 1


def _marginal_loop(values):
    """The per-column loop `marginal_gr_correlations` replaced: the reference
    for the vectorised reduction, which sums in another order."""
    ys = normal_scores(values[:, 0])
    ys = (ys - ys.mean()) / np.linalg.norm(ys - ys.mean())
    out = np.zeros(values.shape[1] - 1)
    for j in range(1, values.shape[1]):
        col = values[:, j]
        if np.all(col == col[0]):
            continue
        xs = normal_scores(col)
        xs = xs - xs.mean()
        out[j - 1] = float(ys @ (xs / np.linalg.norm(xs)))
    return np.clip(out, -1.0, 1.0)


class TestMarginalCorrelations:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_per_column_loop(self, seed):
        rng = np.random.default_rng(1400 + seed)
        n, p = 20 + 60 * seed, 12
        values = rng.standard_normal((n, p + 1))
        values[:, 3] = np.round(values[:, 3])  # heavy ties
        values[:, 5] = 2.5  # all tied: correlation 0
        values[:, 7] = values[:, 0]
        corr = marginal_gr_correlations(values)
        assert corr[4] == 0.0
        assert np.abs(corr - _marginal_loop(values)).max() <= \
            8 * np.finfo(float).eps

    def test_subset_of_columns_gives_the_same_bits(self):
        rng = np.random.default_rng(1410)
        values = rng.standard_normal((45, 10))
        full = marginal_gr_correlations(values)
        for cols in ([3], [8, 1], [2, 5, 9, 4]):
            sub = marginal_gr_correlations(values[:, [0] + cols])
            assert np.array_equal(sub, full[np.array(cols) - 1])

    def test_tied_response_raises(self):
        values = np.column_stack([np.ones(15),
                                  np.random.default_rng(1411).random(15)])
        with pytest.raises(ValueError, match="degenerate response"):
            marginal_gr_correlations(values)


class TestFitGrAlasso:
    def test_exact_single_predictor(self):
        x = np.linspace(-3.0, 3.0, 25)
        Z = DataMatrix.from_arrays(2.0 * x, x.reshape(-1, 1))
        fit = fit_gr_alasso(Z, seed=0)
        assert fit.support == (0,)
        assert abs(fit.beta[0] - 2.0) / 2.0 <= 0.05

    def test_pearson_lambda_zero_equals_ols(self):
        rng = np.random.default_rng(37)
        X = rng.standard_normal((100, 5))
        y = X @ np.array([1.0, 0.5, 0.0, -1.0, 0.2]) + rng.standard_normal(100)
        Z = DataMatrix.from_arrays(y, X)
        fit = fit_gr_alasso(Z, estimator="pearson", fixed_lambda=0.0, seed=0)
        slopes, intercept = ols_fit(X, y)
        assert np.allclose(fit.beta, slopes, atol=1e-6)
        assert fit.intercept == pytest.approx(intercept, abs=1e-6)

    def test_monotone_transform_leaves_supports_unchanged(self):
        rng = np.random.default_rng(38)
        X = rng.standard_normal((90, 8))
        y = X @ np.array([1.5, -1.0, 0.8, 0, 0, 0, 0, 0]) + \
            rng.standard_normal(90)
        Z1 = DataMatrix.from_arrays(y, X)
        X2 = X.copy()
        X2[:, 0] = np.exp(X2[:, 0])
        X2[:, 3] = X2[:, 3] ** 3
        X2[:, 5] = np.arctan(X2[:, 5])
        Z2 = DataMatrix.from_arrays(y, X2)
        fit1 = fit_gr_alasso(Z1, seed=9)
        fit2 = fit_gr_alasso(Z2, seed=9)
        assert fit1.path.supports == fit2.path.supports
        assert fit1.support == fit2.support
        assert fit1.lambda_ == fit2.lambda_

    def test_kkt_certificate_along_returned_path(self):
        rng = np.random.default_rng(39)
        X = rng.standard_normal((70, 6))
        y = X @ np.array([1.0, -1.0, 0, 0, 0.5, 0]) + rng.standard_normal(70)
        fit = fit_gr_alasso(DataMatrix.from_arrays(y, X), seed=2)
        scores = score_matrix(np.column_stack([y, X]), "gaussian-rank")
        R = _pearson_of_values(scores)
        for i, lam in enumerate(fit.path.lambdas):
            assert _kkt_holds(R[1:, 1:], R[1:, 0], fit.weights.weights,
                              float(lam), 70, fit.path.coefficients[i], 1e-7)

    def test_support_matches_nonzero_beta_and_intercept_formula(self):
        rng = np.random.default_rng(40)
        X = rng.standard_normal((80, 7)) + 3.0
        y = X @ np.array([2.0, 0, 0, 1.0, 0, 0, 0]) + rng.standard_normal(80)
        fit = fit_gr_alasso(DataMatrix.from_arrays(y, X), seed=1)
        assert set(np.flatnonzero(fit.beta != 0.0)) == set(fit.support)
        assert fit.intercept == pytest.approx(
            fit.locations[0] - fit.locations[1:] @ fit.beta, abs=1e-12)

    def test_rule_min_no_sparser_than_1se(self):
        rng = np.random.default_rng(41)
        X = rng.standard_normal((100, 10))
        y = X @ np.r_[np.ones(3), np.zeros(7)] + rng.standard_normal(100)
        Z = DataMatrix.from_arrays(y, X)
        fit_min = fit_gr_alasso(Z, rule="min", seed=4)
        fit_1se = fit_gr_alasso(Z, rule="1se", seed=4)
        assert fit_min.lambda_ <= fit_1se.lambda_
        assert set(fit_1se.support) <= set(fit_min.support)

    def test_unit_weights_is_plain_lasso(self):
        rng = np.random.default_rng(42)
        X = rng.standard_normal((60, 4))
        y = X[:, 0] + rng.standard_normal(60)
        fit = fit_gr_alasso(DataMatrix.from_arrays(y, X), weights="unit",
                            seed=0)
        assert np.array_equal(fit.weights.weights, np.ones(4))
        assert fit.weights.source == "unit"

    def test_high_dim_uses_ridge_weights(self):
        rng = np.random.default_rng(43)
        X = rng.standard_normal((40, 60))
        y = X[:, 0] - X[:, 1] + 0.5 * rng.standard_normal(40)
        fit = fit_gr_alasso(DataMatrix.from_arrays(y, X), seed=0)
        assert fit.weights.source.startswith("ridge")

    def test_kappa_cv_selection_runs(self):
        rng = np.random.default_rng(44)
        X = rng.standard_normal((50, 30))
        y = X[:, 0] + rng.standard_normal(50)
        fit = fit_gr_alasso(DataMatrix.from_arrays(y, X), weights="ridge",
                            kappa="cv", seed=0)
        assert fit.weights.source.startswith("ridge(kappa=")

    @pytest.mark.parametrize("n, p, kwargs", [
        (80, 8, {"seed": 3}),
        (80, 8, {"seed": 4, "rule": "min", "estimator": "spearman"}),
        (60, 40, {"seed": 5, "weights": "ridge", "kappa": "cv"}),
        (30, 12, {"seed": 6, "weights": "unit", "folds": 3}),
    ])
    def test_lockstep_path_and_cv_match_the_public_functions(self, n, p,
                                                              kwargs):
        # the folds and the final path are traced in one stack
        rng = np.random.default_rng(52)
        X = rng.standard_normal((n, p))
        y = X[:, :3].sum(axis=1) + rng.standard_normal(n)
        Z = DataMatrix.from_arrays(y, X)
        fit = fit_gr_alasso(Z, **kwargs)
        grid = fit.path.lambdas
        path = fit_path(fit.correlation, fit.weights, grid, n)
        cv = cross_validate(score_matrix(Z, fit.estimator), fit.weights,
                            grid, folds=kwargs.get("folds", 5),
                            seed=kwargs["seed"])
        assert fit.path.supports == path.supports
        assert np.array_equal(fit.path.iterations, path.iterations)
        assert np.array_equal(fit.path.converged, path.converged)
        assert np.allclose(fit.path.coefficients, path.coefficients,
                           rtol=0.0, atol=1e-12 * np.abs(path.coefficients).max())
        assert (fit.cv.idx_min, fit.cv.idx_1se) == (cv.idx_min, cv.idx_1se)
        assert np.array_equal(fit.cv.lambdas, cv.lambdas)
        assert np.allclose(fit.cv.mean_errors, cv.mean_errors, rtol=1e-12,
                           atol=0.0)
        assert np.allclose(fit.cv.se_errors, cv.se_errors, rtol=1e-12,
                           atol=0.0)

    @pytest.mark.parametrize("n, p, seed", [(50, 30, 53), (40, 60, 54),
                                            (80, 10, 55)])
    def test_ridge_kappa_matches_the_per_fold_loop(self, n, p, seed):
        # one solve over the fold stack per kappa picks what a loop of
        # single solves picks
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, p))
        values = np.column_stack([X[:, 0] + rng.standard_normal(n), X])
        errs = []
        folds = regression._cv_folds(values, 5, seed)
        for gram, c, block in zip(*folds):
            held_y, held_x = values[block, 0], values[block, 1:]
            errs.append([np.mean((held_y - held_x @ np.linalg.solve(
                gram + kap * np.eye(p), c)) ** 2)
                for kap in regression._RIDGE_KAPPAS])
        expected = regression._RIDGE_KAPPAS[np.argmin(np.mean(errs, axis=0))]
        assert regression._ridge_kappa_by_cv(values, *folds) == expected

    def test_ridge_kappa_by_cv_reads_the_path_folds(self):
        # the folds are built once per fit and serve both CVs: the fit
        # equals one at the chosen kappa, bit for bit
        rng = np.random.default_rng(44)
        X = rng.standard_normal((50, 30))
        Z = DataMatrix.from_arrays(X[:, 0] + rng.standard_normal(50), X)
        with mock.patch.object(regression, "_cv_folds",
                               wraps=regression._cv_folds) as spy:
            fit = fit_gr_alasso(Z, weights="ridge", kappa="cv", seed=3)
        assert spy.call_count == 1
        values = score_matrix(Z, "gaussian-rank")
        kappa = regression._ridge_kappa_by_cv(
            values, *regression._cv_folds(values, 5, 3))
        ref = fit_gr_alasso(Z, weights="ridge", kappa=kappa, seed=3)
        assert fit.weights.source == ref.weights.source == f"ridge(kappa={kappa:g})"
        for got, want in ((fit.beta, ref.beta), (fit.path.coefficients,
                                                 ref.path.coefficients),
                          (fit.cv.mean_errors, ref.cv.mean_errors),
                          (fit.weights.weights, ref.weights.weights)):
            assert got.tobytes() == want.tobytes()
        assert fit.lambda_ == ref.lambda_ and fit.intercept == ref.intercept

    def test_requires_ten_rows(self):
        rng = np.random.default_rng(45)
        Z = DataMatrix.from_arrays(rng.standard_normal(9),
                                   rng.standard_normal((9, 2)))
        with pytest.raises(ValueError, match="at least 10"):
            fit_gr_alasso(Z)

    def test_unknown_estimator(self):
        rng = np.random.default_rng(46)
        Z = DataMatrix.from_arrays(rng.standard_normal(20),
                                   rng.standard_normal((20, 2)))
        with pytest.raises(ValueError, match="unknown estimator"):
            fit_gr_alasso(Z, estimator="kendall")

    def test_unknown_weights_mode_is_rejected_before_any_work(self,
                                                               monkeypatch):
        rng = np.random.default_rng(46)
        X = rng.standard_normal((20, 2))
        X[:, 0] = 1.0  # a constant column fails the column stage
        Z = DataMatrix.from_arrays(rng.standard_normal(20), X)
        with pytest.raises(ValueError, match="unknown weights mode 'bogus'"):
            fit_gr_alasso(Z, weights="bogus")
        monkeypatch.setattr(regression, "column_summaries", None)
        with pytest.raises(ValueError, match="unknown weights mode 'bogus'"):
            fit_gr_alasso(rng.standard_normal((20, 3)), weights="bogus")

    @pytest.mark.parametrize("kwargs, message", [
        ({"kappa": -1.0}, "kappa must be positive"),
        ({"kappa": "CV"}, "kappa must be positive"),
        ({"kappa": np.nan}, "kappa must be positive"),
        ({"kappa": np.inf}, "kappa must be positive"),
        ({"weights": "direct", "kappa": 0.0}, "kappa must be positive"),
        ({"folds": 0, "fixed_lambda": 1.0}, "folds must be at least 2"),
        ({"folds": 101}, "need at least as many rows as folds"),
        ({"n_lambda": 1, "fixed_lambda": 1.0}, "n_lambda must be at least 2"),
        ({"lambda_ratio": 2.0, "fixed_lambda": 1.0}, "ratio must be in (0, 1)"),
        ({"lambda_ratio": 0.0}, "ratio must be in (0, 1)"),
        ({"exclusion_eps": -1.0, "weights": "unit"},
         "exclusion_eps must be nonnegative"),
    ])
    def test_options_are_checked_before_any_work(self, kwargs, message):
        # also options the mode leaves unused; a constant column would fail
        # the column stage first
        rng = np.random.default_rng(56)
        X = rng.standard_normal((100, 8))
        X[:, 0] = 1.0
        Z = DataMatrix.from_arrays(X[:, 1] + rng.standard_normal(100), X)
        with pytest.raises(ValueError, match=re.escape(message)):
            fit_gr_alasso(Z, **kwargs)

    def test_path_supports_are_the_nonzero_coefficients(self):
        rng = np.random.default_rng(46)
        X = rng.standard_normal((40, 5))
        fit = fit_gr_alasso(DataMatrix.from_arrays(
            X[:, 1] - X[:, 3] + rng.standard_normal(40), X), seed=2)
        coefs = fit.path.coefficients
        assert fit.path.supports == tuple(
            tuple(int(j) for j in np.flatnonzero(b)) for b in coefs)
        assert fit.support == fit.path.supports[fit.cv.idx_1se]

    def test_spearman_estimator_runs(self):
        rng = np.random.default_rng(47)
        X = rng.standard_normal((50, 4))
        y = 2 * X[:, 1] + rng.standard_normal(50)
        fit = fit_gr_alasso(DataMatrix.from_arrays(y, X),
                            estimator="spearman", seed=0)
        assert 1 in fit.support

    def test_fixed_lambda_is_a_one_point_path(self):
        rng = np.random.default_rng(48)
        X = rng.standard_normal((70, 6))
        y = X @ np.array([1.0, -1.0, 0, 0, 0.5, 0]) + rng.standard_normal(70)
        fit = fit_gr_alasso(DataMatrix.from_arrays(y, X), fixed_lambda=5.0)
        assert fit.path.lambdas.tolist() == [5.0]
        assert fit.cv is None and fit.lambda_ == 5.0 and fit.converged
        b = fit.path.coefficients[0]
        assert fit.support == tuple(np.flatnonzero(b))
        R = _pearson_of_values(score_matrix(np.column_stack([y, X]),
                                            "gaussian-rank"))
        assert _kkt_holds(R[1:, 1:], R[1:, 0], fit.weights.weights, 5.0, 70,
                          b, 1e-7)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_fixed_lambda_must_be_finite_and_nonnegative(self, value):
        rng = np.random.default_rng(49)
        Z = DataMatrix.from_arrays(rng.standard_normal(30),
                                   rng.standard_normal((30, 3)))
        with pytest.raises(ValueError,
                           match="lambda must be finite and nonnegative"):
            fit_gr_alasso(Z, fixed_lambda=value)

    def test_fixed_lambda_with_every_predictor_excluded(self):
        rng = np.random.default_rng(50)
        X = rng.standard_normal((40, 3))
        Z = DataMatrix.from_arrays(X[:, 0] + rng.standard_normal(40), X)
        # every |b0_j| is at most exclusion_eps, so every weight is +inf
        fit = fit_gr_alasso(Z, exclusion_eps=1e6, fixed_lambda=1.0)
        assert not np.isfinite(fit.weights.weights).any()
        assert fit.support == () and fit.converged
        assert np.array_equal(fit.beta, np.zeros(3))
        with pytest.raises(ValueError, match="no admissible predictors"):
            fit_gr_alasso(Z, exclusion_eps=1e6)

    def test_auto_weights_fall_back_to_ridge_when_direct_is_ill_conditioned(self):
        rng = np.random.default_rng(51)
        X = rng.standard_normal((60, 8))
        X = np.column_stack([X, X[:, 0]])  # a copy of x1 at p < n/2
        y = X[:, 0] - X[:, 2] + 0.5 * rng.standard_normal(60)
        Z = DataMatrix.from_arrays(y, X)
        fit = fit_gr_alasso(Z, seed=0)
        assert fit.weights.source == "ridge(kappa=0.1)"
        assert 2 in fit.support
        with pytest.raises(ValueError, match="ill-conditioned"):
            fit_gr_alasso(Z, weights="direct", seed=0)


def _fit_table():
    rng = np.random.default_rng(57)
    return rng.standard_normal((20, 3))


@pytest.mark.parametrize("call, message", [
    (lambda: AdaptiveWeights(np.ones((2, 2)), "given"),
     "weights must be a vector"),
    (lambda: column_summaries(_fit_table(), "kendall"),
     "unknown estimator 'kendall'"),
    (lambda: lambda_grid(np.eye(2), [0.5, 0.3], np.ones(2), 10, n_lambda=1),
     "n_lambda must be at least 2"),
    (lambda: lambda_grid(np.eye(2), [0.5, 0.3], np.ones(2), 10, ratio=1.0),
     "ratio must be in (0, 1)"),
    (lambda: cross_validate(_fit_table()[:3], np.ones(2), [1.0], folds=4),
     "need at least as many rows as folds"),
    (lambda: fit_gr_alasso(_fit_table(), rule="max"),
     "unknown selection rule 'max'"),
    (lambda: fit_path(_Parts(np.eye(2), [0.5, 0.3]), np.ones(2), [1.0], 10,
                      tol=-1e-7),
     "tol must be finite and nonnegative"),
    (lambda: fit_path(_Parts(np.eye(2), [0.5, 0.3]), np.ones(2), [1.0], 10,
                      tol=np.nan),
     "tol must be finite and nonnegative"),
    (lambda: cross_validate(_fit_table(), np.ones(2), [1.0], tol=np.inf),
     "tol must be finite and nonnegative"),
], ids=["weights-matrix", "estimator", "n-lambda", "ratio", "rows-folds",
        "rule", "tol-negative", "tol-nan", "tol-inf"])
def test_errors_are_named(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_objective_is_infinite_with_an_active_pinned_coefficient():
    w = np.array([1.0, np.inf])
    assert penalized_objective(np.eye(2), [0.5, 0.3], w, 1.0, 10,
                               [0.2, 0.0]) < np.inf
    assert penalized_objective(np.eye(2), [0.5, 0.3], w, 1.0, 10,
                               [0.2, 0.1]) == np.inf


def test_uncertified_path_warns():
    # zero slack: grid points with an active coefficient cannot certify
    rng = np.random.default_rng(58)
    gram, c, w = _random_instance(rng, 5)
    grid = lambda_grid(gram, c, w, 40, n_lambda=5)
    with pytest.warns(UserWarning, match="did not certify convergence"):
        path = fit_path(_Parts(gram, c), w, grid, 40, tol=0.0)
    assert not path.converged.all()
