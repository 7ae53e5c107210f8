from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gralasso import robust_stats
from gralasso.robust_stats import (
    QN_CONSISTENCY,
    RobustSummary,
    _qn_kth_diff,
    median,
    normal_scores,
    qn_scale,
    ranks,
    robust_summary,
    std_normal_quantile,
)

from oracles import bisect_normal_quantile, brute_force_qn, naive_midranks


class TestMedian:
    def test_odd(self):
        assert median([1, 2, 3]) == 2

    def test_even(self):
        assert median([1, 2, 3, 4]) == 2.5

    def test_constant(self):
        assert median([5, 5, 5]) == 5

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty input"):
            median([])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            median([1.0, float("nan"), 2.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_shift_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(rng.integers(1, 40))
        c = float(rng.normal(scale=10))
        assert median(x + c) == pytest.approx(median(x) + c, abs=1e-12)


class TestQnScale:
    def test_all_tied(self):
        assert qn_scale([7, 7, 7, 7]) == 0.0

    def test_five_points_vs_enumeration(self):
        # h = 3, k = 3 among the 10 pairwise differences of 1..5
        got = qn_scale([1, 2, 3, 4, 5])
        assert got == brute_force_qn([1, 2, 3, 4, 5])
        assert got == QN_CONSISTENCY * 1.0

    def test_needs_two_observations(self):
        with pytest.raises(ValueError, match="need at least two observations"):
            qn_scale([1.0])

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_small_n(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 51))
        x = rng.normal(size=n)
        if seed % 3 == 0:
            x = np.round(x, 1)  # force ties
        assert qn_scale(x) == pytest.approx(brute_force_qn(x), rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_affine_equivariance(self, seed):
        rng = np.random.default_rng(200 + seed)
        x = rng.normal(size=30)
        a = float(rng.normal(scale=3)) or 1.0
        c = float(rng.normal(scale=5))
        assert qn_scale(a * x + c) == pytest.approx(abs(a) * qn_scale(x),
                                                    rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_affine_equivariance_large_n(self, seed):
        rng = np.random.default_rng(210 + seed)
        x = rng.normal(size=(201, 1000, 5000)[seed])
        a = float(rng.normal(scale=3)) or 1.0
        c = float(rng.normal(scale=5))
        assert qn_scale(a * x + c) == pytest.approx(abs(a) * qn_scale(x),
                                                    rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_exact_against_all_pairs_at_n_2000(self, seed):
        # at seed 0, bisecting on the value until no float lies between the
        # bounds gives 0.4529584686530928, which no pair realises; the k-th
        # difference is 0.45295846865309275
        x = np.random.default_rng(seed).standard_normal(2000)
        i, j = np.triu_indices(x.size, k=1)
        diffs = np.abs(x[i] - x[j])
        h = x.size // 2 + 1
        k = h * (h - 1) // 2
        kth = _qn_kth_diff(np.sort(x), k)
        assert kth == np.partition(diffs, k - 1)[k - 1]
        assert np.sum(diffs < kth) < k <= np.sum(diffs <= kth)
        assert qn_scale(x) == QN_CONSISTENCY * kth

    def test_monte_carlo_consistency(self):
        # large-sample Qn of a standard normal is the standard deviation
        rng = np.random.default_rng(7)
        x = rng.standard_normal(100_000)
        assert abs(qn_scale(x) - 1.0) <= 0.02


@st.composite
def _qn_samples(draw):
    """Samples of 2 to 600 values: continuous, rounded to few distinct
    values, with constant blocks, or all tied; optionally offset by 1e9."""
    n = draw(st.integers(2, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(n)
    kind = draw(st.sampled_from(["continuous", "rounded", "blocks", "tied"]))
    if kind == "rounded":
        x = np.round(x, draw(st.integers(0, 2)))
    elif kind == "blocks":
        for _ in range(draw(st.integers(1, 3))):
            start = int(rng.integers(n))
            x[start:start + int(rng.integers(1, n + 1))] = x[start]
    elif kind == "tied":
        x[:] = x[0]
    if draw(st.booleans()):
        x = x + 1e9
    return x


class TestQnSelection:
    @given(_qn_samples(), st.data())
    def test_equals_sorted_brute_force_differences(self, x, data):
        n = x.size
        diffs = sorted(abs(a - b) for i, a in enumerate(x) for b in x[i + 1:])
        h = n // 2 + 1
        qn_k = h * (h - 1) // 2
        ks = {1, qn_k, len(diffs), data.draw(st.integers(1, len(diffs)))}
        xs = np.sort(x)
        # a band of 0 forces narrowing rounds down to n candidates
        for band in (robust_stats._QN_BAND, 0):
            with mock.patch.object(robust_stats, "_QN_BAND", band):
                for k in ks:
                    assert _qn_kth_diff(xs, k) == diffs[k - 1]
                assert qn_scale(x) == brute_force_qn(x)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 201))
    def test_whole_table_picks_the_selection_bits(self, seed, n):
        # rows with signed zeros: the shared listing must pick the very
        # difference that `_qn_kth_diff` picks, sign of zero included
        rng = np.random.default_rng(seed)
        table = rng.choice([-0.0, 0.0, 1.0, -1.0, 2.5], (3, n))
        table[1] = np.round(rng.standard_normal(n), 1)
        xs = np.sort(table, axis=1)
        h = n // 2 + 1
        ref = robust_stats.QN_CONSISTENCY * np.array(
            [_qn_kth_diff(row, h * (h - 1) // 2) for row in xs])
        got = robust_stats._qn_of_sorted(xs)
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


class TestRanks:
    def test_distinct(self):
        assert np.array_equal(ranks([10, 30, 20]), [1, 3, 2])

    def test_midrank_ties(self):
        assert np.array_equal(ranks([5, 5, 1]), [2.5, 2.5, 1])

    def test_sorted_identity(self):
        n = 17
        assert np.array_equal(ranks(np.arange(n)), np.arange(1, n + 1))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_counting_oracle_and_sum(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(1, 60))
        x = np.round(rng.normal(size=n), 1)
        r = ranks(x)
        assert np.allclose(r, naive_midranks(x))
        assert r.sum() == pytest.approx(n * (n + 1) / 2)


class TestNormalScores:
    def test_median_element_is_zero(self):
        x = [3.0, -1.0, 7.0, 2.0, 11.0]
        scores = normal_scores(x)
        assert scores[np.argsort(x)[2]] == pytest.approx(0.0, abs=1e-15)

    def test_three_points_quantile_oracle(self):
        scores = np.sort(normal_scores([4.0, 1.0, 9.0]))
        expected = [bisect_normal_quantile(0.25), 0.0,
                    bisect_normal_quantile(0.75)]
        assert scores == pytest.approx(expected, abs=1e-6)
        assert scores[0] == pytest.approx(-scores[2], abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(400 + seed)
        x = rng.normal(size=25)
        assert np.array_equal(normal_scores(x), normal_scores(np.exp(x)))
        assert np.array_equal(normal_scores(x), normal_scores(x ** 3))

    def test_always_finite(self):
        rng = np.random.default_rng(5)
        scores = normal_scores(rng.normal(scale=1e6, size=1000))
        assert np.all(np.isfinite(scores))


class TestStdNormalQuantile:
    def test_center(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_0975(self):
        assert std_normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
        assert std_normal_quantile(0.975) == pytest.approx(
            bisect_normal_quantile(0.975), abs=1e-6)

    @pytest.mark.parametrize(
        "p", [1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.024, 0.025, 0.2, 0.4, 0.5,
              0.6, 0.8, 0.975, 0.976, 0.99, 1 - 1e-6, 1 - 1e-9])
    def test_accuracy_against_bisection(self, p):
        assert abs(std_normal_quantile(p) - bisect_normal_quantile(p)) <= 1e-9

    def test_log_grid_down_to_1e300(self):
        for p in np.logspace(-300, np.log10(0.5), 301):
            assert abs(std_normal_quantile(p) - bisect_normal_quantile(p)) <= 1e-12
            if 1.0 - p < 1.0:
                assert abs(std_normal_quantile(1.0 - p)
                           - bisect_normal_quantile(1.0 - p)) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(500 + seed)
        for p in rng.uniform(1e-8, 1 - 1e-8, size=20):
            assert std_normal_quantile(p) == pytest.approx(
                -std_normal_quantile(1 - p), abs=1e-11)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3])
    def test_out_of_range(self, p):
        with pytest.raises(ValueError, match="probability out of range"):
            std_normal_quantile(p)

    def test_array_input_matches_scalars(self):
        ps = np.array([0.01, 0.3, 0.5, 0.7, 0.99])
        arr = std_normal_quantile(ps)
        assert arr.shape == ps.shape
        for pi, xi in zip(ps, arr):
            assert xi == std_normal_quantile(float(pi))


class TestRobustSummary:
    def test_basic(self):
        s = robust_summary([1.0, 2.0, 3.0, 4.0, 100.0])
        assert s.location == 3.0
        assert s.scale > 0

    def test_scale_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            RobustSummary(location=0.0, scale=-1.0)

    def test_outlier_resistance(self):
        base = np.arange(1.0, 101.0)
        spiked = base.copy()
        spiked[:5] = 1e6
        s0, s1 = robust_summary(base), robust_summary(spiked)
        assert abs(s1.location - s0.location) <= 5.0
        assert abs(s1.scale - s0.scale) / s0.scale <= 0.15
