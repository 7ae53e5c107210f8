import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gralasso.covariance import (
    CorrelationMatrix,
    assemble_covariance,
    gaussian_rank_corr_matrix,
    pearson_corr_matrix,
    score_matrix,
    spearman_corr_matrix,
    sqrt_factorize,
)
from gralasso.data import DataMatrix
from gralasso.robust_stats import RobustSummary, std_normal_quantile

from oracles import naive_midranks, pearson_scalar, score_matrix_by_column


def _table(*cols, names=None):
    arr = np.column_stack([np.asarray(c, dtype=float) for c in cols])
    names = names or tuple(f"c{j}" for j in range(arr.shape[1]))
    return DataMatrix(arr, names)


class TestPearson:
    def test_identical_columns(self):
        Z = _table([1, 2, 3], [1, 2, 3])
        R = pearson_corr_matrix(Z)
        assert R.matrix[0, 1] == pytest.approx(1.0)

    def test_negated_column(self):
        Z = _table([1, 2, 3], [-1, -2, -3])
        assert pearson_corr_matrix(Z).matrix[0, 1] == pytest.approx(-1.0)

    def test_hand_dataset(self):
        # cov = 0.5, both variances 1 -> r = 0.5
        Z = _table([1, 2, 3], [2, 1, 3])
        assert pearson_corr_matrix(Z).matrix[0, 1] == pytest.approx(0.5)

    def test_zero_variance_column_named(self):
        Z = _table([1, 2, 3], [4, 4, 4], names=("y", "flat"))
        with pytest.raises(ValueError, match="zero-variance column 'flat'"):
            pearson_corr_matrix(Z)

    def test_unit_diagonal_and_symmetry(self):
        rng = np.random.default_rng(0)
        R = pearson_corr_matrix(rng.standard_normal((40, 6))).matrix
        assert np.array_equal(np.diag(R), np.ones(6))
        assert np.array_equal(R, R.T)


class TestGaussianRank:
    def test_monotone_pair_is_exactly_one(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(30)
        Z = _table(np.exp(x), x)
        assert gaussian_rank_corr_matrix(Z).matrix[0, 1] == pytest.approx(
            1.0, abs=1e-12)

    def test_bivariate_normal_consistency(self):
        rng = np.random.default_rng(2)
        z1 = rng.standard_normal(10_000)
        z2 = 0.5 * z1 + np.sqrt(1 - 0.25) * rng.standard_normal(10_000)
        R = gaussian_rank_corr_matrix(_table(z1, z2))
        assert abs(R.matrix[0, 1] - 0.5) <= 0.03

    def test_robustness_contrast_with_pearson(self):
        rng = np.random.default_rng(3)
        n = 2000
        z1 = rng.standard_normal(n)
        z2 = 0.8 * z1 + 0.6 * rng.standard_normal(n)
        clean = _table(z1, z2)
        spiked_col = z2.copy()
        spiked_col[rng.choice(n, size=n // 20, replace=False)] = 100.0
        spiked = _table(z1, spiked_col)
        gr_clean = gaussian_rank_corr_matrix(clean).matrix[0, 1]
        gr_spiked = gaussian_rank_corr_matrix(spiked).matrix[0, 1]
        pe_spiked = pearson_corr_matrix(spiked).matrix[0, 1]
        assert abs(gr_spiked - gr_clean) <= 0.15
        assert abs(pe_spiked) <= 0.2  # nonrobust estimate collapses

    def test_degenerate_column(self):
        Z = _table([1, 2, 3, 4], [7, 7, 7, 7], names=("y", "flat"))
        with pytest.raises(ValueError, match="degenerate column 'flat'"):
            gaussian_rank_corr_matrix(Z)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((50, 4))
        R0 = gaussian_rank_corr_matrix(_table(*Z.T)).matrix
        transformed = _table(np.exp(Z[:, 0]), Z[:, 1] ** 3,
                             np.arctan(Z[:, 2]), 5 * Z[:, 3] + 2)
        assert np.array_equal(R0, gaussian_rank_corr_matrix(transformed).matrix)

    @pytest.mark.parametrize("seed", range(10))
    def test_psd_random_datasets(self, seed):
        rng = np.random.default_rng(600 + seed)
        n = int(rng.integers(10, 201))
        p = int(rng.integers(2, 51))
        data = rng.standard_normal((n, p + 1))
        R = gaussian_rank_corr_matrix(data).matrix
        assert np.linalg.eigvalsh(R).min() >= -1e-10

    def test_agrees_with_pearson_on_clean_normal(self):
        rng = np.random.default_rng(5)
        chol = np.linalg.cholesky(0.5 ** np.abs(np.subtract.outer(range(5),
                                                                  range(5))))
        data = rng.standard_normal((50_000, 5)) @ chol.T
        gr = gaussian_rank_corr_matrix(data).matrix
        pe = pearson_corr_matrix(data).matrix
        assert np.max(np.abs(gr - pe)) <= 0.02


class TestSpearman:
    def test_monotone(self):
        x = np.array([0.1, 1.5, 2.0, 5.0])
        assert spearman_corr_matrix(_table(x, np.exp(x))).matrix[0, 1] == \
            pytest.approx(1.0)

    def test_anti_monotone(self):
        x = np.array([0.1, 1.5, 2.0, 5.0])
        assert spearman_corr_matrix(_table(x, -x)).matrix[0, 1] == \
            pytest.approx(-1.0)

    def test_rank_formula_oracle(self):
        a, b = [1, 2, 3], [2, 1, 3]
        got = spearman_corr_matrix(_table(a, b)).matrix[0, 1]
        expected = pearson_scalar(naive_midranks(a), naive_midranks(b))
        assert got == pytest.approx(expected, abs=1e-12)


class TestAssemble:
    def test_identity_correlation(self):
        R = CorrelationMatrix(np.eye(2), "pearson", ("y", "x"))
        cov = assemble_covariance(R, [RobustSummary(0, 2), RobustSummary(0, 3)])
        assert np.allclose(cov.sigma, np.diag([4.0, 9.0]))

    def test_unit_scales(self):
        rng = np.random.default_rng(6)
        R = gaussian_rank_corr_matrix(rng.standard_normal((30, 3)))
        cov = assemble_covariance(R, [1.0, 1.0, 1.0])
        assert np.array_equal(cov.sigma, R.matrix)

    def test_three_by_three_hand_case(self):
        m = np.full((3, 3), 0.5)
        np.fill_diagonal(m, 1.0)
        R = CorrelationMatrix(m, "pearson")
        cov = assemble_covariance(R, [1.0, 2.0, 3.0])
        expected = np.array([[1.0, 1.0, 1.5],
                             [1.0, 4.0, 3.0],
                             [1.5, 3.0, 9.0]])
        assert np.allclose(cov.sigma, expected)

    def test_partitions(self):
        m = np.full((3, 3), 0.25)
        np.fill_diagonal(m, 1.0)
        cov = assemble_covariance(CorrelationMatrix(m, "pearson"),
                                  [2.0, 1.0, 1.0])
        assert cov.yy == pytest.approx(4.0)
        assert np.allclose(cov.xy, [0.5, 0.5])
        assert cov.xx.shape == (2, 2)

    def test_nonpositive_scale_named(self):
        R = CorrelationMatrix(np.eye(2), "pearson", ("y", "bad"))
        with pytest.raises(ValueError, match="column 'bad'"):
            assemble_covariance(R, [1.0, 0.0])

    def test_correlation_reextraction_exact(self):
        rng = np.random.default_rng(7)
        R = gaussian_rank_corr_matrix(rng.standard_normal((40, 4)))
        scales = np.array([1.5, 0.2, 3.0, 7.5])
        cov = assemble_covariance(R, scales)
        back = cov.sigma / np.outer(scales, scales)
        assert np.allclose(back, R.matrix, atol=1e-14)

    def test_sqrt_identities_to_1e8(self):
        rng = np.random.default_rng(8)
        R = gaussian_rank_corr_matrix(rng.standard_normal((60, 5)))
        cov = assemble_covariance(R, 0.5 + rng.random(5))
        norm = np.linalg.norm(cov.sigma)
        assert abs(cov.sqrt_v @ cov.sqrt_v - cov.yy) <= 1e-8 * norm
        assert np.max(np.abs(cov.sqrt_w.T @ cov.sqrt_v - cov.xy)) <= 1e-8 * norm
        assert np.max(np.abs(cov.sqrt_w.T @ cov.sqrt_w - cov.xx)) <= 1e-8 * norm


class TestSqrtFactorize:
    def test_identity(self):
        v, w = sqrt_factorize(np.eye(3))
        assert np.allclose(v, [1.0, 0.0, 0.0])
        assert np.allclose(w, np.eye(3)[:, 1:])

    def test_diagonal(self):
        v, w = sqrt_factorize(np.diag([4.0, 9.0]))
        assert np.allclose(v, [2.0, 0.0])
        assert np.allclose(w.ravel(), [0.0, 3.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_partition_identities_random_psd(self, seed):
        rng = np.random.default_rng(800 + seed)
        A = rng.standard_normal((6, 6))
        sigma = A.T @ A
        v, w = sqrt_factorize(sigma)
        norm = np.linalg.norm(sigma)
        assert abs(v @ v - sigma[0, 0]) <= 1e-8 * norm
        assert np.max(np.abs(w.T @ v - sigma[1:, 0])) <= 1e-8 * norm
        assert np.max(np.abs(w.T @ w - sigma[1:, 1:])) <= 1e-8 * norm

    def test_stacked_recombination(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((5, 5))
        sigma = A.T @ A
        v, w = sqrt_factorize(sigma)
        M = np.column_stack([v, w])
        assert np.max(np.abs(M.T @ M - sigma)) <= 1e-8 * np.linalg.norm(sigma)

    def test_clips_tiny_negative_eigenvalues(self):
        sigma = np.eye(3)
        sigma[2, 2] = -1e-12  # fuzz-level indefiniteness
        v, w = sqrt_factorize(sigma)
        assert np.all(np.isfinite(v)) and np.all(np.isfinite(w))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not positive semi-definite"):
            sqrt_factorize(np.diag([1.0, -0.5]))

    def test_two_by_two_hand_case(self):
        # eigenpairs (3, (1, 1)/sqrt2) and (1, (1, -1)/sqrt2)
        v, w = sqrt_factorize(np.array([[2.0, 1.0], [1.0, 2.0]]))
        a, b = (np.sqrt(3.0) + 1.0) / 2.0, (np.sqrt(3.0) - 1.0) / 2.0
        assert np.allclose(v, [a, b], atol=1e-12)
        assert np.allclose(w.ravel(), [b, a], atol=1e-12)

    def test_rejects_non_symmetric(self):
        # eigh would silently read one triangle of this matrix
        with pytest.raises(ValueError, match="symmetric"):
            sqrt_factorize(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="square"):
            sqrt_factorize(np.ones(shape))


class TestScoreMatrix:
    def test_pearson_scores_are_zscores(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((30, 3)) * 5 + 2
        s = score_matrix(data, "pearson")
        assert np.allclose(s.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(s.std(axis=0, ddof=1), 1.0, atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="score kind"):
            score_matrix(np.ones((3, 2)), "kendall")


@st.composite
def _score_tables(draw):
    """n x m tables, n in 2..300, whose columns are continuous, rounded to
    0-3 decimals, heavily tied (three values) or constant, in C or Fortran
    memory order."""
    n = draw(st.integers(2, 300))
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for _ in range(m):
        x = rng.standard_normal(n) * 10.0
        style = draw(st.sampled_from(["continuous", "rounded", "tied",
                                      "constant"]))
        if style == "rounded":
            x = np.round(x, draw(st.integers(0, 3)))
        elif style == "tied":
            x = rng.integers(0, 3, n).astype(float)
        elif style == "constant":
            x = np.full(n, x[0])
        cols.append(x)
    values = np.column_stack(cols)
    return np.asfortranarray(values) if draw(st.booleans()) else values


class TestWholeTableScores:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_score_tables())
    def test_matches_the_per_column_loop(self, values):
        names = tuple(f"col{j}" for j in range(values.shape[1]))
        for kind in ("gaussian-rank", "spearman", "pearson"):
            try:
                ref = score_matrix_by_column(values, names, kind,
                                             std_normal_quantile)
            except ValueError as exc:
                with pytest.raises(ValueError) as err:
                    score_matrix(values, kind)
                assert str(err.value) == str(exc)
                continue
            out = score_matrix(values, kind)
            assert np.array_equal(out, ref)
            assert out.flags.f_contiguous
