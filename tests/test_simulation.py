import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from gralasso import regression, simulation
from gralasso.covariance import gaussian_rank_corr_matrix, pearson_corr_matrix
from gralasso.data import DataMatrix
from gralasso.regression import fit_gr_alasso
from gralasso.simulation import (
    METHOD_OPTIONS,
    RECORD_FIELDS,
    BenchmarkRecord,
    ContaminationSpec,
    SimDesign,
    aggregate_records,
    ar1_correlation,
    cell_seed,
    compute_metrics,
    contaminate_cells,
    gen_design,
    gen_response,
    mix_seed,
    read_records_csv,
    replicate_data,
    run_grid,
    selection_stability_study,
    write_aggregate_csv,
    write_records_csv,
)


class TestSeeds:
    def test_mix_is_stable(self):
        assert mix_seed(0, 1, 2) == mix_seed(0, 1, 2)
        assert cell_seed(7, 0.05, 10.0, 3) == cell_seed(7, 0.05, 10.0, 3)

    def test_distinct_cells_get_distinct_seeds(self):
        seeds = {cell_seed(0, e, g, r)
                 for e in (0.0, 0.02, 0.05, 0.10)
                 for g in (2.0, 4.0, 6.0, 8.0, 10.0)
                 for r in range(50)}
        assert len(seeds) == 4 * 5 * 50

    def test_order_sensitivity(self):
        assert mix_seed(1, 2) != mix_seed(2, 1)


class TestDesign:
    def test_defaults_match_benchmark_design(self):
        d = SimDesign()
        assert d.n == 100 and d.p == 20
        assert np.array_equal(d.beta_true, np.r_[np.ones(5), np.zeros(15)])
        assert d.ar1_rho == 0.5 and d.noise_sd == 1.0

    def test_ar1_matrix(self):
        S = ar1_correlation(3, 0.5)
        assert np.allclose(S, [[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])

    def test_rho_out_of_range(self):
        with pytest.raises(ValueError):
            ar1_correlation(3, 1.0)
        with pytest.raises(ValueError):
            SimDesign(ar1_rho=-1.0)

    def test_independence_when_rho_zero(self):
        X = gen_design(SimDesign(n=10_000, p=4, ar1_rho=0.0, seed=1))
        corr = np.corrcoef(X, rowvar=False)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off)) <= 0.05

    def test_ar1_closed_form_correlations(self):
        X = gen_design(SimDesign(n=50_000, p=5, ar1_rho=0.5, seed=2))
        corr = np.corrcoef(X, rowvar=False)
        assert abs(corr[0, 1] - 0.5) <= 0.02
        assert abs(corr[0, 2] - 0.25) <= 0.02

    def test_deterministic_per_seed(self):
        d = SimDesign(n=50, p=6, seed=9)
        assert np.array_equal(gen_design(d), gen_design(d))


class TestResponse:
    def test_zero_noise_is_exact(self):
        X = gen_design(SimDesign(n=30, p=4, seed=3))
        beta = np.array([1.0, 0.0, -2.0, 0.5])
        y = gen_response(X, beta, 0.0, seed=4)
        assert np.array_equal(y, X @ beta)

    def test_pure_noise_scale(self):
        X = np.zeros((20_000, 2))
        y = gen_response(X, np.zeros(2), 3.0, seed=5)
        assert abs(np.std(y) - 3.0) <= 0.1

    def test_variance_closed_form(self):
        # var(y) = beta' Sigma beta + noise^2; for the default design
        # beta' Sigma beta = 5 + 2*(4*0.5 + 3*0.25 + 2*0.125 + 0.0625) = 11.125
        d = SimDesign(n=50_000, p=20, seed=6)
        X = gen_design(d)
        y = gen_response(X, d.beta_true, 1.0, seed=7)
        assert abs(np.var(y) / 12.125 - 1.0) <= 0.05

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="beta length"):
            gen_response(np.zeros((5, 3)), np.zeros(2), 1.0, 0)


class TestContamination:
    def test_zero_rate_is_identity(self):
        X = np.arange(12.0).reshape(4, 3)
        Xc, mask = contaminate_cells(X, ContaminationSpec(0.0, 10.0), 0)
        assert np.array_equal(Xc, X)
        assert not mask.any()

    def test_mask_density(self):
        X = np.zeros((1000, 1000))
        _, mask = contaminate_cells(X, ContaminationSpec(0.05, 10.0), 1)
        assert abs(mask.mean() - 0.05) <= 0.005

    def test_row_propagation_formula(self):
        # fraction of rows with >= 1 contaminated cell -> 1 - (1-e)^p
        hit = 0
        total = 0
        for seed in range(60):
            _, mask = contaminate_cells(np.zeros((100, 20)),
                                        ContaminationSpec(0.05, 10.0), seed)
            hit += int(mask.any(axis=1).sum())
            total += 100
        expected = 1.0 - 0.95 ** 20
        assert abs(hit / total - expected) <= 0.02

    def test_replacement_magnitude(self):
        X = np.zeros((2000, 10))
        Xc, mask = contaminate_cells(X, ContaminationSpec(0.5, 10.0), 2)
        vals = Xc[mask]
        assert abs(np.mean(np.abs(vals)) - 10.0) <= 0.2
        # both signs occur with roughly equal probability
        assert 0.45 <= np.mean(vals > 0) <= 0.55

    def test_row_count_and_untouched_cells(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((50, 5))
        Xc, mask = contaminate_cells(X, ContaminationSpec(0.2, 5.0), 3)
        assert Xc.shape == X.shape
        assert np.array_equal(Xc[~mask], X[~mask])

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="rate"):
            ContaminationSpec(1.0, 5.0)


class TestMetrics:
    def test_exact_recovery(self):
        beta = np.r_[np.ones(3), np.zeros(4)]
        m = compute_metrics((0, 1, 2), beta, beta, np.zeros((5, 7)),
                            np.zeros(5))
        assert m["tpr"] == 1.0 and m["fpr"] == 0.0 and m["mse_beta"] == 0.0

    def test_select_everything(self):
        beta = np.r_[np.ones(2), np.zeros(3)]
        m = compute_metrics(range(5), beta, beta, np.zeros((4, 5)),
                            np.zeros(4))
        assert m["tpr"] == 1.0 and m["fpr"] == 1.0

    def test_mspe_is_irreducible_error_at_truth(self):
        rng = np.random.default_rng(9)
        d = SimDesign(n=20_000, p=6, beta_true=np.r_[np.ones(2), np.zeros(4)],
                      seed=10)
        X = gen_design(d)
        y = gen_response(X, d.beta_true, 1.0, seed=11)
        m = compute_metrics((0, 1), d.beta_true, d.beta_true, X, y)
        assert abs(m["mspe"] - 1.0) <= 0.05

    def test_partial_selection(self):
        beta = np.r_[np.ones(4), np.zeros(6)]
        m = compute_metrics((0, 1, 5), beta, beta, np.zeros((3, 10)),
                            np.zeros(3))
        assert m["tpr"] == pytest.approx(0.5)
        assert m["fpr"] == pytest.approx(1 / 6)

    def test_empty_active_set_rejected(self):
        with pytest.raises(ValueError, match="no active predictors"):
            compute_metrics((), np.zeros(3), np.zeros(3), np.zeros((2, 3)),
                            np.zeros(2))


class TestReplicateData:
    @pytest.mark.parametrize("contaminate_test", [False, True])
    def test_stream_positions(self, contaminate_test):
        # stream t of the replicate seed feeds one fixed purpose each;
        # moving any of them would re-roll every published benchmark
        design, rs, spec = SimDesign(n=40, p=6), 12345, ContaminationSpec(0.1, 8.0)
        train, mask, X_test, y_test = replicate_data(
            design, 0.1, 8.0, rs, n_test=25, contaminate_test=contaminate_test)
        X = gen_design(replace(design, seed=mix_seed(rs, 1)))
        Xc, expected_mask = contaminate_cells(X, spec, mix_seed(rs, 3))
        assert np.array_equal(train.y, gen_response(X, design.beta_true, 1.0,
                                                    mix_seed(rs, 2)))
        assert np.array_equal(train.X, Xc)
        assert np.array_equal(mask, expected_mask)
        X_t = gen_design(replace(design, n=25, seed=mix_seed(rs, 4)))
        assert np.array_equal(y_test, gen_response(X_t, design.beta_true, 1.0,
                                                   mix_seed(rs, 5)))
        if contaminate_test:
            X_t, _ = contaminate_cells(X_t, spec, mix_seed(rs, 6))
        assert np.array_equal(X_test, X_t)


class TestRunGrid:
    def test_requires_gr_alasso(self):
        with pytest.raises(ValueError, match="gr-alasso"):
            run_grid(SimDesign(), [0.0], [2.0], replicates=1,
                     methods=("lasso",))

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown in-process methods"):
            run_grid(SimDesign(), [0.0], [2.0], replicates=1,
                     methods=("gr-alasso", "mm-alasso"))

    @pytest.mark.parametrize("e_list, gamma_list, clash", [
        ([0.012, 0.0125], [2.0], "(0.012, 2.0) and (0.0125, 2.0)"),
        ([0.0], [2.0, 2.04], "(0.0, 2.0) and (0.0, 2.04)"),
    ])
    def test_rejects_cells_sharing_seeds(self, e_list, gamma_list, clash):
        assert (cell_seed(0, e_list[0], gamma_list[0], 0)
                == cell_seed(0, e_list[-1], gamma_list[-1], 0))
        with pytest.raises(ValueError, match=re.escape(clash)):
            run_grid(SimDesign(n=30, p=5), e_list, gamma_list, replicates=1)

    @pytest.mark.parametrize("e_list, gamma_list", [([], [2.0]), ([0.0], [])])
    def test_rejects_an_empty_grid(self, e_list, gamma_list):
        with pytest.raises(ValueError, match="must be nonempty"):
            run_grid(SimDesign(n=30, p=5), e_list, gamma_list, replicates=1)

    def test_repeated_cell_values_are_not_a_clash(self):
        recs = run_grid(SimDesign(n=60, p=5), [0.0, 0.0], [2.0], replicates=1,
                        seed0=1)
        assert len(recs) == 2
        assert recs[0].tpr == recs[1].tpr

    def test_bookkeeping_one_cell(self):
        recs = run_grid(SimDesign(n=60, p=5), [0.0], [2.0], replicates=3,
                        methods=("gr-alasso", "lasso"), seed0=1)
        assert len(recs) == 6
        assert [r.replicate for r in recs] == [0, 0, 1, 1, 2, 2]
        assert all(r.status == "ok" for r in recs)
        rows = aggregate_records(recs)
        assert len(rows) == 2
        assert {row["method"] for row in rows} == {"gr-alasso", "lasso"}
        assert all(row["n_ok"] == 3 for row in rows)

    def test_clean_cell_sanity(self):
        recs = run_grid(SimDesign(n=100, p=10,
                                  beta_true=np.r_[np.ones(3), np.zeros(7)]),
                        [0.0], [2.0], replicates=5,
                        methods=("gr-alasso", "alasso"), seed0=2)
        rows = {row["method"]: row for row in aggregate_records(recs)}
        assert rows["gr-alasso"]["tpr_mean"] >= 0.95
        assert rows["alasso"]["tpr_mean"] >= 0.95

    def test_deterministic_metrics(self):
        kwargs = dict(e_list=[0.05], gamma_list=[4.0], replicates=2,
                      methods=("gr-alasso",), seed0=3)
        r1 = run_grid(SimDesign(n=60, p=5), **kwargs)
        r2 = run_grid(SimDesign(n=60, p=5), **kwargs)
        for a, b in zip(r1, r2):
            assert (a.tpr, a.fpr, a.mse_beta, a.mspe, a.status) == \
                (b.tpr, b.fpr, b.mse_beta, b.mspe, b.status)

    def test_threads_match_serial(self):
        kwargs = dict(e_list=[0.02], gamma_list=[6.0], replicates=4,
                      methods=("gr-alasso",), seed0=4)
        serial = run_grid(SimDesign(n=60, p=5), **kwargs, threads=1)
        parallel = run_grid(SimDesign(n=60, p=5), **kwargs, threads=2)
        for a, b in zip(serial, parallel):
            assert (a.e, a.gamma, a.replicate, a.method) == \
                (b.e, b.gamma, b.replicate, b.method)
            assert (a.tpr, a.fpr, a.mse_beta, a.mspe) == \
                (b.tpr, b.fpr, b.mse_beta, b.mspe)

    def test_contaminated_test_inflates_mspe_only(self):
        kwargs = dict(e_list=[0.10], gamma_list=[10.0], replicates=3,
                      methods=("gr-alasso",), seed0=6)
        clean = run_grid(SimDesign(n=60, p=5), **kwargs)
        dirty = run_grid(SimDesign(n=60, p=5), contaminate_test=True,
                         **kwargs)
        for a, b in zip(clean, dirty):
            assert (a.tpr, a.fpr, a.mse_beta) == (b.tpr, b.fpr, b.mse_beta)
        assert (np.mean([r.mspe for r in dirty])
                > np.mean([r.mspe for r in clean]))

    def test_tpr_nonincreasing_in_rate_at_gamma_ten(self):
        recs = run_grid(SimDesign(n=100, p=10,
                                  beta_true=np.r_[np.ones(3), np.zeros(7)]),
                        [0.0, 0.05, 0.10], [10.0], replicates=15,
                        methods=("gr-alasso",), seed0=5)
        rows = aggregate_records(recs)
        tprs = [row["tpr_mean"] for row in sorted(rows, key=lambda r: r["e"])]
        for lo, hi in zip(tprs[1:], tprs[:-1]):
            assert lo <= hi + 0.03  # qualitative trend, MC slack


_GRID_PAPER = [(e, g) for e in (0.05, 0.10) for g in (2.0, 10.0)]
_METHODS = ("gr-alasso", "alasso", "lasso")
_CORR = {"gaussian-rank": gaussian_rank_corr_matrix,
         "pearson": pearson_corr_matrix}


def _fit_arrays(fit):
    """The arrays of a fit that stacking leaves bit for bit as they are."""
    return (fit.beta, np.array([fit.intercept, fit.lambda_]), fit.path.lambdas,
            fit.path.coefficients, fit.path.iterations, fit.path.converged,
            fit.weights.weights, fit.locations, fit.scales,
            fit.correlation.matrix)


def _kkt_residual(Z, fit):
    """Largest KKT violation at the chosen lambda, from a correlation matrix
    computed afresh from the table."""
    R = _CORR[fit.estimator](Z)
    b = fit.path.coefficients[list(fit.path.lambdas).index(fit.lambda_)]
    w = fit.weights.weights
    finite = np.isfinite(w)
    assert not b[~finite].any()
    grad = 2.0 * Z.n * (R.xx @ b - R.xy)
    lamw = fit.lambda_ * np.where(finite, w, 0.0)
    viol = np.where(b != 0.0, np.abs(grad + lamw * np.sign(b)),
                    np.maximum(np.abs(grad) - lamw, 0.0))
    return float(viol[finite].max(initial=0.0))


def _without_runtime(records):
    return [replace(rec, runtime_ms=0.0) for rec in records]


class TestReplicateLockstep:
    """A replicate prepares its methods, traces all their path problems as
    one stack and finishes each method on its own rows."""

    @pytest.mark.parametrize("e, gamma", _GRID_PAPER)
    @pytest.mark.parametrize("seed0", [0, 1, 2])
    def test_stacked_fits_are_the_standalone_fits(self, e, gamma, seed0):
        rs = cell_seed(seed0, e, gamma, 0)
        train = replicate_data(SimDesign(), e, gamma, rs)[0]
        seed = mix_seed(rs, 7)
        fits = simulation._replicate_fits(train, _METHODS, seed, {})
        assert list(fits) == list(_METHODS)
        for method, (fit, ms) in fits.items():
            alone = fit_gr_alasso(train, seed=seed, **METHOD_OPTIONS[method])
            assert ms > 0.0
            assert fit.support == alone.support
            assert fit.weights.source == alone.weights.source
            for got, want in zip(_fit_arrays(fit), _fit_arrays(alone)):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            # a fold's stacked solves may be padded wider than in its own
            # fit, which moves the last bits of a few fold paths
            assert (fit.cv.idx_min, fit.cv.idx_1se) == (alone.cv.idx_min,
                                                        alone.cv.idx_1se)
            for got, want in ((fit.cv.mean_errors, alone.cv.mean_errors),
                              (fit.cv.se_errors, alone.cv.se_errors)):
                assert np.allclose(got, want, rtol=1e-12, atol=0.0)
            assert fit.converged
            assert _kkt_residual(train, fit) <= 10.0 * 1e-7 * train.n

    def test_a_failed_preparation_fails_its_method_alone(self, monkeypatch):
        task = (SimDesign(), 0.05, 2.0, 0, _METHODS, 3, False, {})
        clean = simulation._replicate_records(task)
        real = regression.column_summaries

        def summaries(Z, estimator="gr"):
            if estimator == "gr":
                raise ValueError("no summaries")
            return real(Z, estimator)

        monkeypatch.setattr(regression, "column_summaries", summaries)
        records = simulation._replicate_records(task)
        assert records[0].status == "failed:ValueError"
        assert np.isnan(records[0].tpr) and records[0].runtime_ms >= 0.0
        assert _without_runtime(records[1:]) == _without_runtime(clean[1:])

    def test_a_failed_trace_fails_its_method_alone(self, monkeypatch):
        # the shared stack raises, so each method is traced on its own
        task = (SimDesign(), 0.10, 10.0, 1, _METHODS, 4, False, {})
        clean = simulation._replicate_records(task)
        real = simulation._trace

        def trace(plans):
            if any(plan.R.estimator == "gaussian-rank" for plan in plans):
                raise np.linalg.LinAlgError("singular")
            return real(plans)

        monkeypatch.setattr(simulation, "_trace", trace)
        records = simulation._replicate_records(task)
        assert records[0].status == "failed:LinAlgError"
        assert _without_runtime(records[1:]) == _without_runtime(clean[1:])

    def test_pearson_methods_share_one_table_stage(self):
        # the adaptive Lasso and the Lasso read one Pearson table stage and
        # one set of folds
        task = (SimDesign(), 0.05, 10.0, 0, _METHODS, 5, False, {})
        with mock.patch.object(regression, "score_matrix",
                               wraps=regression.score_matrix) as scores, \
                mock.patch.object(regression, "_cv_folds",
                                  wraps=regression._cv_folds) as folds:
            records = simulation._replicate_records(task)
        assert all(r.status == "ok" for r in records)
        assert scores.call_count == 2  # gaussian-rank and pearson
        assert folds.call_count == 2


class TestRecordCsv:
    def _records(self):
        return [
            BenchmarkRecord(0.05, 10.0, 0, "gr-alasso", 1.0, 0.0, 0.01, 1.1,
                            253.7, "ok"),
            BenchmarkRecord(0.05, 10.0, 1, "gr-alasso", 0.8, 0.1, 0.05, 2.3,
                            240.0, "ok"),
            BenchmarkRecord(0.05, 10.0, 2, "gr-alasso", np.nan, np.nan,
                            np.nan, np.nan, 5.0, "failed:ValueError"),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(path, self._records(), {"seed": 1, "version": "x"})
        back = read_records_csv(path)
        assert len(back) == 3
        assert back[0] == self._records()[0]
        assert back[2].status == "failed:ValueError"

    def test_aggregate_skips_failures(self, tmp_path):
        rows = aggregate_records(self._records())
        assert rows[0]["n_ok"] == 2
        assert rows[0]["tpr_mean"] == pytest.approx(0.9)
        path = tmp_path / "agg.csv"
        write_aggregate_csv(path, rows, {"seed": 1})
        text = path.read_text()
        assert text.startswith("# seed=1\n")
        assert "runtime" not in text

    def test_aggregate_bytes_deterministic(self, tmp_path):
        rows = aggregate_records(self._records())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_aggregate_csv(p1, rows, {"seed": 1})
        write_aggregate_csv(p2, rows, {"seed": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_external_ingestion_merges(self, tmp_path):
        path = tmp_path / "external.csv"
        ext = [BenchmarkRecord(0.05, 10.0, r, "mm-alasso", 0.9, 0.05, 0.1,
                               2.0, 100.0, "ok") for r in range(3)]
        write_records_csv(path, ext)
        merged = aggregate_records(self._records() + read_records_csv(path))
        methods = {row["method"] for row in merged}
        assert methods == {"gr-alasso", "mm-alasso"}

    def test_quoted_cell_round_trips(self, tmp_path):
        path = tmp_path / "external.csv"
        ext = [BenchmarkRecord(0.05, 10.0, 0, "mm-alasso, tuned", 0.9, 0.05,
                               0.1, 2.0, 100.0, "ok")]
        write_records_csv(path, ext, {"seed": 1})
        assert read_records_csv(path) == ext

    def test_short_row_is_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(",".join(RECORD_FIELDS) + "\n0.05,10,0,x\n")
        with pytest.raises(ValueError, match="malformed record line"):
            read_records_csv(path)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="unexpected records header"):
            read_records_csv(path)


class TestStabilityProtocol:
    def test_rates_shape_and_range(self):
        rng = np.random.default_rng(12)
        X = gen_design(SimDesign(n=80, p=4, seed=13))
        y = X @ np.array([2.0, 1.5, 0.0, 0.0]) + rng.standard_normal(80)
        Z = DataMatrix.from_arrays(y, X)
        rates = selection_stability_study(Z, n_redundant=3, replicates=3,
                                          seed=0)
        assert len(rates.columns) == 7
        assert rates.clean.shape == (7,) and rates.contaminated.shape == (7,)
        assert np.all((0 <= rates.clean) & (rates.clean <= 1))
        assert np.all((0 <= rates.contaminated) & (rates.contaminated <= 1))
        # the two strong predictors should be picked nearly always when clean
        assert rates.clean[0] == 1.0 and rates.clean[1] == 1.0

    @pytest.mark.parametrize("column", ["y", "x2"])
    def test_zero_scale_column_is_named(self, column):
        # a constant response fails here as its first fit would
        X = gen_design(SimDesign(n=40, p=3, seed=14))
        y = X[:, 0] + np.random.default_rng(15).standard_normal(40)
        if column == "y":
            y[:] = 1.0
        else:
            X[:, 1] = 1.0
        Z = DataMatrix.from_arrays(y, X)
        with pytest.raises(ValueError,
                           match=f"zero scale for column {column!r}"):
            selection_stability_study(Z, n_redundant=1, replicates=1)


def _written(path, text):
    path.write_text(text)
    return path


@pytest.mark.parametrize("call, message", [
    (lambda tmp: SimDesign(n=0), "n and p must be positive"),
    (lambda tmp: SimDesign(p=0), "n and p must be positive"),
    (lambda tmp: SimDesign(noise_sd=0.0), "noise_sd must be positive"),
    (lambda tmp: SimDesign(p=3, beta_true=[1.0, 2.0]),
     "beta_true must have length p"),
    (lambda tmp: ContaminationSpec(0.1, -1.0),
     "magnitude must be nonnegative"),
    (lambda tmp: run_grid(SimDesign(n=20, p=5), [0.0], [2.0], replicates=0),
     "replicates must be positive"),
    (lambda tmp: read_records_csv(_written(tmp / "empty.csv", "\n# seed=1\n")),
     "empty records file"),
], ids=["n", "p", "noise-sd", "beta-length", "magnitude", "replicates",
        "empty-records"])
def test_errors_are_named(tmp_path, call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(tmp_path)
