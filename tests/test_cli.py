import csv
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gralasso
from gralasso import cli, regression
from gralasso.cli import build_parser, main
from gralasso.covariance import gaussian_rank_corr_matrix
from gralasso.data import DataMatrix
from gralasso.regression import fit_gr_alasso, marginal_gr_correlations
from gralasso.simulation import (
    SimDesign,
    read_records_csv,
    replicate_data,
    run_grid,
)

from oracles import ols_fit


def _fixture_csv(tmp_path, seed=0, n=30, name="data.csv"):
    """Tiny dataset where only x1 drives the response."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 3))
    y = 2.0 * X[:, 0] + 0.3 * rng.standard_normal(n)
    path = tmp_path / name
    DataMatrix.from_arrays(y, X).to_csv(path)
    return path, X, y


class TestFit:
    def test_selects_only_the_real_signal(self, tmp_path):
        path, _, _ = _fixture_csv(tmp_path)
        out = tmp_path / "out"
        assert main(["fit", "--input", str(path), "--response", "y",
                     "--output-dir", str(out), "--seed", "1"]) == 0
        meta = json.loads((out / "fit.json").read_text())
        assert meta["selected"] == ["x1"]
        lines = (out / "coefficients.csv").read_text().splitlines()
        assert lines[0] == "variable,coefficient,selected"
        assert len(lines) == 4

    def test_pearson_lambda_zero_matches_ols(self, tmp_path):
        path, X, y = _fixture_csv(tmp_path, seed=3, n=100)
        out = tmp_path / "out"
        assert main(["fit", "--input", str(path), "--response", "y",
                     "--output-dir", str(out), "--estimator", "pearson",
                     "--lambda", "0"]) == 0
        rows = (out / "coefficients.csv").read_text().splitlines()[1:]
        beta = np.array([float(r.split(",")[1]) for r in rows])
        slopes, _ = ols_fit(X, y)
        assert np.allclose(beta, slopes, atol=1e-6)
        # the sidecar keeps its keys but records no grid, rule or folds
        meta = json.loads((out / "fit.json").read_text())
        for key in ("folds", "n_lambda", "lambda_ratio", "rule",
                    "lambda_min", "lambda_1se"):
            assert meta[key] is None, key
        assert meta["lambda"] == 0.0
        report = (out / "fit_report.txt").read_text()
        assert "rule:" not in report and "lambda: 0\n" in report
        assert not (out / "cv_curve.csv").exists()
        # a ridge kappa picked by CV does use the folds
        out_cv = tmp_path / "kappa_cv"
        assert main(["fit", "--input", str(path), "--response", "y",
                     "--output-dir", str(out_cv), "--estimator", "pearson",
                     "--weights", "ridge", "--kappa", "cv", "--folds", "4",
                     "--lambda", "0"]) == 0
        meta_cv = json.loads((out_cv / "fit.json").read_text())
        assert meta_cv["folds"] == 4 and meta_cv["rule"] is None
        assert meta_cv.keys() == meta.keys()

    def test_report_names_the_weight_source(self, tmp_path):
        path, _, _ = _fixture_csv(tmp_path)
        out = tmp_path / "out"
        assert main(["fit", "--input", str(path), "--response", "y",
                     "--output-dir", str(out)]) == 0
        meta = json.loads((out / "fit.json").read_text())
        lines = (out / "fit_report.txt").read_text().splitlines()
        assert f"weight_source: {meta['weight_source']}" in lines
        assert meta["weights"] == "auto"
        assert not any(line.startswith("weights:") for line in lines)

    def test_lambda_that_selects_nothing(self, tmp_path):
        path, _, _ = _fixture_csv(tmp_path)
        out = tmp_path / "out"
        assert main(["fit", "--input", str(path), "--response", "y",
                     "--output-dir", str(out), "--lambda", "1e6"]) == 0
        assert json.loads((out / "fit.json").read_text())["selected"] == []
        report = (out / "fit_report.txt").read_text()
        assert "selected variables:\n  (none)\ncolumn summaries" in report
        rows = (out / "coefficients.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1:] for row in rows] == [["0", "0"]] * 3

    def test_one_fold_is_usage_error(self, tmp_path, capsys):
        path, _, _ = _fixture_csv(tmp_path)
        out = tmp_path / "o"
        for extra in ([], ["--weights", "ridge", "--kappa", "cv"]):
            assert main(["fit", "--input", str(path), "--response", "y",
                         "--output-dir", str(out), "--folds", "1"] + extra) == 2
            assert "folds must be at least 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        (["--kappa", "-1"], "kappa must be positive"),
        (["--folds", "1", "--lambda", "1"], "folds must be at least 2"),
    ], ids=["kappa", "folds-with-lambda"])
    def test_option_no_mode_uses_is_usage_error(self, tmp_path, capsys,
                                                extra, message):
        path, _, _ = _fixture_csv(tmp_path)
        out = tmp_path / "o"
        assert main(["fit", "--input", str(path), "--response", "y",
                     "--output-dir", str(out)] + extra) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_reports_are_byte_identical(self, tmp_path):
        path, _, _ = _fixture_csv(tmp_path, seed=5)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["fit", "--input", str(path), "--response", "y", "--seed", "7"]
        assert main(args + ["--output-dir", str(out1)]) == 0
        assert main(args + ["--output-dir", str(out2)]) == 0
        for name in ("fit_report.txt", "coefficients.csv", "cv_curve.csv",
                     "fit.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a byte-order mark
        path, _, _ = _fixture_csv(tmp_path, seed=5)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        outs = tmp_path / "a", tmp_path / "b"
        for src, out in zip((path, bom), outs):
            assert main(["fit", "--input", str(src), "--response", "y",
                         "--seed", "7", "--output-dir", str(out)]) == 0
        for name in ("coefficients.csv", "cv_curve.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_matrix_exports(self, tmp_path):
        path, _, _ = _fixture_csv(tmp_path, seed=6)
        out = tmp_path / "out"
        assert main(["fit", "--input", str(path), "--response", "y",
                     "--output-dir", str(out), "--export-correlation",
                     "--export-covariance"]) == 0
        corr_lines = (out / "correlation.csv").read_text().splitlines()
        assert corr_lines[0] == "y,x1,x2,x3"
        corr = np.array([[float(v) for v in line.split(",")]
                         for line in corr_lines[1:]])
        assert np.allclose(np.diag(corr), 1.0)
        assert np.allclose(corr, corr.T)
        cov_lines = (out / "covariance.csv").read_text().splitlines()
        assert cov_lines[0] == "y,x1,x2,x3"

    def test_comma_in_a_column_name_round_trips(self, tmp_path):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((40, 3))
        y = 1.5 * X[:, 0] + 0.3 * rng.standard_normal(40)
        path = tmp_path / "data.csv"
        DataMatrix.from_arrays(y, X, ("a,b", "x2", "x3")).to_csv(path)
        out = tmp_path / "out"
        assert main(["fit", "--input", str(path), "--response", "y",
                     "--output-dir", str(out), "--export-correlation",
                     "--export-covariance"]) == 0
        assert main(["screen", "--input", str(path), "--response", "y",
                     "--output-dir", str(out), "--screen-k", "3"]) == 0

        def rows(name):
            with open(out / name, newline="", encoding="utf-8") as fh:
                return list(csv.reader(fh))

        coefs = rows("coefficients.csv")
        assert [len(r) for r in coefs] == [3] * 4
        assert [r[0] for r in coefs[1:]] == ["a,b", "x2", "x3"]
        screen = rows("screen.csv")
        assert [len(r) for r in screen] == [3] * 4
        assert "a,b" in [r[1] for r in screen[1:]]
        for name in ("correlation.csv", "covariance.csv"):
            matrix = rows(name)
            assert matrix[0] == ["y", "a,b", "x2", "x3"]
            assert [len(r) for r in matrix] == [4] * 5

    def test_unknown_response_is_usage_error(self, tmp_path, capsys):
        path, _, _ = _fixture_csv(tmp_path)
        code = main(["fit", "--input", str(path), "--response", "nope",
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert "response column" in capsys.readouterr().err

    def test_non_numeric_cell_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("y,x1\n1,2\n3,oops\n")
        code = main(["fit", "--input", str(bad), "--response", "y",
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "row 2" in err and "x1" in err

    def test_missing_file_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fit", "--input", str(tmp_path / "nothing.csv"),
                     "--response", "y"]) == 2
        # a failed run leaves no (default) output directory behind
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["fit", "screen"])
    def test_oversized_cell_is_usage_error(self, tmp_path, capsys, command):
        bad = tmp_path / "huge.csv"
        bad.write_text("y,x1\n1,2\n3," + "4" * 200_000 + "\n")
        out = tmp_path / "o"
        code = main([command, "--input", str(bad), "--response", "y",
                     "--output-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "row 2" in err and "field larger than field limit" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "screen"])
    def test_digit_group_underscore_is_usage_error(self, tmp_path, capsys,
                                                   command):
        # float() alone would read "1_0" as 10.0
        bad = tmp_path / "grouped.csv"
        bad.write_text("y,x1\n1,2\n3,1_0\n")
        out = tmp_path / "o"
        code = main([command, "--input", str(bad), "--response", "y",
                     "--output-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "non-numeric value '1_0' at row 2, column 'x1'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "screen"])
    @pytest.mark.parametrize("cell", ["\u0661\u0660", "\uff11\uff10", "\u00a010"],
                             ids=["arabic-indic", "full-width", "no-break-space"])
    def test_non_ascii_numeral_is_usage_error(self, tmp_path, capsys, command,
                                              cell):
        bad = tmp_path / "unicode.csv"
        bad.write_text(f"y,x1\n1,2\n3,{cell}\n", encoding="utf-8")
        out = tmp_path / "o"
        code = main([command, "--input", str(bad), "--response", "y",
                     "--output-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"non-numeric value {cell!r} at row 2, column 'x1'" in err
        assert not out.exists()

    def test_exports_are_the_fit_correlation(self, tmp_path):
        path, _, _ = _fixture_csv(tmp_path, seed=6)
        # the Pearson fit correlates the standardised columns, so its export
        # is the fit's matrix, not `pearson_corr_matrix` of the raw columns
        for estimator, corr_func in (
                ("gr", gaussian_rank_corr_matrix),
                ("pearson", lambda Z: fit_gr_alasso(
                    Z, estimator="pearson").correlation)):
            out = tmp_path / estimator
            assert main(["fit", "--input", str(path), "--response", "y",
                         "--output-dir", str(out), "--estimator", estimator,
                         "--export-correlation"]) == 0
            rows = (out / "correlation.csv").read_text().splitlines()[1:]
            corr = np.array([[float(v) for v in r.split(",")] for r in rows])
            expected = corr_func(DataMatrix.from_csv(path, "y")).matrix
            assert np.array_equal(corr, expected)

    def test_spearman_is_not_an_estimator_choice(self, tmp_path, capsys):
        path, _, _ = _fixture_csv(tmp_path)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--input", str(path), "--output-dir", str(out),
                  "--estimator", "spearman"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'spearman'" in err
        # newer Pythons print the choices without quotes
        choices = err.split("(choose from ")[1].split(")")[0]
        assert choices.replace("'", "") == "gr, pearson"
        assert not out.exists()

    def test_spearman_from_the_environment_is_a_usage_error(
            self, tmp_path, capsys, monkeypatch):
        # argparse does not check a string default against the choices
        path, _, _ = _fixture_csv(tmp_path)
        out = tmp_path / "o"
        monkeypatch.setenv("GRALASSO_ESTIMATOR", "spearman")
        assert main(["fit", "--input", str(path),
                     "--output-dir", str(out)]) == 2
        assert "unknown estimator 'spearman'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_lambda_is_usage_error(self, tmp_path,
                                                          capsys, value):
        path, _, _ = _fixture_csv(tmp_path)
        out = tmp_path / "o"
        assert main(["fit", "--input", str(path), "--response", "y",
                     "--output-dir", str(out), "--lambda", value]) == 2
        assert "lambda must be finite and nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_env_override_and_flag_priority(self, tmp_path, monkeypatch):
        path, _, _ = _fixture_csv(tmp_path, seed=8)
        out_env = tmp_path / "env"
        monkeypatch.setenv("GRALASSO_SEED", "3")
        monkeypatch.setenv("GRALASSO_RULE", "min")
        assert main(["fit", "--input", str(path), "--response", "y",
                     "--output-dir", str(out_env)]) == 0
        meta = json.loads((out_env / "fit.json").read_text())
        assert meta["seed"] == 3 and meta["rule"] == "min"
        out_flag = tmp_path / "flag"
        assert main(["fit", "--input", str(path), "--response", "y",
                     "--output-dir", str(out_flag), "--seed", "9"]) == 0
        meta = json.loads((out_flag / "fit.json").read_text())
        assert meta["seed"] == 9  # flag beats environment


class TestScreen:
    def test_lists_all_when_k_equals_p(self, tmp_path):
        path, _, _ = _fixture_csv(tmp_path, seed=9)
        out = tmp_path / "out"
        assert main(["screen", "--input", str(path), "--response", "y",
                     "--output-dir", str(out), "--screen-k", "3"]) == 0
        lines = (out / "screen.csv").read_text().splitlines()
        assert lines[0] == "rank,variable,gr_correlation"
        assert len(lines) == 4
        corrs = [abs(float(line.split(",")[2])) for line in lines[1:]]
        assert corrs == sorted(corrs, reverse=True)
        assert lines[1].split(",")[1] == "x1"

    def test_correlations_match_the_full_marginal_scores(self, tmp_path):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((50, 8))
        y = X[:, 2] - 0.5 * X[:, 5] + 0.5 * rng.standard_normal(50)
        path = tmp_path / "data.csv"
        DataMatrix.from_arrays(y, X).to_csv(path)
        out = tmp_path / "out"
        assert main(["screen", "--input", str(path), "--response", "y",
                     "--output-dir", str(out), "--screen-k", "3"]) == 0
        full = marginal_gr_correlations(DataMatrix.from_csv(path, "y"))
        for line in (out / "screen.csv").read_text().splitlines()[1:]:
            _, name, corr = line.split(",")
            assert float(corr) == full[int(name[1:]) - 1]

    def test_duplicated_response_ranks_first(self, tmp_path):
        rng = np.random.default_rng(10)
        y = rng.standard_normal(40)
        X = np.column_stack([rng.standard_normal((40, 2)), y])
        path = tmp_path / "dup.csv"
        DataMatrix.from_arrays(y, X, ("a", "b", "copy")).to_csv(path)
        out = tmp_path / "out"
        assert main(["screen", "--input", str(path), "--response", "y",
                     "--output-dir", str(out), "--screen-k", "1"]) == 0
        lines = (out / "screen.csv").read_text().splitlines()
        assert lines[1].startswith("1,copy,")

    def test_screen_then_fit_workflow(self, tmp_path):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((60, 12))
        y = 1.5 * X[:, 4] - X[:, 9] + 0.5 * rng.standard_normal(60)
        data = tmp_path / "wide.csv"
        DataMatrix.from_arrays(y, X).to_csv(data)
        out = tmp_path / "out"
        assert main(["screen", "--input", str(data), "--response", "y",
                     "--output-dir", str(out), "--screen-k", "4"]) == 0
        kept = [line.split(",")[1] for line in
                (out / "screen.csv").read_text().splitlines()[1:]]
        assert {"x5", "x10"} <= set(kept)
        Z = DataMatrix.from_csv(data, "y")
        keep_idx = [Z.predictor_names.index(k) for k in kept]
        reduced = tmp_path / "reduced.csv"
        DataMatrix.from_arrays(Z.y, Z.X[:, keep_idx], kept).to_csv(reduced)
        fit_out = tmp_path / "fit"
        assert main(["fit", "--input", str(reduced), "--response", "y",
                     "--output-dir", str(fit_out), "--seed", "0"]) == 0
        meta = json.loads((fit_out / "fit.json").read_text())
        assert {"x5", "x10"} <= set(meta["selected"])


class TestSimulate:
    def test_default_shapes_and_density(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--output-dir", str(out), "--seed", "4"]) == 0
        train = DataMatrix.from_csv(out / "train.csv", "y")
        test = DataMatrix.from_csv(out / "test.csv", "y")
        assert train.n == 100 and train.p == 20
        assert test.n == 100 and test.p == 20
        mask_rows = (out / "mask.csv").read_text().splitlines()
        density = (len(mask_rows) - 1) / (100 * 20)
        assert abs(density - 0.05) <= 0.02
        truth = json.loads((out / "truth.json").read_text())
        assert truth["active_set"] == [0, 1, 2, 3, 4]
        assert truth["contaminated_cells"] == len(mask_rows) - 1

    def test_zero_rate_gives_empty_mask(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--output-dir", str(out), "--e", "0",
                     "--seed", "1"]) == 0
        assert (out / "mask.csv").read_text() == "row,column\n"

    def test_seeded_rerun_identical(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        for out in (out1, out2):
            assert main(["simulate", "--output-dir", str(out), "--seed",
                         "42", "--n", "40", "--p", "5"]) == 0
        for name in ("train.csv", "test.csv", "mask.csv", "truth.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_every_csv_ends_lines_with_lf(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--output-dir", str(out), "--seed", "5",
                     "--n", "20", "--p", "4", "--e", "0.2",
                     "--gamma", "3"]) == 0
        for name in ("train.csv", "test.csv", "mask.csv"):
            assert b"\r" not in (out / name).read_bytes(), name
        train = replicate_data(SimDesign(n=20, p=4), 0.2, 3.0, 5)[0]
        back = DataMatrix.from_csv(out / "train.csv", "y")
        assert back.columns == train.columns
        assert back.values.tobytes() == train.values.tobytes()

    def test_writes_the_shared_replicate_data(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--output-dir", str(out), "--seed", "11",
                     "--n", "30", "--p", "6", "--e", "0.1",
                     "--gamma", "5"]) == 0
        train, mask, X_test, y_test = replicate_data(SimDesign(n=30, p=6),
                                                     0.1, 5.0, 11)
        train.to_csv(tmp_path / "train.csv")
        DataMatrix.from_arrays(y_test, X_test).to_csv(tmp_path / "test.csv")
        for name in ("train.csv", "test.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
        mask_rows = (out / "mask.csv").read_text().splitlines()[1:]
        assert mask_rows == [f"{i + 1},x{j + 1}" for i, j in np.argwhere(mask)]

    def test_env_twins_and_flag_priority(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GRALASSO_OUTPUT_DIR", "from_env")
        monkeypatch.setenv("GRALASSO_N", "30")
        monkeypatch.setenv("GRALASSO_P", "7")
        monkeypatch.setenv("GRALASSO_E", "0")
        assert main(["simulate", "--p", "4"]) == 0
        truth = json.loads((tmp_path / "from_env" / "truth.json").read_text())
        assert (truth["n"], truth["p"], truth["e"]) == (30, 4, 0.0)
        assert truth["contaminated_cells"] == 0

    def test_invalid_design_is_usage_error(self, tmp_path):
        assert main(["simulate", "--output-dir", str(tmp_path / "x"),
                     "--rho", "1.5"]) == 2


class TestBenchmark:
    def test_one_cell_bookkeeping(self, tmp_path):
        out = tmp_path / "bench"
        assert main(["benchmark", "--output-dir", str(out), "--n", "60",
                     "--p", "5", "--e-list", "0.05", "--gamma-list", "6",
                     "--replicates", "5", "--methods", "gr-alasso,lasso",
                     "--seed", "2"]) == 0
        records = (out / "records.csv").read_text().splitlines()
        data_rows = [r for r in records if not r.startswith("#")][1:]
        assert len(data_rows) == 10
        agg = [r for r in (out / "aggregate.csv").read_text().splitlines()
               if not r.startswith("#")]
        assert agg[0].startswith("e,gamma,method,n_ok")
        assert len(agg) == 3

    def test_aggregate_rerun_is_byte_identical(self, tmp_path):
        args = ["benchmark", "--n", "60", "--p", "5", "--e-list", "0.02",
                "--gamma-list", "4", "--replicates", "3", "--methods",
                "gr-alasso", "--seed", "5"]
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        assert main(args + ["--output-dir", str(out1)]) == 0
        assert main(args + ["--output-dir", str(out2)]) == 0
        assert (out1 / "aggregate.csv").read_bytes() == \
            (out2 / "aggregate.csv").read_bytes()

    def test_external_csv_merges_into_aggregate(self, tmp_path):
        ext = tmp_path / "external.csv"
        ext.write_text(
            "e,gamma,replicate,method,tpr,fpr,mse_beta,mspe,runtime_ms,status\n"
            "0.02,4,0,rlars,0.9,0.1,0.2,2,50,ok\n"
            "0.02,4,1,rlars,1.0,0.0,0.1,1.5,55,ok\n")
        out = tmp_path / "bench"
        assert main(["benchmark", "--output-dir", str(out), "--n", "60",
                     "--p", "5", "--e-list", "0.02", "--gamma-list", "4",
                     "--replicates", "2", "--methods", "gr-alasso",
                     "--external-csv", str(ext), "--seed", "1"]) == 0
        agg = (out / "aggregate.csv").read_text()
        assert "rlars" in agg and "gr-alasso" in agg

    @pytest.mark.parametrize("header, message", [
        (None, "No such file or directory"),
        ("e,gamma,method\n", "unexpected records header"),
        ("e,gamma,replicate,method,tpr,fpr,mse_beta,mspe,runtime_ms,status\n"
         "0.02,4,0.0,rlars,0.9,0.1,0.2,2,50,ok\n", "bad replicate '0.0'")],
        ids=["missing", "bad-header", "bad-cell"])
    def test_external_csv_is_read_before_the_grid(self, tmp_path, capsys,
                                                  monkeypatch, header,
                                                  message):
        def no_grid(*args, **kwargs):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(cli, "run_grid", no_grid)
        ext = tmp_path / "external.csv"
        if header is not None:
            ext.write_text(header)
        out = tmp_path / "bench"
        assert main(["benchmark", "--output-dir", str(out), "--replicates",
                     "1", "--external-csv", str(ext)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_env_twins_and_flag_priority(self, tmp_path, monkeypatch):
        for name, value in {"N": "50", "P": "4", "E_LIST": "0.05",
                            "GAMMA_LIST": "6,8", "REPLICATES": "3",
                            "METHODS": "gr-alasso,lasso", "SEED": "4"}.items():
            monkeypatch.setenv("GRALASSO_" + name, value)
        out = tmp_path / "bench"
        assert main(["benchmark", "--output-dir", str(out),
                     "--replicates", "1", "--methods", "gr-alasso"]) == 0
        records = read_records_csv(out / "records.csv")
        assert [(r.e, r.gamma, r.method) for r in records] == [
            (0.05, 6.0, "gr-alasso"), (0.05, 8.0, "gr-alasso")]
        header = (out / "records.csv").read_text().splitlines()
        for line in ("# seed=4", "# n=50", "# p=4", "# replicates=1"):
            assert line in header

    @pytest.mark.parametrize("flag", ["--e-list", "--gamma-list"])
    def test_empty_grid_is_usage_error(self, tmp_path, capsys, flag):
        out = tmp_path / "bench"
        assert main(["benchmark", "--output-dir", str(out), flag, ""]) == 2
        assert "must be nonempty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, name", [
        ("--e-list", "0.05,0.05", "e_list"),
        ("--gamma-list", "4,4", "gamma_list"),
        ("--methods", "gr-alasso,lasso,lasso", "methods")])
    def test_repeated_grid_value_is_usage_error(self, tmp_path, capsys, flag,
                                                value, name):
        out = tmp_path / "bench"
        assert main(["benchmark", "--output-dir", str(out), "--replicates",
                     "1", flag, value]) == 2
        assert f"{name} repeats a value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value, message", [
        ("inf", "magnitude must be nonnegative and finite, got inf"),
        ("nan", "magnitude must be nonnegative and finite, got nan"),
        ("1e308", "magnitude 1e+308 is too large for a replicate seed")])
    def test_unusable_magnitude_is_usage_error(self, tmp_path, capsys, value,
                                               message):
        out = tmp_path / "bench"
        assert main(["benchmark", "--output-dir", str(out), "--replicates",
                     "1", "--gamma-list", f"2,{value}"]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_too_few_rows_is_a_usage_error(self, tmp_path, capsys):
        # checked before any replicate, so no fit runs and nothing is written
        out = tmp_path / "bench"
        assert main(["benchmark", "--output-dir", str(out), "--n", "5",
                     "--p", "3", "--replicates", "1"]) == 2
        assert "need at least 10 observations, got 5" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_are_a_usage_error(self, tmp_path, capsys,
                                                 threads):
        out = tmp_path / "bench"
        assert main(["benchmark", "--output-dir", str(out), "--threads",
                     threads]) == 2
        assert "threads must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_flag_matches_serial_aggregate(self, tmp_path):
        base = ["benchmark", "--n", "60", "--p", "5", "--e-list", "0.05",
                "--gamma-list", "8", "--replicates", "4", "--methods",
                "gr-alasso", "--seed", "3"]
        s, par = tmp_path / "serial", tmp_path / "parallel"
        assert main(base + ["--output-dir", str(s), "--threads", "1"]) == 0
        assert main(base + ["--output-dir", str(par), "--threads", "2"]) == 0
        assert (s / "aggregate.csv").read_bytes() == \
            (par / "aggregate.csv").read_bytes()


# outliers of magnitude 1e200 overflow the Pearson column summaries
# ("non-finite summary"), so two of the three methods fail every replicate
_FAILING_BENCHMARK = ["benchmark", "--n", "20", "--p", "3", "--replicates",
                      "2", "--e-list", "0.5", "--gamma-list", "1e200"]


class TestFailingBenchmark:
    def test_records_aggregate_and_exit_code(self, tmp_path, capsys,
                                             monkeypatch):
        # the Gaussian-rank summaries fail as well, so every fit fails
        def summaries(Z, estimator="gr"):
            raise ValueError("no summaries")

        monkeypatch.setattr(regression, "column_summaries", summaries)
        out = tmp_path / "bench"
        assert main(_FAILING_BENCHMARK + ["--output-dir", str(out)]) == 3
        assert "more than 10% of replicate fits failed" in \
            capsys.readouterr().err
        # the NaN rows read back through the records parser
        records = read_records_csv(out / "records.csv")
        assert [(r.replicate, r.method) for r in records] == [
            (r, m) for r in (0, 1) for m in ("gr-alasso", "alasso", "lasso")]
        for rec in records:
            assert rec.status == "failed:ValueError"
            assert np.isnan([rec.tpr, rec.fpr, rec.mse_beta, rec.mspe]).all()
            assert rec.runtime_ms >= 0.0
        rows = list(csv.DictReader(
            line for line in (out / "aggregate.csv").read_text().splitlines()
            if not line.startswith("#")))
        assert [row["method"] for row in rows] == ["alasso", "gr-alasso",
                                                   "lasso"]
        for row in rows:
            assert row["n_ok"] == "0"
            assert all(row[f] == "nan" for f in row
                       if f.endswith(("_mean", "_se")))


class TestDefaults:
    def test_defaults_are_the_library_defaults(self):
        parser = build_parser()
        fit = parser.parse_args(["fit", "--input", "data.csv"])
        fit_defaults = inspect.signature(fit_gr_alasso).parameters
        for name in ("estimator", "weights", "kappa", "folds", "n_lambda",
                     "lambda_ratio", "rule", "seed", "fixed_lambda"):
            assert getattr(fit, name) == fit_defaults[name].default, name
        grid_defaults = inspect.signature(run_grid).parameters
        design = SimDesign()
        for command in ("simulate", "benchmark"):
            args = parser.parse_args([command])
            assert (args.n, args.p, args.rho, args.noise_sd) == (
                design.n, design.p, design.ar1_rho, design.noise_sd)
            assert args.seed == grid_defaults["seed0"].default
        bench = parser.parse_args(["benchmark"])
        assert bench.replicates == grid_defaults["replicates"].default
        assert bench.threads == grid_defaults["threads"].default


def _child_env():
    """The environment of a child that imports the same package as this
    process, installed or not."""
    src = os.path.dirname(os.path.dirname(gralasso.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _run_module(*args):
    return subprocess.run([sys.executable, "-m", "gralasso.cli", *args],
                          capture_output=True, text=True, env=_child_env())


# prints the top-level modules outside the standard library that are
# loaded once `run` ran; `__main__` and its multiprocessing alias
# `__mp_main__` are no imports
_MODULES_AFTER = """
import json, runpy, sys
{run}
std = set(sys.stdlib_module_names) | set(sys.builtin_module_names)
top = {{m.partition(".")[0] for m in sys.modules if not m.startswith("__")}}
print(json.dumps(sorted(top - std)))
"""


def _third_party_modules(run):
    proc = subprocess.run([sys.executable, "-c", _MODULES_AFTER.format(
        run=run)], capture_output=True, text=True, env=_child_env(),
        check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        """`python -m gralasso.cli` exits with the documented codes."""
        sim = tmp_path / "sim"
        proc = _run_module("simulate", "--n", "60", "--p", "5",
                           "--output-dir", str(sim))
        assert proc.returncode == 0, proc.stderr
        train = str(sim / "train.csv")
        out = tmp_path / "out"
        proc = _run_module("fit", "--input", train, "--response", "y",
                           "--output-dir", str(out), "--seed", "0")
        assert proc.returncode == 0, proc.stderr
        assert (out / "fit.json").exists()
        proc = _run_module("fit", "--input", train, "--response", "nope",
                           "--output-dir", str(tmp_path / "bad"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        proc = _run_module(*_FAILING_BENCHMARK, "--output-dir",
                           str(tmp_path / "bench"))
        assert proc.returncode == 3

    def test_runtime_imports_numpy_only(self, tmp_path):
        """A CLI run loads no third-party module beyond those that importing
        numpy loads itself."""
        path, _, _ = _fixture_csv(tmp_path, seed=13)
        argv = ["gralasso", "fit", "--input", str(path), "--output-dir",
                str(tmp_path / "out")]
        run = (f"sys.argv = {argv!r}\n"
               "try:\n"
               "    runpy.run_module('gralasso.cli', run_name='__main__')\n"
               "except SystemExit as exc:\n"
               "    assert exc.code == 0, exc.code")
        baseline = _third_party_modules("import numpy, numpy.random")
        assert "numpy" in baseline
        assert _third_party_modules(run) - baseline == {"gralasso"}

    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
