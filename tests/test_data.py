import re

import numpy as np
import pytest

from gralasso.data import DataMatrix


def _toy(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestConstruction:
    def test_from_arrays_defaults(self):
        Z = DataMatrix.from_arrays([1.0, 2.0], [[3.0, 4.0], [5.0, 6.0]])
        assert Z.columns == ("y", "x1", "x2")
        assert Z.n == 2 and Z.p == 2
        assert np.array_equal(Z.y, [1.0, 2.0])
        assert np.array_equal(Z.X, [[3.0, 4.0], [5.0, 6.0]])

    def test_rejects_nan_with_location(self):
        with pytest.raises(ValueError, match="row 2, column 'x1'"):
            DataMatrix(np.array([[1.0, 1.0], [2.0, np.nan]]), ("y", "x1"))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            DataMatrix(np.ones((3, 2)), ("y", "y"))

    def test_rejects_single_column(self):
        with pytest.raises(ValueError, match="predictor"):
            DataMatrix(np.ones((3, 1)), ("y",))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty input"):
            DataMatrix(np.empty((0, 2)), ("y", "x"))


class TestCsv:
    def test_reorders_response_first(self, tmp_path):
        path = _toy(tmp_path, "a,b,y\n1,2,3\n4,5,6\n")
        Z = DataMatrix.from_csv(path, "y")
        assert Z.columns == ("y", "a", "b")
        assert np.array_equal(Z.values, [[3, 1, 2], [6, 4, 5]])

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        Z = DataMatrix.from_arrays(rng.standard_normal(20),
                                   rng.standard_normal((20, 3)) / 3.0)
        out = tmp_path / "out.csv"
        Z.to_csv(out)
        back = DataMatrix.from_csv(out, "y")
        assert back.columns == Z.columns
        assert np.array_equal(back.values, Z.values)

    def test_missing_response(self, tmp_path):
        path = _toy(tmp_path, "a,b\n1,2\n")
        with pytest.raises(ValueError, match="response column 'y'"):
            DataMatrix.from_csv(path, "y")

    def test_non_numeric_cell_diagnostic(self, tmp_path):
        path = _toy(tmp_path, "y,a\n1,2\n3,oops\n")
        with pytest.raises(ValueError, match="'oops' at row 2, column 'a'"):
            DataMatrix.from_csv(path, "y")

    def test_digit_group_underscore_rejected(self, tmp_path):
        path = _toy(tmp_path, "y,a\n1,2\n3,1_000\n")
        with pytest.raises(ValueError, match="'1_000' at row 2, column 'a'"):
            DataMatrix.from_csv(path, "y")

    @pytest.mark.parametrize("cell", ["\u0661\u0660", "\uff11\uff10", "\u00a010"],
                             ids=["arabic-indic", "full-width", "no-break-space"])
    def test_non_ascii_numeral_rejected(self, tmp_path, cell):
        # Arabic-Indic and full-width digits, no-break-space padding:
        # float() alone reads each as 10.0
        path = _toy(tmp_path, f"y,a\n1,2\n3,{cell}\n")
        message = f"non-numeric value {cell!r} at row 2, column 'a'"
        with pytest.raises(ValueError, match=re.escape(message)):
            DataMatrix.from_csv(path, "y")

    def test_first_bad_cell_in_file_order_is_reported(self, tmp_path):
        path = _toy(tmp_path, "y,a\n1,inf\n\n3,oops\n")
        with pytest.raises(ValueError, match="non-finite value at row 1"):
            DataMatrix.from_csv(path, "y")
        path = _toy(tmp_path, "y,a\n1,2\n\n3,4\nnan,oops\n")
        with pytest.raises(ValueError, match="non-finite value at row 4, column 'y'"):
            DataMatrix.from_csv(path, "y")

    def test_finite_cells_whose_row_sum_overflows(self, tmp_path):
        path = _toy(tmp_path, "y,a\n1e308,1e308\n-1e308,-1e308\n")
        Z = DataMatrix.from_csv(path, "y")
        assert np.array_equal(Z.values, [[1e308, 1e308], [-1e308, -1e308]])

    def test_nan_cell_diagnostic(self, tmp_path):
        path = _toy(tmp_path, "y,a\n1,nan\n")
        with pytest.raises(ValueError, match="non-finite value at row 1"):
            DataMatrix.from_csv(path, "y")

    def test_ragged_row(self, tmp_path):
        path = _toy(tmp_path, "y,a\n1,2,3\n")
        with pytest.raises(ValueError, match="row 1 has 3 cells"):
            DataMatrix.from_csv(path, "y")

    def test_empty_file(self, tmp_path):
        path = _toy(tmp_path, "")
        with pytest.raises(ValueError, match="empty input"):
            DataMatrix.from_csv(path, "y")

    def test_header_only(self, tmp_path):
        path = _toy(tmp_path, "y,a\n")
        with pytest.raises(ValueError, match="empty input"):
            DataMatrix.from_csv(path, "y")

    def test_blank_lines_skipped(self, tmp_path):
        path = _toy(tmp_path, "y,a\n1,2\n\n3,4\n")
        Z = DataMatrix.from_csv(path, "y")
        assert Z.n == 2
