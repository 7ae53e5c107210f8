import csv
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gralasso import data
from gralasso.data import DataMatrix, format_float


def _toy(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8", newline="")
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


@pytest.mark.parametrize("call, message", [
    (lambda tmp: DataMatrix.from_arrays(np.ones(3), np.ones(3)),
     "X must be 2-D with one row per response entry"),
    (lambda tmp: DataMatrix.from_arrays(np.ones(3), np.ones((2, 2))),
     "X must be 2-D with one row per response entry"),
    (lambda tmp: DataMatrix.from_csv(
        _toy(tmp, "a" * (csv.field_size_limit() + 1) + ",y\n1,2\n"), "y"),
     "unreadable header: field larger than field limit"),
    (lambda tmp: DataMatrix(np.ones(3), ("y", "a", "b")),
     "expected a 2-D data table"),
    (lambda tmp: data.as_table(np.ones((2, 2, 2))),
     "expected a 2-D data table"),
    (lambda tmp: DataMatrix(np.ones((2, 3)), ("y", "a")),
     "2 column names for 3 columns"),
], ids=["from-arrays-1d", "from-arrays-rows", "header", "table-1d",
        "table-3d", "name-count"])
def test_errors_are_named(tmp_path, call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(tmp_path)


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
        for text in ("y,a\n", "y,a\n\n\n  \n"):
            with pytest.raises(ValueError, match="empty input"):
                DataMatrix.from_csv(_toy(tmp_path, text), "y")

    def test_blank_lines_skipped(self, tmp_path):
        path = _toy(tmp_path, "y,a\n1,2\n\n  \n\t\n \t \r\n3,4\n")
        Z = DataMatrix.from_csv(path, "y")
        assert np.array_equal(Z.values, [[1, 2], [3, 4]])

    def test_quoted_numeric_cells(self, tmp_path):
        path = _toy(tmp_path, 'y,a\n"1.5",2\n3,"-4e-1"\n')
        Z = DataMatrix.from_csv(path, "y")
        assert np.array_equal(Z.values, [[1.5, 2], [3, -0.4]])

    @pytest.mark.parametrize("text", [
        "y,a\r1,2\r3,4\r",
        "y,a\r\n1,2\r\n3,4",
        "y,a\r1,2\n3,4\n",
        "y,a\n1,2\r3,4\n",
        "y,a\n\r1,2\r\r\n3,4\n",
    ], ids=["lone-cr", "crlf-no-final-eol", "cr-header-lf-body",
            "cr-inside-lf-body", "cr-blank-lines"])
    def test_line_endings(self, tmp_path, text):
        Z = DataMatrix.from_csv(_toy(tmp_path, text), "y")
        assert np.array_equal(Z.values, [[1, 2], [3, 4]])

    def test_non_ascii_header_over_numeric_body(self, tmp_path):
        path = _toy(tmp_path, "\u00e9t\u00e9,y\n1,2\n3,4\n")
        Z = DataMatrix.from_csv(path, "y")
        assert Z.columns == ("y", "\u00e9t\u00e9")
        assert np.array_equal(Z.values, [[2, 1], [4, 3]])

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_quoted_header_spanning_lines(self, tmp_path, newline):
        path = _toy(tmp_path, f'"a{newline}b",y\n1,2\n3,4\n')
        Z = DataMatrix.from_csv(path, "y")
        assert Z.columns == ("y", f"a{newline}b")
        assert np.array_equal(Z.values, [[2, 1], [4, 3]])

    def test_cell_longer_than_the_field_limit(self, tmp_path):
        # all but the last digit are zeros, so the cell reads as 1.0
        cell = "0" * csv.field_size_limit() + "1"
        path = _toy(tmp_path, f"y,a\n1,2\n3,{cell}\n5,6\n")
        with pytest.raises(ValueError, match=r"^unreadable row 2: field larger"):
            DataMatrix.from_csv(path, "y")

    def test_table_is_fortran_ordered(self, tmp_path):
        path = _toy(tmp_path, "a,y\n1,2\n3,4\n5,6\n")
        Z = DataMatrix.from_csv(path, "y")
        assert Z.values.flags.f_contiguous and not Z.values.flags.c_contiguous


_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(format_float),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
)
_SPECIAL = st.sampled_from([
    "nan", "-NaN", "inf", "+Infinity", "-iNf", "1e400", "-1e400", "1e-400",
    "-0", ".5", "5.", "+1", " 1 ", "\t2", "1e", "e5", "", "-", "--1",
    "0x10", "1d5", "1 2", "infinit",
])
# bytes outside the plain set that csv, float() or loadtxt treat specially
_DIRT = st.text("\x0b\x0c\x1c\x1d\x1e\x1f#'\"_\u0661\uff11\u00a0 \t",
                min_size=1, max_size=2)


@st.composite
def _csv_texts(draw):
    """A y,a[,b] header over one to six rows of finite, special or dirtied
    cells, maybe ragged, with whole cells maybe quoted (every cell or some,
    a few holding a line end), with CR, LF or CRLF ends (one kind per file
    or mixed) and blank lines."""
    width = draw(st.integers(2, 3))
    cell = _FINITE if draw(st.booleans()) else st.one_of(_FINITE, _SPECIAL)
    rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width),
                         min_size=1, max_size=6))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        row = draw(st.sampled_from(rows))
        j = draw(st.integers(0, width - 1))
        if draw(st.booleans()):
            row[j] = draw(_DIRT) + row[j]
        else:
            row[j] = row[j] + draw(_DIRT)
    if draw(st.integers(0, 3)) == 3:
        row = draw(st.sampled_from(rows))
        if draw(st.booleans()):
            row.append(draw(cell))
        else:
            row.pop()
    quoting = draw(st.sampled_from(["none", "all", "some"]))
    for row in rows:
        for j, value in enumerate(row):
            if quoting == "all" or quoting == "some" and draw(st.booleans()):
                head, tail = draw(st.sampled_from(
                    [("", "")] * 4 + [("", "\n"), ("\r\n", ""), (" ", "\r")]))
                row[j] = f'"{head}{value}{tail}"'
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", " ", "\t ", "   ", "\t \t",
                                           ","])))
    end = st.sampled_from(["\n", "\r\n", "\r"])
    if draw(st.booleans()):
        end = st.just(draw(end))
    ends = draw(st.lists(end, min_size=len(lines) + 1,
                         max_size=len(lines) + 1))
    text = "".join(line + end for line, end in
                   zip([",".join("yab"[:width]), *lines], ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _read(path):
    """Columns, shape, bits and layout of from_csv, or its error text."""
    try:
        Z = DataMatrix.from_csv(path, "y")
    except ValueError as exc:
        return str(exc)
    return (Z.columns, Z.values.shape, Z.values.tobytes(),
            Z.values.flags.f_contiguous)


class TestBulkParse:
    @settings(max_examples=400,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_csv_texts())
    def test_matches_the_checked_parser(self, tmp_path, text):
        path = _toy(tmp_path, text)
        with mock.patch.object(data, "_bulk_rows", return_value=None):
            expected = _read(path)
        assert _read(path) == expected

    def test_plain_body_skips_the_checked_parser(self, tmp_path):
        path = _toy(tmp_path, '"a\nb",y\r\n1.5,-2e-3\r\n\r\n 3\t,4\r\n')
        with mock.patch.object(data, "_checked_rows",
                               side_effect=AssertionError):
            Z = DataMatrix.from_csv(path, "y")
        assert Z.columns == ("y", "a\nb")
        assert np.array_equal(Z.values, [[-2e-3, 1.5], [4, 3]])

    @pytest.mark.parametrize("text", ["y,a\n1,2\n   \n3,4",
                                      "y,a\r\n1,2\r\n \t\r\n3,4",
                                      "y,a\n \n1,2\n\t\n3,4\n  "])
    def test_whitespace_lines_stay_on_the_bulk_pass(self, tmp_path, text):
        path = _toy(tmp_path, text)
        with mock.patch.object(data, "_checked_rows",
                               side_effect=AssertionError):
            Z = DataMatrix.from_csv(path, "y")
        assert np.array_equal(Z.values, [[1, 2], [3, 4]])

    @pytest.mark.parametrize("text", [
        'y,a\n1,"2"\n', 'y,a\r\n"1","2"\r\n"3",4\r\n',
        'y,a\n" 1 ","2"\n"3","\t4"\n', 'y,a\n"-0","2"\n"3" ,"4e0"\n',
    ], ids=["quoted", "quoted-crlf", "quoted-spaces", "quoted-signed-zero"])
    def test_quoted_cells_take_the_bulk_pass(self, tmp_path, text):
        path = _toy(tmp_path, text)
        with mock.patch.object(data, "_bulk_rows", return_value=None):
            expected = _read(path)
        assert isinstance(expected, tuple)
        with mock.patch.object(data, "_checked_rows",
                               side_effect=AssertionError):
            assert _read(path) == expected

    @pytest.mark.parametrize("text", [
        "y,a\r1,2\r3,4\r", "y,a\r1,2\n3,4\n", "y,a\n1,2\r3,4\n",
        'y,a\r\n1,"2"\r \t\r\r"3" ,4', '"a\rb",y\r1,2\r\n3,4',
    ], ids=["lone-cr", "cr-header", "cr-inside-lf-body", "cr-mixed-quoted",
            "cr-in-quoted-header"])
    def test_lone_cr_line_ends_take_the_bulk_pass(self, tmp_path, text):
        path = _toy(tmp_path, text)
        with mock.patch.object(data, "_bulk_rows", return_value=None):
            expected = _read(path)
        assert isinstance(expected, tuple) and expected[1] == (2, 2)
        with mock.patch.object(data, "_checked_rows",
                               side_effect=AssertionError):
            assert _read(path) == expected

    @pytest.mark.parametrize("text, message", [
        # the third row's bad cell would be named if row 1 were read as 12
        ('y,a\n"1"2,3\n4,5\n_10,6\n', "row 1: ',' expected after '\"'"),
        ('y,a\n1,2\n"1"e3,3\n', "row 2: ',' expected after '\"'"),
        ('y,a\n1,2\n3,"4\n', "row 2: unexpected end of data"),
    ], ids=["digit-after-quote", "exponent-after-quote", "unclosed-quote"])
    def test_quoted_cells_end_at_their_closing_quote(self, tmp_path, text,
                                                     message):
        path = _toy(tmp_path, text)
        with mock.patch.object(data, "_checked_rows",
                               side_effect=AssertionError):
            with pytest.raises(AssertionError):  # the bulk pass declines
                DataMatrix.from_csv(path, "y")
        with mock.patch.object(data, "_bulk_rows", return_value=None):
            with pytest.raises(ValueError, match=re.escape(message)):
                DataMatrix.from_csv(path, "y")
        assert _read(path) == f"unreadable {message}"

    @pytest.mark.parametrize("text", [
        "y,a\n1,\x1c3\n", "y,a\n1,3\x1f\n", "y,a\n1,2#3\n", "y,a\n1,inf\n",
        "y,a\n1,2,3\n", "y,a\n1\n", "y,a\n",
        "y,a\n1,2\n" + "0" * csv.field_size_limit() + "1,2\n",
        # a quoted line end: the row spans lines, and csv numbers the rows
        'y,a\n"1\n",2\n', 'y,a\r"1\r",2\r', 'y,a\n"1,2",3\n',
        'y,a\n1,"nan"\n',
    ], ids=["leading-fs", "trailing-us", "hash", "inf", "wide", "narrow",
            "no-rows", "long-line", "quoted-lf", "quoted-cr", "quoted-comma",
            "quoted-nan"])
    def test_declines_what_it_must_not_read(self, tmp_path, text):
        assert data._bulk_rows(_toy(tmp_path, text), 1, 2) is None
