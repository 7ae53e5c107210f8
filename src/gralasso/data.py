"""Numeric data table shared by the estimators, the simulator and the CLI.

A DataMatrix is an n x (p+1) column-major array of finite floats with named
columns and the response stored in column 0. CSV ingestion reorders the
user's columns so that downstream partition extraction never needs an index
argument.
"""

import csv
import math
import re
import string
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["DataMatrix", "as_table", "format_float", "write_csv"]


def format_float(value) -> str:
    """17 significant digits, which round-trip any IEEE double exactly."""
    return "{:.17g}".format(value)


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_float(float(value))


def write_csv(path, fields, rows, metadata=None):
    """LF-terminated CSV of strings, integers and floats, after '# key=value'
    metadata lines; a cell is quoted only where CSV needs it (`a,b`)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows([_format_cell(v) for v in row] for row in rows)


@dataclass(frozen=True)
class DataMatrix:
    values: np.ndarray
    columns: tuple

    def __post_init__(self):
        arr, cols = _table(self.values, tuple(str(c) for c in self.columns))
        if arr.shape[0] < 1:
            raise ValueError("empty input")
        if arr.shape[1] < 2:
            raise ValueError("need a response column and at least one predictor")
        if len(set(cols)) != len(cols):
            raise ValueError("column names must be unique")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "columns", cols)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1] - 1

    @property
    def response_name(self) -> str:
        return self.columns[0]

    @property
    def predictor_names(self) -> tuple:
        return self.columns[1:]

    @property
    def y(self) -> np.ndarray:
        return self.values[:, 0]

    @property
    def X(self) -> np.ndarray:
        return self.values[:, 1:]

    @classmethod
    def from_arrays(cls, y, X, predictor_names=None, response_name="y"):
        y = np.asarray(y, dtype=float).ravel()
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] != y.size:
            raise ValueError("X must be 2-D with one row per response entry")
        if predictor_names is None:
            predictor_names = [f"x{j + 1}" for j in range(X.shape[1])]
        cols = (response_name, *predictor_names)
        return cls(np.column_stack([y, X]), cols)

    @classmethod
    def from_csv(cls, path, response):
        """Read a headered CSV, putting `response` first.

        Every cell must be a finite float written in ASCII; the error message
        names the first offending row (1-based, excluding the header) and
        column. LF, CRLF and lone-CR line ends read alike, and a leading
        UTF-8 byte-order mark is skipped. A body of plain number lines is
        parsed in one np.loadtxt pass over the whole file (_bulk_rows); any
        other body streams through the checked parser (_checked_rows), which
        reads the same numbers and names the first bad cell.
        """
        with open(path, newline="", encoding="utf-8-sig") as fh:
            # strict: text after a cell's closing quote is an error, not
            # part of the cell ("1"2 is not 12)
            reader = csv.reader(map(_trim_after_quotes, fh), strict=True)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError("empty input") from None
            except csv.Error as exc:
                raise ValueError(f"unreadable header: {exc}") from None
            header = [h.strip() for h in header]
            if response not in header:
                raise ValueError(f"response column {response!r} not in header")
            arr = _bulk_rows(path, reader.line_num, len(header))
            if arr is None:
                arr = np.fromiter(_checked_rows(reader, header),
                                  dtype=np.dtype((float, (len(header),))))
        ridx = header.index(response)
        order = [ridx] + [j for j in range(len(header)) if j != ridx]
        return cls(arr[:, order], tuple(header[j] for j in order))

    def to_csv(self, path):
        """Write response-first CSV; floats at 17 significant digits so a
        write-then-read round trip is bit-identical."""
        write_csv(path, self.columns, self.values)


# the bytes of a line of decimal, nan and inf cells, quoted or not
_PLAIN = b"0123456789.+-eEnNaAiIfFtTyY \t,\""
# a cell quoted whole, maybe with spaces or tabs after its closing quote
_QUOTED_CELL = re.compile(rb'"[^"]*"[ \t]*')
# spaces or tabs between a quote and a delimiter or line end
_SPACE_AFTER_QUOTE = re.compile(r'"[ \t]+(?=[,\r\n]|$)')


def _trim_after_quotes(line):
    """`line` without the spaces and tabs after a closing quote, which
    float() would ignore inside the cell and csv's strict dialect rejects
    outside it."""
    return _SPACE_AFTER_QUOTE.sub('"', line) if '"' in line else line


def _bulk_rows(path, skip, width):
    """The rows after the first `skip` lines of the file at `path`, parsed
    in one np.loadtxt pass as a float table `width` cells wide, or None
    where _checked_rows must decide. The file is split once, at LF, CRLF
    and lone CR line ends as csv splits it. The pass declines a line of
    other bytes ('_', '#', non-ASCII, control characters that loadtxt
    strips as space), with a quote that does not enclose a whole cell
    (spaces and tabs may follow its closing quote; a quoted cell spanning
    lines does not) or longer than csv.field_size_limit(), a parse error
    or warning, no rows, a ragged or wrong width, or a non-finite cell.
    Whitespace-only lines are skipped, as _checked_rows skips them. On
    plain lines, cells quoted or not, loadtxt and float() read the same
    grammar to the same bits."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    del lines[:skip]
    limit = csv.field_size_limit()
    for line in lines:
        if len(line) > limit or line.translate(None, _PLAIN):
            return None
        # a quote must open a cell and close it before the cell ends;
        # loadtxt would read "1"2 as 12
        if b'"' in line and not all(
                b'"' not in cell or _QUOTED_CELL.fullmatch(cell)
                for cell in line.split(b",")):
            return None
    lines = [line for line in lines if line.strip()]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            arr = np.loadtxt(lines, delimiter=",", comments=None, quotechar='"',
                             ndmin=2, dtype=float, encoding="ascii")
        except ValueError:
            return None
    if (caught or not 0 < arr.shape[0] == len(lines) or arr.shape[1] != width
            or not np.isfinite(arr).all()):
        return None
    return arr


def _checked_rows(reader, header):
    """The checked parser: the non-blank rows as tuples of finite floats.
    A row with the wrong cell count, a cell that is not a plain ASCII
    decimal number (which Python's float() alone does not require) or a
    non-finite value goes to _reject_row for its diagnostic."""
    i = 0
    try:
        for i, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and row[0].strip() == ""):
                continue
            joined = "".join(row)
            if len(row) == len(header) and joined.isascii() and "_" not in joined:
                try:
                    values = tuple(map(float, row))
                except ValueError:
                    _reject_row(i, row, header)
                # nan and inf propagate through the sum, so a finite sum
                # proves every cell finite; only an overflow needs the cells
                if math.isfinite(sum(values)) or all(map(math.isfinite, values)):
                    yield values
                    continue
            _reject_row(i, row, header)
    except csv.Error as exc:
        # e.g. a cell longer than csv.field_size_limit()
        raise ValueError(f"unreadable row {i + 1}: {exc}") from None


def _reject_row(i, row, header):
    """Raise the diagnostic for the first bad cell of row i."""
    if len(row) != len(header):
        raise ValueError(f"row {i} has {len(row)} cells, expected {len(header)}")
    for name, cell in zip(header, row):
        try:
            if "_" in cell or not cell.isascii():
                raise ValueError
            val = float(cell)
        except ValueError:
            raise ValueError(
                f"non-numeric value {cell.strip(string.whitespace)!r} "
                f"at row {i}, column {name!r}"
            ) from None
        if not math.isfinite(val):
            raise ValueError(f"non-finite value at row {i}, column {name!r}")


def as_table(Z):
    """(values, column names) of a DataMatrix or of a 2-D array of finite
    floats, whose columns are named col0, col1, ... The values are
    column-major float64, as every table in the package is."""
    if isinstance(Z, DataMatrix):
        return Z.values, Z.columns
    return _table(Z)


def _table(values, names=None):
    """(`values` as column-major float64, copied only where it is not so
    already; its column names). A table that is not 2-D, has the wrong
    number of names or holds a non-finite value raises; the last names the
    row (1-based) and column of the first non-finite value."""
    arr = np.asfortranarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D data table")
    if names is None:
        names = tuple(f"col{j}" for j in range(arr.shape[1]))
    if len(names) != arr.shape[1]:
        raise ValueError(f"{len(names)} column names for {arr.shape[1]} columns")
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"non-finite value at row {i + 1}, column {names[j]!r}")
    return arr, names
