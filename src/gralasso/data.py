"""Numeric data table shared by the estimators, the simulator and the CLI.

A DataMatrix is an n x (p+1) array of finite floats with named columns and
the response stored in column 0. CSV ingestion reorders the user's columns
so that downstream partition extraction never needs an index argument.
"""

import csv
import math
import string
from dataclasses import dataclass

import numpy as np

__all__ = ["DataMatrix", "as_table", "format_float"]


def format_float(value) -> str:
    """17 significant digits, which round-trip any IEEE double exactly."""
    return "{:.17g}".format(value)


@dataclass(frozen=True)
class DataMatrix:
    values: np.ndarray
    columns: tuple

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2:
            raise ValueError("values must be a 2-D array")
        if arr.shape[0] < 1:
            raise ValueError("empty input")
        if arr.shape[1] < 2:
            raise ValueError("need a response column and at least one predictor")
        cols = tuple(str(c) for c in self.columns)
        if len(cols) != arr.shape[1]:
            raise ValueError(
                f"{len(cols)} column names for {arr.shape[1]} columns"
            )
        if len(set(cols)) != len(cols):
            raise ValueError("column names must be unique")
        bad = np.argwhere(~np.isfinite(arr))
        if bad.size:
            i, j = bad[0]
            raise ValueError(
                f"non-finite value at row {i + 1}, column {cols[j]!r}"
            )
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
        column. Rows stream into one float64 buffer as they are checked.
        """
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError("empty input") from None
            except csv.Error as exc:
                raise ValueError(f"unreadable header: {exc}") from None
            header = [h.strip() for h in header]
            if response not in header:
                raise ValueError(f"response column {response!r} not in header")
            arr = np.fromiter(_checked_rows(reader, header),
                              dtype=np.dtype((float, (len(header),))))
        if arr.shape[0] == 0:
            raise ValueError("empty input")
        ridx = header.index(response)
        order = [ridx] + [j for j in range(len(header)) if j != ridx]
        return cls(arr[:, order], tuple(header[j] for j in order))

    def to_csv(self, path):
        """Write response-first CSV; floats at 17 significant digits so a
        write-then-read round trip is bit-identical."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for row in self.values:
                writer.writerow([format_float(v) for v in row])


def _checked_rows(reader, header):
    """The non-blank rows as tuples of finite floats. A row that fails the
    bulk parse (wrong cell count, or a cell that is not a plain ASCII
    decimal number, which Python's float() alone does not require) or holds
    a non-finite value goes to _reject_row for its diagnostic."""
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
    floats, whose columns are named col0, col1, ..."""
    if isinstance(Z, DataMatrix):
        return Z.values, Z.columns
    values = np.asarray(Z, dtype=float)
    if values.ndim != 2:
        raise ValueError("expected a 2-D data table")
    if not np.all(np.isfinite(values)):
        raise ValueError("data contains non-finite values")
    return values, tuple(f"col{j}" for j in range(values.shape[1]))
