"""Quarterly series: quarter arithmetic; differencing, autocorrelation
functions and classical additive decomposition of plain 1-d float arrays;
the one quarterly CSV reader, which returns columns; and the columnar
units × quarters × variables frame that the national regressions and the
state panel share. A series knows no quarter: its first quarter travels
with it in a frame or beside it.

Missing values are NaN. A statistic takes a series without them. A series
file may leave its first and last cells of a column blank, but not a cell
between two numbers; its loader rejects such a column.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .exceptions import DegenerateInputError, EmptyPanelError, InvalidArgumentError, decode_utf8
from .record import Record
from .reporting import write_csv

MISSING = float("nan")
# The one unit of a national frame; a national signal frame joins onto it.
NATIONAL = "national"

SEASONAL_PERIOD = 4  # quarters per year


def quarter_index(year: int, quarter: int) -> int:
    """The index `year*4 + quarter - 1` of a quarter, consecutive across years."""
    return year * 4 + quarter - 1


class Quarter(Record):
    """A calendar quarter, totally ordered by (year, quarter). A pass builds
    thousands, so it has its own `__init__`; `>` is `<` reflected."""

    year: int
    quarter: int

    def __init__(self, year: int, quarter: int) -> None:
        if not isinstance(year, int) or not isinstance(quarter, int):
            raise InvalidArgumentError("year and quarter must be integers")
        if not 1 <= quarter <= 4:
            raise InvalidArgumentError(f"quarter must be in 1..4, got {quarter}")
        state = self.__dict__
        state["year"], state["quarter"] = year, quarter

    def __lt__(self, other):
        return (self.year, self.quarter) < (other.year, other.quarter) if other.__class__ is self.__class__ else NotImplemented

    def __le__(self, other):
        return (self.year, self.quarter) <= (other.year, other.quarter) if other.__class__ is self.__class__ else NotImplemented

    @classmethod
    def parse(cls, text: str) -> "Quarter":
        """Parse a '2007Q1'-style label."""
        parts = text.strip().upper().split("Q")
        if len(parts) != 2:
            raise InvalidArgumentError(f"cannot parse quarter label {text!r}")
        try:
            return cls(int(parts[0]), int(parts[1]))
        except ValueError as exc:
            raise InvalidArgumentError(f"cannot parse quarter label {text!r}") from exc

    @classmethod
    def from_index(cls, index: int) -> "Quarter":
        """The quarter whose `index` is `index`."""
        return cls(int(index) // 4, int(index) % 4 + 1)

    @property
    def index(self) -> int:
        return quarter_index(self.year, self.quarter)

    def __add__(self, n: int) -> "Quarter":
        return Quarter.from_index(self.index + n)

    def __sub__(self, other: "Quarter | int"):
        if isinstance(other, Quarter):
            return (self.year - other.year) * 4 + (self.quarter - other.quarter)
        return self + (-other)

    def __str__(self) -> str:
        return f"{self.year}Q{self.quarter}"


def difference(series: np.ndarray) -> np.ndarray:
    """The first difference: one value shorter, starting one quarter later."""
    if len(series) < 2:
        raise InvalidArgumentError(f"series length {len(series)} must exceed 1 to difference")
    return np.diff(series)


def _defined_values(series: np.ndarray) -> np.ndarray:
    """The series as a float array, which must have no missing value."""
    arr = np.asarray(series, dtype=float)
    if np.isnan(arr).any():
        raise InvalidArgumentError("series has missing values")
    return arr


def acf(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Sample autocorrelations for lags 0..max_lag (biased 1/n covariances)."""
    if max_lag < 1:
        raise InvalidArgumentError(f"max_lag must be >= 1, got {max_lag}")
    y = _defined_values(series)
    n = len(y)
    if n <= max_lag:
        raise InvalidArgumentError(f"series length {n} must exceed max_lag {max_lag}")
    dev = y - y.mean()
    denom = float(dev @ dev)
    if denom == 0.0:
        raise DegenerateInputError("series is constant")
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    for k in range(1, max_lag + 1):
        out[k] = float(dev[k:] @ dev[:-k]) / denom
    return out


def pacf(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Partial autocorrelations for lags 0..max_lag via Durbin-Levinson."""
    r = acf(series, max_lag)
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    phi_prev: list[float] = []
    for k in range(1, max_lag + 1):
        if k == 1:
            phi_kk = r[1]
            phi = [phi_kk]
        else:
            num = r[k] - sum(phi_prev[j] * r[k - 1 - j] for j in range(k - 1))
            den = 1.0 - sum(phi_prev[j] * r[j + 1] for j in range(k - 1))
            if den == 0.0:
                raise DegenerateInputError("Durbin-Levinson recursion is singular")
            phi_kk = num / den
            phi = [phi_prev[j] - phi_kk * phi_prev[k - 2 - j] for j in range(k - 1)]
            phi.append(phi_kk)
        out[k] = phi_kk
        phi_prev = phi
    return out


def decompose_additive(series: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classical moving-average decomposition into (trend, seasonal,
    irregular) over the year of SEASONAL_PERIOD quarters.

    The trend is the centred 2x4 moving average (half weights at the window
    ends), missing at the first and last two positions, as is the irregular
    component. The seasonal component is the re-centred mean of the
    detrended series per quarter, tiled over the full range.
    """
    period = SEASONAL_PERIOD
    y = _defined_values(series)
    n = len(y)
    if n < 2 * period:
        raise InvalidArgumentError(
            f"series length {n} must be at least 2*period = {2 * period}"
        )

    filt = np.array([0.5] + [1.0] * (period - 1) + [0.5]) / period
    half = period // 2
    core = np.convolve(y, filt, mode="valid")
    trend = np.full(n, MISSING)
    trend[half : half + len(core)] = core

    detrended = y - trend
    pattern = np.empty(period)
    for phase in range(period):
        vals = detrended[phase::period]
        pattern[phase] = float(np.nanmean(vals))
    pattern -= pattern.mean()
    seasonal = np.tile(pattern, n // period + 1)[:n]
    return trend, seasonal, y - trend - seasonal


def deseasonalize(series: np.ndarray, seasonal: np.ndarray) -> np.ndarray:
    """The series less its seasonal component. Where trend and irregular are
    both defined this is trend + irregular; unlike that sum it has no gaps."""
    return series - seasonal


def _check_unique(codes: Iterable, message) -> None:
    """Reject the first row whose code an earlier row has, with `message(row)`."""
    seen = set()
    for r, code in enumerate(codes):
        if code in seen:
            raise InvalidArgumentError(message(r))
        seen.add(code)


def _plain_columns(text: str, lines: list[str] | None, width: int, n_keys: int):
    """The rows after the header, parsed by numpy's C reader: the cells of
    each key before year, the years, the quarters, the values (rows × the
    cells after quarter) and the line each row is on. None (the C path
    declines) unless the text is plain (then `lines` holds its lines) and
    every row holds `width` cells, a year in 1..9999, a quarter in 1..4 and
    finite values. A plain text with no line longer than the CSV tokenizer's
    field limit splits at newlines and commas into exactly `csv.reader`'s rows."""
    if lines is None or max(map(len, lines)) > csv.field_size_limit():
        return None
    rows = [line for line in lines[1:] if line]  # an empty line is no record
    if not rows or text.count(",") != (len(rows) + 1) * (width - 1):
        return None
    dtype = np.dtype([("year", np.int64), ("quarter", np.int64), ("values", np.float64, (width - n_keys,))])
    try:
        with warnings.catch_warnings():
            # numpy before 2.0 reads an int64 cell such as "2019.5" as a float,
            # truncates it and only warns; as an error, that cell declines too.
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, usecols=range(n_keys - 2, width), ndmin=1)
    except (ValueError, DeprecationWarning):  # a cell that is not an int64 or a float, or a row that lacks a cell
        return None
    years, quarters, values = table["year"], table["quarter"], table["values"]
    out_of_range = (years < 1) | (years > 9999) | (quarters < 1) | (quarters > 4)
    if len(table) != len(rows) or out_of_range.any() or not np.isfinite(values).all():
        return None
    keys = [[row.split(",", k + 1)[k].strip() for row in rows] for k in range(n_keys - 2)]
    return keys, years, quarters, values, [n for n, line in enumerate(lines[1:], 2) if line]


def _csv_columns(reader, path: Path, width: int, n_keys: int):
    """The rows after the header, read one record at a time by `csv.reader`,
    as `_plain_columns` returns them. A malformed row raises its `path:line`
    message as it is met; then the first value cell that is not blank or a
    finite number raises, and a tokenizer fault last."""
    # A record starts on the line after the one the previous record
    # ended on; a quoted cell may hold a newline.
    rows, years, quarters, lines, end, fault = [], [], [], [], reader.line_num, None
    try:
        for row in reader:
            if row:
                row += [""] * (width - len(row))
                try:
                    year, quarter = int(row[n_keys - 2]), int(row[n_keys - 1])
                except ValueError:
                    year = quarter = 0
                if len(row) > width or not (1 <= year <= 9999 and 1 <= quarter <= 4):
                    raise InvalidArgumentError(f"{path}:{end + 1}: malformed row")
                rows.append(row)
                years.append(year)
                quarters.append(quarter)
                lines.append(end + 1)
            end = reader.line_num
    except csv.Error as exc:  # the rows before it are checked first
        fault = f"{path}:{end + 1}: {exc}"
    if not rows:
        raise InvalidArgumentError(fault or f"{path}: no data rows")
    values = []
    for row, line in zip(rows, lines):
        for raw in map(str.strip, row[n_keys:]):
            try:
                value = float(raw) if raw else MISSING
            except ValueError:
                value = math.inf
            if raw and not math.isfinite(value):
                raise InvalidArgumentError(f"{path}:{line}: not a finite number: {raw!r}")
            values.append(value)
    if fault:
        raise InvalidArgumentError(fault)
    keys = [[row[k].strip() for row in rows] for k in range(n_keys - 2)]
    return keys, np.array(years, np.int64), np.array(quarters, np.int64), np.array(values).reshape(len(rows), -1), lines


def read_quarterly_csv(
    path: str | Path, keys: tuple[str, ...], consecutive: bool = False
) -> tuple[list[str], list[list[str]], np.ndarray, np.ndarray, list[int]]:
    """Read a UTF-8 CSV whose header is `keys` (ending in year, quarter) and
    then one or more value columns. Returns columns over the non-blank rows:
    the value column names, the cells of each key before year, the quarter
    indices (the year in 1..9999, the quarter in 1..4), the values (rows ×
    names; NaN where a cell is blank or a short row lacks it, any other cell
    must be a finite number) and the line each row starts on. A row longer
    than the header is malformed, as is a bad year or quarter anywhere,
    which wins over a bad value cell; a fault the CSV tokenizer raises comes
    after those of earlier lines. A header may not repeat a column. With `consecutive`, rows must be sorted
    consecutive quarters, none repeated.

    A plain file is parsed by numpy's C reader (`_plain_columns`); any file
    it declines, and so every message, goes through `csv.reader`."""
    path = Path(path)
    n_keys = len(keys)
    text = decode_utf8(path.read_bytes(), path)
    # A plain text (no quote, carriage return or NUL) has `csv.reader`'s lines
    # at its newlines, so the reader needs no copy of it in a buffer.
    plain = None if '"' in text or "\r" in text or "\0" in text else text.split("\n")
    reader = csv.reader(io.StringIO(text, newline="") if plain is None else plain)
    try:
        header = [h.strip() for h in next(reader, [])]
    except csv.Error as exc:
        raise InvalidArgumentError(f"{path}:1: {exc}") from None
    width, names = len(header), header[n_keys:]
    if header[:n_keys] != list(keys) or not names:
        raise InvalidArgumentError(f"{path}: expected header '{','.join(keys)},<variables>'")
    repeated = next((name for j, name in enumerate(header) if name in header[:j]), None)
    if repeated is not None:
        raise InvalidArgumentError(f"{path}:1: duplicate column {repeated!r}")
    key_cells, years, quarters, values, lines = _plain_columns(text, plain, width, n_keys) or _csv_columns(
        reader, path, width, n_keys
    )
    index = quarter_index(years, quarters)
    if consecutive:
        breaks = np.flatnonzero(np.diff(index) != 1)
        if len(breaks):
            _check_unique(index.tolist(), lambda r: f"{path}:{lines[r]}: duplicate observation for {Quarter.from_index(index[r])}")
            a, b = (Quarter.from_index(i) for i in index[breaks[0] : breaks[0] + 2])
            raise InvalidArgumentError(f"{path}: rows must be sorted consecutive quarters ({a} -> {b})")
    return names, key_cells, index, values, lines


def _check_gaps(path: Path, names: Sequence[str], values: np.ndarray) -> None:
    """A column of series values (rows × names) that is blank throughout, or
    blank between two numbers, is an error naming `path` and the series."""
    defined = ~np.isnan(values)
    counts = defined.sum(axis=0)
    spans = len(values) - defined[::-1].argmax(axis=0) - defined.argmax(axis=0)
    for name, count, span in zip(names, counts.tolist(), spans.tolist()):
        if not count:
            raise InvalidArgumentError(f"{path}: series {name!r} has no defined values")
        if count != span:
            raise InvalidArgumentError(f"{path}: series {name!r} has interior missing values")


def load_series_csv(path: str | Path, name: str | None = None) -> tuple[Quarter, np.ndarray]:
    """The first quarter and the values of a `year,quarter,value` CSV of
    sorted consecutive quarters; blank cells may only lead or trail. A
    message calls the series `name` (by default the file's stem)."""
    path = Path(path)
    names, _, index, values, _ = read_quarterly_csv(path, ("year", "quarter"), consecutive=True)
    if names[0] != "value":
        raise InvalidArgumentError(f"{path}: expected header 'year,quarter,value'")
    _check_gaps(path, [name if name is not None else path.stem], values[:, :1])
    return Quarter.from_index(index[0]), values[:, 0]


def write_series_csv(start: Quarter, values: np.ndarray, path: str | Path) -> None:
    """Export `year,quarter,value` rows from quarter `start`."""
    _write_quarterly(("value",), start, (values,), path)


def write_decomposition_csv(
    start: Quarter, observed: np.ndarray, components: tuple[np.ndarray, ...], path: str | Path
) -> None:
    """Export `year,quarter,observed,trend,seasonal,irregular` rows from quarter `start`."""
    _write_quarterly(("observed", "trend", "seasonal", "irregular"), start, (observed, *components), path)


def _write_quarterly(names: tuple[str, ...], start: Quarter, columns: tuple[np.ndarray, ...], path: str | Path) -> None:
    quarters = (start + i for i in range(len(columns[0])))
    rows = ((q.year, q.quarter, *values) for q, *values in zip(quarters, *columns))
    write_csv(("year", "quarter", *names), rows, path, nan="")


def _window(arr: np.ndarray, lo: int, n: int, fill) -> np.ndarray:
    """`arr[:, lo:lo + n]` along the quarter axis, `fill` where that leaves `arr`."""
    out = np.full((arr.shape[0], n) + arr.shape[2:], fill, dtype=arr.dtype)
    a, b = max(lo, 0), min(lo + n, arr.shape[1])
    if a < b:
        out[:, a - lo : b - lo] = arr[:, a:b]
    return out


class PanelDataset(Record):
    """Observations on a units × quarters × variables grid: `values[i, t, j]`
    is variable `names[j]` of unit `unit_names[i]` at quarter `start + t`, NaN
    when missing (all NaN in a row that does not exist), and `present[i, t]`
    marks the rows that exist. The state panel sorts its units and
    variables, and its units may have gaps until it is balanced; the
    national frame (`regression.Dataset`) is its one-unit case."""

    unit_names: tuple[str, ...]
    start: Quarter
    names: tuple[str, ...]
    values: np.ndarray
    present: np.ndarray

    _unshown = ("values", "present")
    __eq__, __hash__ = object.__eq__, object.__hash__  # a frame equals only itself

    def __post_init__(self) -> None:
        # Frames share arrays (a window is a view), so no frame writes into them.
        self.values.flags.writeable = False
        self.present.flags.writeable = False

    @classmethod
    def _scatter(
        cls, units: Sequence[str], index: np.ndarray, names: Sequence[str], values: np.ndarray, where=lambda r: ""
    ) -> "PanelDataset":
        """The frame of rows given as columns: units, quarter indices and values
        (rows × names, each name once), the units and variables sorted. A
        repeated unit and quarter is an error that `where(r)` prefixes for row r."""
        unit_names = sorted(set(units))
        code = {name: i for i, name in enumerate(unit_names)}
        unit = np.fromiter(map(code.__getitem__, units), np.intp, len(units))
        order = sorted(range(len(names)), key=names.__getitem__)
        t = index - index.min()
        shape = (len(unit_names), int(t.max()) + 1)
        present = np.zeros(shape, dtype=bool)
        present[unit, t] = True
        if np.count_nonzero(present) < len(t):
            _check_unique(
                zip(unit.tolist(), t.tolist()),
                lambda r: f"{where(r)}duplicate observation for {units[r]} {Quarter.from_index(index[r])}",
            )
        frame = np.full(shape + (len(names),), np.nan)
        frame[unit, t] = values[:, order]
        return cls(tuple(unit_names), Quarter.from_index(index.min()), tuple(names[j] for j in order), frame, present)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, Quarter, Mapping[str, float]]]) -> "PanelDataset":
        """The frame of (unit, quarter, {variable: value}) rows; NaN where a row lacks a variable."""
        rows = list(rows)
        if not rows:
            raise InvalidArgumentError("panel has no observations")
        names = sorted({name for _, _, values in rows for name in values})
        values = np.array([[values.get(name, np.nan) for name in names] for _, _, values in rows], dtype=float)
        index = np.array([q.index for _, q, _ in rows])
        return cls._scatter([str(unit) for unit, _, _ in rows], index, names, values)

    @classmethod
    def from_csv(cls, path: str | Path) -> "PanelDataset":
        """Load a long `state,year,quarter,<variable>...` CSV: the reader's
        columns in one scatter; a repeated state and quarter names `path:line`."""
        names, (states,), index, values, lines = read_quarterly_csv(path, ("state", "year", "quarter"))
        return cls._scatter(states, index, names, values, lambda r: f"{path}:{lines[r]}: ")

    @property
    def end(self) -> Quarter:
        """The last quarter of the frame."""
        return self.start + (self.present.shape[1] - 1)

    def _gather(self, terms: Sequence[tuple[str, int]], span: tuple[Quarter, Quarter]) -> np.ndarray:
        """Units × quarters × terms over the span; term (name, k) at q is `name` at q - k."""
        out = np.empty((len(self.unit_names), span[1] - span[0] + 1, len(terms)))
        for j, (name, k) in enumerate(terms):
            if name not in self.names:
                raise InvalidArgumentError(f"dataset has no variable {name!r}")
            column = self.values[:, :, self.names.index(name)]
            out[:, :, j] = _window(column, span[0] - k - self.start, out.shape[1], np.nan)
        return out

    def usable_rows(
        self, dependent: str, terms: Sequence[tuple[str, int]]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The dependent and the lagged terms over the frame (units × quarters
        × (1 + terms)), the usable rows (every value finite), and each unit's
        first usable quarter index and usable-row count. Each unit's usable
        rows must form one gap-free run."""
        yx = self._gather(((dependent, 0), *terms), (self.start, self.end))
        usable = np.isfinite(yx).all(axis=2)
        first, counts = usable.argmax(axis=1), usable.sum(axis=1)
        t = np.arange(usable.shape[1])
        run = (t >= first[:, None]) & (t < (first + counts)[:, None])
        for unit, whole in zip(self.unit_names, (run == usable).all(axis=1)):
            if not whole:
                raise InvalidArgumentError(f"unit {unit!r} has gaps in its usable rows")
        return yx, usable, first, counts

    def predictors(self, terms: Sequence[tuple[str, int]], span: tuple[Quarter, Quarter]) -> np.ndarray:
        """Units × quarters × terms of the lagged terms over the span. A
        missing predictor is an error naming the term, the unit and the quarter."""
        x = self._gather(terms, span)
        missing = np.argwhere(np.isnan(x))
        if len(missing):
            i, h, j = (int(v) for v in missing[0])
            name, k = terms[j]
            raise InvalidArgumentError(f"missing predictor {name!r} for unit {self.unit_names[i]!r} at {span[0] + h - k}")
        return x

    def predict(
        self,
        terms: Sequence[tuple[str, int]],
        coefficients: Sequence[float],
        span: tuple[Quarter, Quarter],
        intercept: bool = False,
    ) -> np.ndarray:
        """Units × quarters of the lagged `predictors` (after a column of ones
        with `intercept`) times the coefficients over the span."""
        x = self.predictors(terms, span)
        if intercept:
            x = np.concatenate([np.ones(x.shape[:2] + (1,)), x], axis=2)
        # np.dot sums each (unit, quarter) row as one dot product, as row-by-row forecasts do.
        return np.dot(x, np.asarray(coefficients))

    def joined(self, other: "PanelDataset") -> "PanelDataset":
        """Add or replace `other`'s variables (the variables sorted): its value
        in each existing row of a unit and quarter that `other` has, and 0.0
        in every other existing row."""
        names = tuple(sorted(set(self.names) | set(other.names)))
        values = np.zeros(self.present.shape + (len(names),))
        for j, name in enumerate(names):
            if name not in other.names:
                values[:, :, j] = self.values[:, :, self.names.index(name)]
        cols = [names.index(name) for name in other.names]
        covered = np.where(other.present[:, :, None], other.values, 0.0)
        columns = _window(covered, self.start - other.start, values.shape[1], 0.0)
        for i, unit in enumerate(self.unit_names):
            if unit in other.unit_names:
                values[i][:, cols] = columns[other.unit_names.index(unit)]
        values[~self.present] = np.nan
        return self._replace(names=names, values=values)

    def restricted(self, units: Iterable[str], span: tuple[Quarter, Quarter]) -> "PanelDataset":
        keep = set(units)
        lo, n = span[0] - self.start, max(span[1] - span[0] + 1, 0)
        present = _window(self.present, lo, n, False)
        rows = [i for i, u in enumerate(self.unit_names) if u in keep and present[i].any()]
        if not rows:
            raise EmptyPanelError("no observations left after restriction")
        kept = tuple(self.unit_names[i] for i in rows)
        return PanelDataset(kept, span[0], self.names, _window(self.values[rows], lo, n, np.nan), present[rows])
