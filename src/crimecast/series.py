"""Quarterly time series: index arithmetic, lag/difference algebra,
autocorrelation functions, and classical additive decomposition.

Missing values are represented as NaN and may only appear as leading or
trailing runs; interior gaps are rejected when a series is constructed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .exceptions import DegenerateInputError, InvalidArgumentError
from .reporting import format_float

MISSING = float("nan")

_RECONSTRUCTION_TOL = 1e-6


@dataclass(frozen=True, order=True)
class Quarter:
    """A calendar quarter, totally ordered by (year, quarter)."""

    year: int
    quarter: int

    def __post_init__(self) -> None:
        if not isinstance(self.year, int) or not isinstance(self.quarter, int):
            raise InvalidArgumentError("year and quarter must be integers")
        if not 1 <= self.quarter <= 4:
            raise InvalidArgumentError(f"quarter must be in 1..4, got {self.quarter}")

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
    def from_date(cls, d: date) -> "Quarter":
        return cls(d.year, (d.month - 1) // 3 + 1)

    def __add__(self, n: int) -> "Quarter":
        idx = self.year * 4 + (self.quarter - 1) + n
        return Quarter(idx // 4, idx % 4 + 1)

    def __sub__(self, other: "Quarter | int"):
        if isinstance(other, Quarter):
            return (self.year - other.year) * 4 + (self.quarter - other.quarter)
        return self + (-other)

    def __str__(self) -> str:
        return f"{self.year}Q{self.quarter}"


@dataclass(frozen=True)
class TimeSeries:
    """A named quarterly-indexed sequence of real values.

    Position i corresponds to ``start + i``. NaN marks a missing value and is
    permitted only in leading or trailing runs.
    """

    name: str
    start: Quarter
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise InvalidArgumentError(f"series {self.name!r} must have length >= 1")
        defined = [i for i, v in enumerate(vals) if not math.isnan(v)]
        if not defined:
            raise InvalidArgumentError(f"series {self.name!r} has no defined values")
        first, last = defined[0], defined[-1]
        if any(math.isnan(vals[i]) for i in range(first, last + 1)):
            raise InvalidArgumentError(f"series {self.name!r} has interior missing values")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end(self) -> Quarter:
        return self.start + (len(self.values) - 1)

    def quarters(self) -> list[Quarter]:
        return [self.start + i for i in range(len(self.values))]

    def to_array(self) -> np.ndarray:
        return np.array(self.values, dtype=float)

    def index_of(self, q: Quarter) -> int:
        pos = q - self.start
        if not 0 <= pos < len(self.values):
            raise InvalidArgumentError(f"{q} is outside the frame of series {self.name!r}")
        return pos

    def value_at(self, q: Quarter) -> float:
        return self.values[self.index_of(q)]

    def has_value_at(self, q: Quarter) -> bool:
        pos = q - self.start
        return 0 <= pos < len(self.values) and not math.isnan(self.values[pos])

    @property
    def defined_start(self) -> Quarter:
        for i, v in enumerate(self.values):
            if not math.isnan(v):
                return self.start + i
        raise AssertionError("unreachable: constructor requires a defined value")

    @property
    def defined_end(self) -> Quarter:
        for i in range(len(self.values) - 1, -1, -1):
            if not math.isnan(self.values[i]):
                return self.start + i
        raise AssertionError("unreachable")

    def window(self, start: Quarter, end: Quarter) -> "TimeSeries":
        """Slice to the inclusive range [start, end], which must lie inside the frame."""
        i = self.index_of(start)
        j = self.index_of(end)
        if j < i:
            raise InvalidArgumentError(f"empty window {start}..{end}")
        return TimeSeries(self.name, start, self.values[i : j + 1])


@dataclass(frozen=True)
class DecompositionResult:
    """Additive decomposition into trend + seasonal + irregular."""

    trend: TimeSeries
    seasonal: TimeSeries
    irregular: TimeSeries
    period: int


def difference(series: TimeSeries, order: int) -> TimeSeries:
    """Apply the forward difference operator `order` times.

    The result is `order` positions shorter and starts `order` quarters later;
    order 0 returns the input unchanged.
    """
    if order < 0:
        raise InvalidArgumentError(f"difference order must be >= 0, got {order}")
    if order == 0:
        return series
    if len(series) <= order:
        raise InvalidArgumentError(
            f"series length {len(series)} must exceed difference order {order}"
        )
    vals = np.diff(series.to_array(), n=order)
    return TimeSeries("d" * order + "_" + series.name, series.start + order, tuple(vals))


def lag(series: TimeSeries, k: int) -> TimeSeries:
    """Shift the series so position t holds the value at t-k.

    The frame is preserved: the first k positions become missing, so the
    defined range starts k quarters later. Lag 0 is the identity.
    """
    if k < 0:
        raise InvalidArgumentError(f"lag must be >= 0, got {k}")
    if k == 0:
        return series
    if k >= len(series):
        raise InvalidArgumentError(f"lag {k} must be smaller than series length {len(series)}")
    vals = (MISSING,) * k + series.values[: len(series) - k]
    return TimeSeries(f"{series.name}(-{k})", series.start, vals)


def _defined_values(series: TimeSeries) -> np.ndarray:
    arr = series.to_array()
    if np.isnan(arr).any():
        raise InvalidArgumentError(f"series {series.name!r} has missing values")
    return arr


def acf(series: TimeSeries, max_lag: int) -> np.ndarray:
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
        raise DegenerateInputError(f"series {series.name!r} is constant")
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    for k in range(1, max_lag + 1):
        out[k] = float(dev[k:] @ dev[:-k]) / denom
    return out


def pacf(series: TimeSeries, max_lag: int) -> np.ndarray:
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


def decompose_additive(series: TimeSeries, period: int) -> DecompositionResult:
    """Classical moving-average decomposition into trend, seasonal, irregular.

    Even periods use the centred 2xMA convention (half weights at the window
    ends); the trend and irregular components are missing at the first and
    last period//2 positions. The seasonal component is the re-centred mean of
    the detrended series per phase, tiled over the full range.
    """
    if period < 2:
        raise InvalidArgumentError(f"period must be >= 2, got {period}")
    y = _defined_values(series)
    n = len(y)
    if n < 2 * period:
        raise InvalidArgumentError(
            f"series length {n} must be at least 2*period = {2 * period}"
        )

    if period % 2 == 0:
        filt = np.array([0.5] + [1.0] * (period - 1) + [0.5]) / period
    else:
        filt = np.full(period, 1.0 / period)
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

    irregular = y - trend - seasonal
    return DecompositionResult(
        trend=TimeSeries(series.name + "_trend", series.start, tuple(trend)),
        seasonal=TimeSeries(series.name + "_seasonal", series.start, tuple(seasonal)),
        irregular=TimeSeries(series.name + "_irregular", series.start, tuple(irregular)),
        period=period,
    )


def deseasonalize(series: TimeSeries, decomp: DecompositionResult) -> TimeSeries:
    """Subtract the seasonal component at every index.

    Where trend and irregular are both defined this equals trend + irregular;
    elsewhere it is simply series - seasonal, so the result has no gaps.
    """
    seasonal = decomp.seasonal
    if seasonal.start != series.start or len(seasonal) != len(series):
        raise InvalidArgumentError("decomposition frame does not match the series")
    y = series.to_array()
    recon = decomp.trend.to_array() + seasonal.to_array() + decomp.irregular.to_array()
    defined = ~np.isnan(recon)
    if not np.allclose(recon[defined], y[defined], atol=_RECONSTRUCTION_TOL, rtol=0.0):
        raise InvalidArgumentError("decomposition was not produced from this series")
    return TimeSeries(series.name + "_noseasonnal", series.start, tuple(y - seasonal.to_array()))


def _parse_cell(raw: str, path: Path, lineno: int) -> float:
    """An empty cell is missing; any other must be a finite float."""
    try:
        value = float(raw)
    except ValueError:
        if raw.strip() == "":
            return MISSING
        value = math.nan
    if not math.isfinite(value):
        raise InvalidArgumentError(f"{path}:{lineno}: not a finite number: {raw.strip()!r}")
    return value


def read_quarterly_csv(
    path: str | Path, keys: tuple[str, ...], consecutive: bool = False
) -> tuple[list[str], list[tuple[list[str], Quarter, list[float]]]]:
    """Read a CSV whose header is `keys` (ending in year, quarter) and then
    one or more value columns. Returns the value column names and, per
    non-blank row, (the key cells before year, the quarter, the values). The
    cells a short row lacks are missing. A row that repeats the key cells
    and quarter of an earlier row is rejected. With `consecutive`, rows must
    be sorted consecutive quarters."""
    path = Path(path)
    n_keys = len(keys)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader, [])]
        names = header[n_keys:]
        if header[:n_keys] != list(keys) or not names:
            raise InvalidArgumentError(f"{path}: expected header '{','.join(keys)},<variables>'")
        rows = []
        seen = set()
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                q = Quarter(int(row[n_keys - 2]), int(row[n_keys - 1]))
            except (ValueError, IndexError) as exc:
                raise InvalidArgumentError(f"{path}:{lineno}: malformed row") from exc
            cells = [c.strip() for c in row[: n_keys - 2]]
            key = (*cells, q)
            if key in seen:
                raise InvalidArgumentError(f"{path}:{lineno}: duplicate observation for {' '.join(map(str, key))}")
            seen.add(key)
            values = [_parse_cell(c, path, lineno) for c in row[n_keys : n_keys + len(names)]]
            values += [MISSING] * (len(names) - len(values))
            rows.append((cells, q, values))
    if not rows:
        raise InvalidArgumentError(f"{path}: no data rows")
    if consecutive:
        for (_, qa, _), (_, qb, _) in zip(rows, rows[1:]):
            if qb != qa + 1:
                raise InvalidArgumentError(f"{path}: rows must be sorted consecutive quarters ({qa} -> {qb})")
    return names, rows


def load_series_csv(path: str | Path, name: str | None = None) -> TimeSeries:
    """Load a `year,quarter,value` CSV; empty value fields mark missing edges.

    Rows must be sorted and cover consecutive quarters.
    """
    path = Path(path)
    names, rows = read_quarterly_csv(path, ("year", "quarter"), consecutive=True)
    if names[0] != "value":
        raise InvalidArgumentError(f"{path}: expected header 'year,quarter,value'")
    series_name = name if name is not None else path.stem
    return TimeSeries(series_name, rows[0][1], tuple(values[0] for _, _, values in rows))


def write_series_csv(series: TimeSeries, path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["year", "quarter", "value"])
        for q, v in zip(series.quarters(), series.values):
            writer.writerow([q.year, q.quarter, format_float(v, nan="")])


def write_decomposition_csv(series: TimeSeries, decomp: DecompositionResult, path: str | Path) -> None:
    """Export `year,quarter,observed,trend,seasonal,irregular` rows."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["year", "quarter", "observed", "trend", "seasonal", "irregular"])
        for i, q in enumerate(series.quarters()):
            writer.writerow(
                [
                    q.year,
                    q.quarter,
                    format_float(series.values[i], nan=""),
                    format_float(decomp.trend.values[i], nan=""),
                    format_float(decomp.seasonal.values[i], nan=""),
                    format_float(decomp.irregular.values[i], nan=""),
                ]
            )
