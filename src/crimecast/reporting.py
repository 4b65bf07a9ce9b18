"""The one float writer for every report file, JSON and CSV.

Report floats carry 10 significant digits. The last digits of a fitted
statistic depend on the numpy and BLAS build (a Hausman statistic moves by an
ulp or two with the linear-algebra kernels), and so do those of its p-value.
`stattests` computes p-values with `math`, so no scipy build enters them.
Digits below 10 would make the reports differ between builds. At 10 digits reruns are byte-identical and the
golden reports hold across builds. A float stays a float (`1.0` is written
`1.0`), and ints, bools, strings and NaN are written as before. The one
exception to 10 digits is a value within half a 10-digit step of the largest
double: rounding it would overflow to infinity, so it is written in full.

The detector's `model.json` is model state, not a report: it is written at
full precision so that `detect` reads back the exact weights.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterable, Sequence

SIGNIFICANT_DIGITS = 10


def _round(value: float) -> float:
    rounded = float(f"{value:.{SIGNIFICANT_DIGITS}g}")
    # Next to the largest double, rounding up overflows: keep such a value whole.
    return value if math.isinf(rounded) else rounded


def _rounded(value):
    if isinstance(value, float):
        return _round(value)
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def format_float(value: float, nan: str = "nan") -> str:
    """CSV text of `value` at 10 significant digits; `nan` spells NaN."""
    if math.isnan(value):
        return nan
    return repr(_round(value))


def write_json(payload, path: str | Path) -> None:
    """Write `payload` as indented JSON with every float at 10 significant
    digits; a finite float is spelled as `format_float` spells it."""
    Path(path).write_text(json.dumps(_rounded(payload), indent=2) + "\n")


def write_csv(header: Sequence[str], rows: Iterable[Sequence], path: str | Path, nan: str = "nan") -> None:
    """Write the header and rows as CSV with CRLF line ends; every float is
    spelled by `format_float`, with `nan` for NaN."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([format_float(v, nan) if isinstance(v, float) else v for v in row] for row in rows)
