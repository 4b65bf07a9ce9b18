from pathlib import Path

import numpy as np
import pytest

from crimecast.series import Quarter, TimeSeries

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
GAZETTEER = Path(__file__).parents[1] / "src" / "crimecast" / "data" / "gazetteer.tsv"

Q0 = Quarter(2007, 1)


def cell(panel, unit: str, q: Quarter, name: str) -> float:
    """Variable `name` of `unit` at quarter `q`, read from the panel's values."""
    return float(panel.values[panel.unit_names.index(unit), q - panel.start, panel.names.index(name)])


def series(values, name="x", start=Q0) -> TimeSeries:
    return TimeSeries(name, start, tuple(float(v) for v in values))


def ar1(alpha: float, n: int, seed: int, c: float = 0.0, sigma: float = 1.0) -> np.ndarray:
    """Simulate y_t = c + alpha * y_{t-1} + e_t with a burn-in."""
    rng = np.random.default_rng(seed)
    e = rng.normal(0.0, sigma, n + 200)
    y = np.zeros(n + 200)
    for t in range(1, n + 200):
        y[t] = c + alpha * y[t - 1] + e[t]
    return y[200:]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
