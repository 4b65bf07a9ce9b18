import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from crimecast import geo
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


@pytest.fixture
def tokenized(monkeypatch) -> Counter:
    """How often each text is fed to `geo.tokenize_texts`, wherever a
    crimecast module binds it; `geo._tokenize` goes through it too."""
    seen = Counter()
    tokenize_texts = geo.tokenize_texts

    def counted(texts):
        def feed():
            for text in texts:
                seen[text] += 1
                yield text

        return tokenize_texts(feed())

    for name, module in list(sys.modules.items()):
        if name.startswith("crimecast.") and getattr(module, "tokenize_texts", None) is tokenize_texts:
            monkeypatch.setattr(module, "tokenize_texts", counted)
    return seen
