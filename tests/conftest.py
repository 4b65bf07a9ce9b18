import dataclasses
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from crimecast import geo
from crimecast.series import Quarter, TimeSeries
from crimecast.signals import ArticleRecord, Corpus

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
GAZETTEER = Path(__file__).parents[1] / "src" / "crimecast" / "data" / "gazetteer.tsv"

Q0 = Quarter(2007, 1)


def cell(panel, unit: str, q: Quarter, name: str) -> float:
    """Variable `name` of `unit` at quarter `q`, read from the panel's values."""
    return float(panel.values[panel.unit_names.index(unit), q - panel.start, panel.names.index(name)])


def corpus_of(records) -> Corpus:
    """The columnar corpus of `ArticleRecord` rows, in their order."""
    return Corpus(*([getattr(r, f.name) for r in records] for f in dataclasses.fields(ArticleRecord)))


def score(model, text: str) -> float:
    """The baseline model's score of one text, scalar: the reference that
    `classify_corpus`'s batch scores are compared with."""
    return float(1.0 / (1.0 + np.exp(-model.logit(geo._tokenize(text)))))


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
