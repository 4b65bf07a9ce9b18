"""Article-level event detection: the baseline classifier and its metrics.

The baseline is a logistic bag-of-words classifier trained by fixed
full-batch gradient descent, so the end-to-end pipeline runs without any
external model. Labels from a detector built elsewhere enter the pipeline as
the predicted_label field of the article records.
"""

from __future__ import annotations

import json
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .exceptions import InvalidArgumentError, decode_utf8
from .geo import Gazetteer, _tokenize, resolve_tokens, tokenize_texts
from .signals import LABEL_NEGATIVE, LABEL_POSITIVE, ArticleRecord, Corpus

# Training settings of the baseline, recorded in the model's metadata.
_LEARNING_RATE = 0.1
_EPOCHS = 100
_MIN_TOKEN_COUNT = 2  # occurrences in the training split that keep a token


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int


@dataclass(frozen=True)
class DetectionMetrics:
    precision: float
    recall: float
    f1: float
    counts: ConfusionCounts


@dataclass(frozen=True)
class BaselineModel:
    """Logistic bag-of-words detector: score >= threshold <=> hate_crime."""

    vocabulary: Mapping[str, float]
    bias: float
    threshold: float
    metadata: Mapping[str, Any]

    def __post_init__(self) -> None:
        if not self.vocabulary:
            raise InvalidArgumentError("vocabulary must be nonempty")
        if not 0.0 < self.threshold < 1.0:
            raise InvalidArgumentError("threshold must be in (0, 1)")
        if not all(np.isfinite(w) for w in self.vocabulary.values()):
            raise InvalidArgumentError("vocabulary weights must be finite")

    def logit(self, tokens: Iterable[str]) -> float:
        """The bias plus each token's weight, added left to right."""
        z = self.bias
        weight = self.vocabulary.get
        for token in tokens:
            z += weight(token, 0.0)
        return z

    def score(self, record: ArticleRecord) -> float:
        return float(1.0 / (1.0 + np.exp(-self.logit(_tokenize(record.text())))))

    def classify(self, record: ArticleRecord) -> tuple[str, float]:
        s = self.score(record)
        return (LABEL_POSITIVE if s >= self.threshold else LABEL_NEGATIVE), s

    def to_json(self, path: str | Path) -> None:
        payload = {
            "vocabulary": {t: self.vocabulary[t] for t in sorted(self.vocabulary)},
            "bias": self.bias,
            "threshold": self.threshold,
            "metadata": dict(self.metadata),
        }
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")

    @classmethod
    def from_json(cls, path: str | Path) -> "BaselineModel":
        """Read a model that `to_json` wrote; a file that is not such a model
        is an InvalidArgumentError naming it."""
        try:
            payload = json.loads(decode_utf8(Path(path).read_bytes(), path))
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidArgumentError(f"cannot read model file {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise InvalidArgumentError(f"model file {path} must hold a JSON object")
        try:
            return cls(
                vocabulary=dict(payload["vocabulary"]),
                bias=float(payload["bias"]),
                threshold=float(payload["threshold"]),
                metadata=dict(payload.get("metadata", {})),
            )
        except KeyError as exc:
            raise InvalidArgumentError(f"model file {path} lacks the key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"model file {path}: {exc}") from exc


def _split(n: int, split: tuple[float, float, float], seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions 0..n-1 shuffled by the seed and cut into the train,
    validation and test fractions."""
    fracs = tuple(float(f) for f in split)
    if any(f < 0 for f in fracs) or abs(sum(fracs) - 1.0) > 1e-9:
        raise InvalidArgumentError("split fractions must be nonnegative and sum to 1")
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(round(fracs[0] * n))
    n_val = int(round(fracs[1] * n))
    return order[:n_train], order[n_train : n_train + n_val], order[n_train + n_val :]


def _count_matrix(texts: Sequence[str], index: Mapping[str, int]) -> np.ndarray:
    X = np.zeros((len(texts), len(index)))
    for row, text in enumerate(texts):
        for token in _tokenize(text):
            col = index.get(token)
            if col is not None:
                X[row, col] += 1.0
    return X


def _f1_at(scores: np.ndarray, gold: np.ndarray, threshold: float) -> float:
    pred = scores >= threshold
    tp = int(np.sum(pred & (gold == 1)))
    fp = int(np.sum(pred & (gold == 0)))
    fn = int(np.sum(~pred & (gold == 1)))
    return 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0


def train_baseline(corpus: Corpus, split: tuple[float, float, float] = (0.7, 0.1, 0.2), seed: int = 0) -> BaselineModel:
    """Train the logistic bag-of-words baseline on the articles with a gold
    label, split into train, validation and test by `split` fractions.

    Tokens are lowercased and kept when they occur at least _MIN_TOKEN_COUNT
    times in the training split; optimization is full-batch gradient descent,
    so the run is reproducible bit for bit given the seed (which only drives
    the split shuffle). The decision threshold maximizes F1 on the validation
    split.
    """
    gold = corpus.gold
    labeled = [i for i, label in enumerate(gold) if label is not None]
    if len(labeled) < 50:
        raise InvalidArgumentError(f"need at least 50 labeled records, got {len(labeled)}")
    if len({gold[i] for i in labeled}) < 2:
        raise InvalidArgumentError("corpus must contain both classes")
    train, validation, test = ([labeled[j] for j in part] for part in _split(len(labeled), split, seed))
    if not train:
        raise InvalidArgumentError("training split is empty")
    texts = list(corpus.texts())

    counts: dict[str, int] = {}
    for i in train:
        for token in _tokenize(texts[i]):
            counts[token] = counts.get(token, 0) + 1
    tokens = sorted(t for t, c in counts.items() if c >= _MIN_TOKEN_COUNT)
    if not tokens:
        raise InvalidArgumentError("no tokens survive the frequency cutoff")
    index = {t: j for j, t in enumerate(tokens)}

    X = _count_matrix([texts[i] for i in train], index)
    y = np.array([1.0 if gold[i] == LABEL_POSITIVE else 0.0 for i in train])
    w = np.zeros(len(tokens))
    b = 0.0
    n = len(train)
    for _ in range(_EPOCHS):
        z = X @ w + b
        err = 1.0 / (1.0 + np.exp(-z)) - y
        w -= _LEARNING_RATE * (X.T @ err) / n
        b -= _LEARNING_RATE * float(err.mean())

    if validation:
        Xv = _count_matrix([texts[i] for i in validation], index)
        yv = np.array([1.0 if gold[i] == LABEL_POSITIVE else 0.0 for i in validation])
        sv = 1.0 / (1.0 + np.exp(-(Xv @ w + b)))
        candidates = sorted(set(float(s) for s in sv))
        best_t, best_f1 = 0.5, -1.0
        for t in candidates:
            f1 = _f1_at(sv, yv, t)
            if f1 > best_f1:
                best_t, best_f1 = t, f1
        threshold = min(max(best_t, 1e-9), 1.0 - 1e-9)
        validation_f1 = best_f1
    else:
        threshold, validation_f1 = 0.5, None

    metadata = {
        "seed": seed,
        "epochs": _EPOCHS,
        "learning_rate": _LEARNING_RATE,
        "min_token_count": _MIN_TOKEN_COUNT,
        "split_sizes": [len(train), len(validation), len(test)],
        "validation_f1": validation_f1,
    }
    return BaselineModel(
        vocabulary={t: float(w[j]) for t, j in index.items()},
        bias=float(b),
        threshold=float(threshold),
        metadata=metadata,
    )


def classify_corpus(
    model: BaselineModel, corpus: Corpus, gazetteer: Gazetteer | None = None
) -> tuple[Corpus, np.ndarray]:
    """The corpus with every article labeled, and the scores (aligned with
    the corpus) for threshold audits.

    With a gazetteer, each article without a state also gets the state
    resolved from the tokens it is scored on; a blank such article is an
    InvalidArgumentError naming its id. Each text is tokenized once.
    """
    logits = np.empty(len(corpus))
    states = list(corpus.states)
    for i, tokens in enumerate(tokenize_texts(corpus.texts())):
        logits[i] = model.logit(tokens)
        if gazetteer is not None and states[i] is None:
            if not tokens and not (corpus.titles[i].strip() or corpus.bodies[i].strip()):
                raise InvalidArgumentError(f"article {corpus.ids[i]!r}: text must be nonempty")
            states[i] = resolve_tokens(tokens, gazetteer)
    scores = 1.0 / (1.0 + np.exp(-logits))
    threshold = model.threshold
    labels = [LABEL_POSITIVE if score >= threshold else LABEL_NEGATIVE for score in scores.tolist()]
    return replace(corpus, predicted=labels, states=states), scores


def evaluate(predicted: Sequence[str], gold: Sequence[str]) -> DetectionMetrics:
    """Precision, recall, and F1 of predicted labels against the gold labels
    at the same positions. Zero-denominator metrics are reported as 0 with a
    warning."""
    if len(predicted) != len(gold):
        raise InvalidArgumentError(f"{len(predicted)} predicted labels for {len(gold)} gold labels")
    pairs = Counter(zip((p == LABEL_POSITIVE for p in predicted), (g == LABEL_POSITIVE for g in gold)))
    tp, fp, fn, tn = pairs[True, True], pairs[True, False], pairs[False, True], pairs[False, False]

    def safe_ratio(num: int, den: int, name: str) -> float:
        if den == 0:
            warnings.warn(f"{name} denominator is zero; reporting 0", stacklevel=3)
            return 0.0
        return num / den

    precision = safe_ratio(tp, tp + fp, "precision")
    recall = safe_ratio(tp, tp + fn, "recall")
    f1 = safe_ratio(2 * tp, 2 * tp + fp + fn, "F1")
    return DetectionMetrics(precision, recall, f1, ConfusionCounts(tp, fp, tn, fn))
