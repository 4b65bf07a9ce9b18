"""Article-level event detection: the baseline classifier and its metrics.

The baseline is a logistic bag-of-words classifier trained by fixed
full-batch gradient descent, so the end-to-end pipeline runs without any
external model. Labels from a detector built elsewhere enter the pipeline as
the predicted_label field of the article records.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import Counter
from itertools import chain
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .exceptions import InvalidArgumentError, decode_utf8
from .geo import Gazetteer, TokenIndex, token_batches, token_index, tokenize_texts
from .record import Record
from .signals import LABEL_NEGATIVE, LABEL_POSITIVE, Corpus

# Training settings of the baseline, recorded in the model's metadata.
_LEARNING_RATE = 0.1
_EPOCHS = 100
_SPLIT = (0.7, 0.1, 0.2)  # train, validation and test fractions of the labeled articles
_MIN_TOKEN_COUNT = 2  # occurrences in the training split that keep a token


class ConfusionCounts(Record):
    tp: int
    fp: int
    tn: int
    fn: int


class DetectionMetrics(Record):
    precision: float
    recall: float
    f1: float
    counts: ConfusionCounts


class BaselineModel(Record):
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
        if not np.isfinite(self.bias):
            raise InvalidArgumentError("bias must be finite")
        if not all(np.isfinite(w) for w in self.vocabulary.values()):
            raise InvalidArgumentError("vocabulary weights must be finite")

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
        except InvalidArgumentError:  # not UTF-8, named by path:line
            raise
        except (OSError, ValueError, RecursionError) as exc:  # json's: a JSONDecodeError, too deep, an int too long
            raise InvalidArgumentError(f"cannot read model file {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise InvalidArgumentError(f"model file {path} must hold a JSON object")
        try:
            return cls(
                vocabulary={token: _weight(token, w) for token, w in _object("vocabulary", payload["vocabulary"]).items()},
                bias=_number("bias", payload["bias"]),
                threshold=_number("threshold", payload["threshold"]),
                metadata=_object("metadata", payload.get("metadata", {})),
            )
        except KeyError as exc:
            raise InvalidArgumentError(f"model file {path} lacks the key {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an integer too large for a float
            raise InvalidArgumentError(f"model file {path}: {exc}") from exc


def _number(key: str, value: Any) -> float:
    """The model scalar `key` read from JSON: a number, not a bool. The model
    checks its range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidArgumentError(f"{key} must be a JSON number")
    return float(value)


def _object(key: str, value: Any) -> dict:
    """The model entry `key` read from JSON: an object."""
    if not isinstance(value, dict):
        raise InvalidArgumentError(f"{key} must be a JSON object")
    return value


def _weight(token: str, value: Any) -> float:
    """A vocabulary weight read from JSON: a number, not a bool, that
    `float()` takes to a finite value."""
    try:
        weight = float(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an integer too large for a float
        weight = math.nan
    if not math.isfinite(weight):
        raise InvalidArgumentError(f"vocabulary weight of {token!r} must be a finite number")
    return weight


def _split(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions 0..n-1 shuffled by the seed and cut into the _SPLIT
    fractions: train, validation and test."""
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(round(_SPLIT[0] * n))
    n_val = int(round(_SPLIT[1] * n))
    return order[:n_train], order[n_train : n_train + n_val], order[n_train + n_val :]


def _count_matrix(token_lists: Sequence[list[str]], index: Mapping[str, int]) -> np.ndarray:
    """Texts × vocabulary token counts, from one `bincount` of flat cell
    indices, weighted by ones so that the counts come out as float64 with no copy."""
    cols = [[col for col in map(index.get, tokens) if col is not None] for tokens in token_lists]
    rows = np.repeat(np.arange(len(cols)), [len(c) for c in cols])
    flat = rows * len(index) + np.fromiter(chain.from_iterable(cols), np.intp)
    counts = np.bincount(flat, weights=np.ones(flat.size), minlength=len(cols) * len(index))
    # numpy gives int64 zeros for no tokens at all, weights or not.
    return counts.astype(float, copy=False).reshape(len(cols), len(index))


def _best_threshold(scores: np.ndarray, gold: np.ndarray) -> tuple[float, float]:
    """The lowest score whose `scores >= threshold` rule has the highest F1
    against the 0/1 `gold`, and that F1, from one sorted scan."""
    candidates = np.unique(scores)
    n_pos = int(np.sum(gold == 1))
    # Articles at or above each candidate: positives (tp) and negatives (fp).
    tp = n_pos - np.searchsorted(np.sort(scores[gold == 1]), candidates)
    fp = len(scores) - n_pos - np.searchsorted(np.sort(scores[gold == 0]), candidates)
    # Each candidate is a score, so tp + fp >= 1 and no denominator is 0.
    f1 = 2 * tp / (2 * tp + fp + (n_pos - tp))
    best = int(np.argmax(f1))  # the first, so the lowest, of equal maxima
    return float(candidates[best]), float(f1[best])


def train_baseline(corpus: Corpus, seed: int = 0) -> BaselineModel:
    """Train the logistic bag-of-words baseline on the articles with a gold
    label, split into train, validation and test by the _SPLIT fractions
    (at least 50 labeled articles, so no split is empty).

    Each labeled text is tokenized once. Tokens are kept when they occur at
    least _MIN_TOKEN_COUNT times in the training split; optimization is
    full-batch gradient descent, so the run is reproducible bit for bit given
    the seed (which only drives the split shuffle). The decision threshold
    maximizes F1 on the validation split.
    """
    gold = [label for label in corpus.gold if label is not None]
    if len(gold) < 50:
        raise InvalidArgumentError(f"need at least 50 labeled records, got {len(gold)}")
    if len(set(gold)) < 2:
        raise InvalidArgumentError("corpus must contain both classes")
    train, validation, test = _split(len(gold), seed)
    texts = (text for text, label in zip(corpus.texts(), corpus.gold) if label is not None)
    token_lists = list(tokenize_texts(texts))
    y_all = np.array([1.0 if label == LABEL_POSITIVE else 0.0 for label in gold])

    counts = Counter(token for j in train for token in token_lists[j])
    tokens = sorted(t for t, c in counts.items() if c >= _MIN_TOKEN_COUNT)
    if not tokens:
        raise InvalidArgumentError("no tokens survive the frequency cutoff")
    index = {t: j for j, t in enumerate(tokens)}

    X = _count_matrix([token_lists[j] for j in train], index)
    y = y_all[train]
    w = np.zeros(len(tokens))
    b = 0.0
    n = len(train)
    for _ in range(_EPOCHS):
        z = X @ w + b
        err = 1.0 / (1.0 + np.exp(-z)) - y
        w -= _LEARNING_RATE * (X.T @ err) / n
        b -= _LEARNING_RATE * float(err.mean())

    Xv = _count_matrix([token_lists[j] for j in validation], index)
    sv = 1.0 / (1.0 + np.exp(-(Xv @ w + b)))
    best_t, validation_f1 = _best_threshold(sv, y_all[validation])
    threshold = min(max(best_t, 1e-9), 1.0 - 1e-9)

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


def _logits(bias: float, weights: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """`bias + w1 + w2 + ...` over the weights `weights[starts[i] :
    starts[i] + lengths[i]]` of each text i, added left to right: step j
    adds the j-th weight of each text longer than j, the texts sorted
    longest first. A sum, `reduceat` or `bincount` would add in another
    order and change the last bits."""
    order = np.argsort(-lengths, kind="stable")
    places, z = starts[order], np.full(len(order), bias)
    longer = len(order) - np.searchsorted(np.sort(lengths), np.arange(lengths.max(initial=0)), "right")
    for k in longer.tolist():  # the texts longer than j are the first k
        z[:k] += weights[places[:k]]
        places += 1
    return z[np.argsort(order)]


def classify_corpus(
    model: BaselineModel, corpus: Corpus, gazetteer: Gazetteer | None = None, index: TokenIndex | None = None
) -> tuple[Corpus, np.ndarray]:
    """The corpus with every article labeled, and the scores (aligned with
    the corpus) for threshold audits.

    The texts are scored a batch at a time from their ids in `index`, the
    token index of the model and the gazetteer, built here if not given.
    With a gazetteer, an article without a state gets the state resolved
    from the same token ids (`geo.token_batches`).
    """
    index = index or token_index(model.vocabulary, gazetteer)
    logits, states = [np.zeros(0)], []
    for ids, starts, lengths, batch_states in token_batches(corpus, index, gazetteer is not None):
        logits.append(_logits(model.bias, index.weights[ids], starts, lengths))
        states += batch_states
    scores = 1.0 / (1.0 + np.exp(-np.concatenate(logits)))
    threshold = model.threshold
    labels = [LABEL_POSITIVE if score >= threshold else LABEL_NEGATIVE for score in scores.tolist()]
    return corpus._replace(predicted=labels, states=states), scores


def evaluate(predicted: Sequence[str], gold: Sequence[str]) -> DetectionMetrics:
    """Precision, recall, and F1 of predicted labels against the gold labels
    at the same positions, each a sequence or an array of labels.
    Zero-denominator metrics are reported as 0 with a warning."""
    if len(predicted) != len(gold):
        raise InvalidArgumentError(f"{len(predicted)} predicted labels for {len(gold)} gold labels")
    p, g = np.asarray(predicted) == LABEL_POSITIVE, np.asarray(gold) == LABEL_POSITIVE
    tp, fp, fn = (int(np.count_nonzero(cell)) for cell in (p & g, p & ~g, ~p & g))
    tn = len(p) - tp - fp - fn

    def safe_ratio(num: int, den: int, name: str) -> float:
        if den == 0:
            warnings.warn(f"{name} denominator is zero; reporting 0", stacklevel=3)
            return 0.0
        return num / den

    precision = safe_ratio(tp, tp + fp, "precision")
    recall = safe_ratio(tp, tp + fn, "recall")
    f1 = safe_ratio(2 * tp, 2 * tp + fp + fn, "F1")
    return DetectionMetrics(precision, recall, f1, ConfusionCounts(tp, fp, tn, fn))
