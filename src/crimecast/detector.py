"""Article-level event detection: the baseline classifier and its metrics.

The baseline is a logistic bag-of-words classifier trained by fixed
full-batch gradient descent, so the end-to-end pipeline runs without any
external model. Labels from a detector built elsewhere enter the pipeline as
the predicted_label field of the article records.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .exceptions import InvalidArgumentError, decode_utf8
from .geo import Gazetteer, _tokenize, resolve_tokens, tokenize_texts
from .signals import LABEL_NEGATIVE, LABEL_POSITIVE, ArticleRecord

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


def _split_records(
    records: Sequence[ArticleRecord],
    split: tuple[float, float, float] | tuple[Iterable[str], Iterable[str], Iterable[str]],
    seed: int,
) -> tuple[list[ArticleRecord], list[ArticleRecord], list[ArticleRecord]]:
    if all(isinstance(part, (int, float)) for part in split):
        fracs = tuple(float(f) for f in split)
        if any(f < 0 for f in fracs) or abs(sum(fracs) - 1.0) > 1e-9:
            raise InvalidArgumentError("split fractions must be nonnegative and sum to 1")
        order = np.random.default_rng(seed).permutation(len(records))
        n_train = int(round(fracs[0] * len(records)))
        n_val = int(round(fracs[1] * len(records)))
        train_idx = order[:n_train]
        val_idx = order[n_train : n_train + n_val]
        test_idx = order[n_train + n_val :]
        return (
            [records[i] for i in train_idx],
            [records[i] for i in val_idx],
            [records[i] for i in test_idx],
        )
    id_sets = [set(part) for part in split]
    by_id = {r.id: r for r in records}
    missing = (id_sets[0] | id_sets[1] | id_sets[2]) - set(by_id)
    if missing:
        raise InvalidArgumentError(f"split references unknown ids: {sorted(missing)[:5]}")
    return tuple([by_id[i] for i in sorted(ids)] for ids in id_sets)  # type: ignore[return-value]


def _count_matrix(records: Sequence[ArticleRecord], index: Mapping[str, int]) -> np.ndarray:
    X = np.zeros((len(records), len(index)))
    for row, record in enumerate(records):
        for token in _tokenize(record.text()):
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


def train_baseline(
    corpus: Sequence[ArticleRecord],
    split: tuple = (0.7, 0.1, 0.2),
    seed: int = 0,
) -> BaselineModel:
    """Train the logistic bag-of-words baseline.

    Tokens are lowercased and kept when they occur at least _MIN_TOKEN_COUNT
    times in the training split; optimization is full-batch gradient descent,
    so the run is reproducible bit for bit given the seed (which only drives
    the split shuffle). The decision threshold maximizes F1 on the validation
    split.
    """
    labeled = [r for r in corpus if r.gold_label is not None]
    if len(labeled) < 50:
        raise InvalidArgumentError(f"need at least 50 labeled records, got {len(labeled)}")
    classes = {r.gold_label for r in labeled}
    if len(classes) < 2:
        raise InvalidArgumentError("corpus must contain both classes")
    train, validation, test = _split_records(labeled, split, seed)
    if not train:
        raise InvalidArgumentError("training split is empty")

    counts: dict[str, int] = {}
    for record in train:
        for token in _tokenize(record.text()):
            counts[token] = counts.get(token, 0) + 1
    tokens = sorted(t for t, c in counts.items() if c >= _MIN_TOKEN_COUNT)
    if not tokens:
        raise InvalidArgumentError("no tokens survive the frequency cutoff")
    index = {t: j for j, t in enumerate(tokens)}

    X = _count_matrix(train, index)
    y = np.array([1.0 if r.gold_label == LABEL_POSITIVE else 0.0 for r in train])
    w = np.zeros(len(tokens))
    b = 0.0
    n = len(train)
    for _ in range(_EPOCHS):
        z = X @ w + b
        err = 1.0 / (1.0 + np.exp(-z)) - y
        w -= _LEARNING_RATE * (X.T @ err) / n
        b -= _LEARNING_RATE * float(err.mean())

    if validation:
        Xv = _count_matrix(validation, index)
        yv = np.array([1.0 if r.gold_label == LABEL_POSITIVE else 0.0 for r in validation])
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
    model: BaselineModel, records: Sequence[ArticleRecord], gazetteer: Gazetteer | None = None
) -> tuple[list[ArticleRecord], dict[str, float]]:
    """Label every record; scores are returned for threshold audits.

    With a gazetteer, each record without a state also gets the state
    resolved from the tokens it is scored on; a blank such record is an
    InvalidArgumentError naming its id. Each text is tokenized once.
    """
    logits = np.empty(len(records))
    states: list[str | None] = []
    for i, (record, tokens) in enumerate(zip(records, tokenize_texts(r.text() for r in records))):
        logits[i] = model.logit(tokens)
        state = None
        if gazetteer is not None and record.state is None:
            if not tokens and not record.text().strip():
                raise InvalidArgumentError(f"article {record.id!r}: text must be nonempty")
            state = resolve_tokens(tokens, gazetteer)
        states.append(state)
    scores = (1.0 / (1.0 + np.exp(-logits))).tolist()
    threshold = model.threshold
    labeled = [
        record.updated(LABEL_POSITIVE if score >= threshold else LABEL_NEGATIVE, state)
        for record, score, state in zip(records, scores, states)
    ]
    return labeled, {record.id: score for record, score in zip(records, scores)}


def _as_label_map(source, attr: str) -> dict[str, str]:
    if isinstance(source, Mapping):
        return {str(k): str(v) for k, v in source.items()}
    out: dict[str, str] = {}
    for record in source:
        label = getattr(record, attr)
        if label is None:
            raise InvalidArgumentError(f"article {record.id!r} has no {attr}")
        out[record.id] = label
    return out


def evaluate(predictions, gold) -> DetectionMetrics:
    """Precision, recall, and F1 of predictions against gold labels.

    Inputs may be record sequences (using predicted_label / gold_label) or
    id->label mappings; the id sets must match exactly. Zero-denominator
    metrics are reported as 0 with a warning.
    """
    pred_map = _as_label_map(predictions, "predicted_label")
    gold_map = _as_label_map(gold, "gold_label")
    if set(pred_map) != set(gold_map):
        missing = set(gold_map) ^ set(pred_map)
        raise InvalidArgumentError(f"prediction/gold id mismatch ({len(missing)} ids differ)")
    tp = fp = tn = fn = 0
    for rid, predicted in pred_map.items():
        actual = gold_map[rid]
        if predicted == LABEL_POSITIVE and actual == LABEL_POSITIVE:
            tp += 1
        elif predicted == LABEL_POSITIVE:
            fp += 1
        elif actual == LABEL_POSITIVE:
            fn += 1
        else:
            tn += 1

    def safe_ratio(num: int, den: int, name: str) -> float:
        if den == 0:
            warnings.warn(f"{name} denominator is zero; reporting 0", stacklevel=3)
            return 0.0
        return num / den

    precision = safe_ratio(tp, tp + fp, "precision")
    recall = safe_ratio(tp, tp + fn, "recall")
    f1 = safe_ratio(2 * tp, 2 * tp + fp + fn, "F1")
    return DetectionMetrics(precision, recall, f1, ConfusionCounts(tp, fp, tn, fn))
