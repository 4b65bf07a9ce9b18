"""Aggregate dated, classified article records into quarterly predictor
series, nationally and per state."""

from __future__ import annotations

import csv
import datetime as dt
import json
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .exceptions import InvalidArgumentError
from .geo import UNKNOWN_STATE
from .reporting import format_float
from .series import Quarter, TimeSeries

LABEL_POSITIVE = "hate_crime"
LABEL_NEGATIVE = "not_hate_crime"
LABELS = (LABEL_POSITIVE, LABEL_NEGATIVE)


@dataclass(frozen=True)
class ArticleRecord:
    """One news item with optional gold label, prediction, and state."""

    id: str
    date: dt.date
    title: str
    body: str
    gold_label: str | None = None
    predicted_label: str | None = None
    state: str | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise InvalidArgumentError("article id must be nonempty")
        if not isinstance(self.date, dt.date):
            raise InvalidArgumentError(f"article {self.id}: date must be a datetime.date")
        for attr in ("gold_label", "predicted_label"):
            value = getattr(self, attr)
            if value is not None and value not in LABELS:
                raise InvalidArgumentError(f"article {self.id}: {attr} must be one of {LABELS}")

    def quarter(self) -> Quarter:
        return Quarter.from_date(self.date)

    def text(self) -> str:
        return f"{self.title}\n{self.body}"


def load_articles(path: str | Path) -> list[ArticleRecord]:
    """Read a JSON-lines corpus, rejecting duplicate ids."""
    path = Path(path)
    records: list[ArticleRecord] = []
    seen: set[str] = set()
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InvalidArgumentError(f"{path}:{lineno}: invalid JSON") from exc
            try:
                record = ArticleRecord(
                    id=str(raw["id"]),
                    date=dt.date.fromisoformat(raw["date"]),
                    title=str(raw.get("title", "")),
                    body=str(raw.get("body", "")),
                    gold_label=raw.get("gold_label"),
                    predicted_label=raw.get("predicted_label"),
                    state=raw.get("state"),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise InvalidArgumentError(f"{path}:{lineno}: bad record ({exc})") from exc
            if record.id in seen:
                raise InvalidArgumentError(f"{path}:{lineno}: duplicate article id {record.id!r}")
            seen.add(record.id)
            records.append(record)
    return records


def write_articles(records: Iterable[ArticleRecord], path: str | Path) -> None:
    with Path(path).open("w") as fh:
        for r in records:
            payload = {
                "id": r.id,
                "date": r.date.isoformat(),
                "title": r.title,
                "body": r.body,
            }
            if r.gold_label is not None:
                payload["gold_label"] = r.gold_label
            if r.predicted_label is not None:
                payload["predicted_label"] = r.predicted_label
            if r.state is not None:
                payload["state"] = r.state
            fh.write(json.dumps(payload, sort_keys=False) + "\n")


def hate_reported_index(event_detected_num: int, news_num: int) -> float:
    """Share of articles flagged as hate-crime events in a quarter."""
    if event_detected_num < 0 or news_num < 0:
        raise InvalidArgumentError("counts must be >= 0")
    if event_detected_num > news_num:
        raise InvalidArgumentError(
            f"event_detected_num {event_detected_num} exceeds news_num {news_num}"
        )
    if news_num == 0:
        warnings.warn("news_num is 0; hate_reported_index set to 0", stacklevel=2)
        return 0.0
    return event_detected_num / news_num


@dataclass(frozen=True)
class QuarterlySignals:
    """Per-quarter counts and the derived reporting-intensity index."""

    start: Quarter
    news_num: tuple[int, ...]
    event_detected_num: tuple[int, ...]
    hate_reported_index: tuple[float, ...]
    state: str | None = None

    def __post_init__(self) -> None:
        n = len(self.news_num)
        if len(self.event_detected_num) != n or len(self.hate_reported_index) != n:
            raise InvalidArgumentError("signal columns must have equal length")
        for news, events, idx in zip(self.news_num, self.event_detected_num, self.hate_reported_index):
            if events > news or news < 0 or events < 0:
                raise InvalidArgumentError("need 0 <= event_detected_num <= news_num")
            expected = events / news if news else 0.0
            if abs(idx - expected) > 1e-12:
                raise InvalidArgumentError("hate_reported_index inconsistent with counts")

    def __len__(self) -> int:
        return len(self.news_num)

    def quarters(self) -> list[Quarter]:
        return [self.start + i for i in range(len(self))]

    def _prefix(self) -> str:
        return f"{self.state}_" if self.state else ""

    def news_series(self) -> TimeSeries:
        return TimeSeries(self._prefix() + "news_num", self.start, tuple(float(v) for v in self.news_num))

    def events_series(self) -> TimeSeries:
        return TimeSeries(
            self._prefix() + "event_detected_num", self.start, tuple(float(v) for v in self.event_detected_num)
        )

    def index_series(self) -> TimeSeries:
        return TimeSeries(self._prefix() + "hate_reported_index", self.start, self.hate_reported_index)


def _bucket(records: Sequence[ArticleRecord]) -> dict[tuple[str | None, Quarter], list[int]]:
    """[news, events] per (state, quarter), in one pass over the records."""
    counts: dict[tuple[str | None, Quarter], list[int]] = {}
    for record in records:
        if record.predicted_label is None:
            raise InvalidArgumentError(f"article {record.id!r} has no predicted_label")
        cell = counts.setdefault((record.state, record.quarter()), [0, 0])
        cell[0] += 1
        cell[1] += record.predicted_label == LABEL_POSITIVE
    return counts


def _signals_from_buckets(
    buckets: Mapping[Quarter, tuple[int, int]],
    span: tuple[Quarter, Quarter],
    state: str | None = None,
) -> QuarterlySignals:
    start, end = span
    news: list[int] = []
    events: list[int] = []
    index: list[float] = []
    for i in range(end - start + 1):
        n, e = buckets.get(start + i, (0, 0))
        news.append(n)
        events.append(e)
        index.append(e / n if n else 0.0)
    return QuarterlySignals(start, tuple(news), tuple(events), tuple(index), state=state)


def _national(
    cells: Mapping[tuple[str | None, Quarter], list[int]], span: tuple[Quarter, Quarter] | None
) -> QuarterlySignals:
    """The (state, quarter) counts summed over the states, over the span (by
    default from the first to the last quarter with records)."""
    buckets: dict[Quarter, tuple[int, int]] = {}
    for (_, q), (news, events) in cells.items():
        n, e = buckets.get(q, (0, 0))
        buckets[q] = (n + news, e + events)
    if span is None:
        if not buckets:
            raise InvalidArgumentError("no records and no explicit span to aggregate over")
        span = (min(buckets), max(buckets))
    return _signals_from_buckets(buckets, span)


def aggregate_quarterly(
    records: Sequence[ArticleRecord], span: tuple[Quarter, Quarter] | None = None
) -> QuarterlySignals:
    """Count articles and detected events per quarter over the span.

    Every record must carry a predicted_label; quarters without records show
    zero counts. Records outside an explicit span are ignored.
    """
    return _national(_bucket(records), span)


@dataclass(frozen=True)
class StateSignals:
    """National signals plus one series per resolved state.

    UNKNOWN-state records count toward the national totals only.
    """

    national: QuarterlySignals
    by_state: Mapping[str, QuarterlySignals]
    unknown_share: float


def aggregate_by_state(
    records: Sequence[ArticleRecord], span: tuple[Quarter, Quarter] | None = None
) -> StateSignals:
    """Aggregate per (state, quarter); records must carry a resolved state.
    The records are counted once; the national series sums the states."""
    for record in records:
        if record.state is None:
            raise InvalidArgumentError(f"article {record.id!r} has no resolved state")
    cells = _bucket(records)
    national = _national(cells, span)
    frame = (national.start, national.start + (len(national) - 1))
    per_state: dict[str | None, dict[Quarter, list[int]]] = {}
    for (state, q), cell in cells.items():
        per_state.setdefault(state, {})[q] = cell
    unknown = sum(n for n, _ in per_state.pop(UNKNOWN_STATE, {}).values())
    by_state = {state: _signals_from_buckets(per_state[state], frame, state=state) for state in sorted(per_state)}
    share = unknown / len(records) if records else 0.0
    return StateSignals(national=national, by_state=by_state, unknown_share=share)


def write_signals_csv(signals: QuarterlySignals, path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["year", "quarter", "news_num", "event_detected_num", "hate_reported_index"])
        for q, n, e, idx in zip(
            signals.quarters(), signals.news_num, signals.event_detected_num, signals.hate_reported_index
        ):
            writer.writerow([q.year, q.quarter, n, e, format_float(idx)])


def write_state_signals_csv(state_signals: StateSignals, path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["year", "quarter", "state", "news_num", "event_detected_num", "hate_reported_index"])
        for state in sorted(state_signals.by_state):
            signals = state_signals.by_state[state]
            for q, n, e, idx in zip(
                signals.quarters(), signals.news_num, signals.event_detected_num, signals.hate_reported_index
            ):
                writer.writerow([q.year, q.quarter, state, n, e, format_float(idx)])


def relabel(record: ArticleRecord, predicted_label: str) -> ArticleRecord:
    return replace(record, predicted_label=predicted_label)


def with_state(record: ArticleRecord, state: str) -> ArticleRecord:
    return replace(record, state=state)
