"""Aggregate dated, classified article records into quarterly predictor
series, nationally and per state."""

from __future__ import annotations

import csv
import datetime as dt
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .exceptions import InvalidArgumentError, decode_utf8
from .geo import UNKNOWN_STATE, US_STATE_CODES
from .reporting import format_float
from .series import NATIONAL, PanelDataset, Quarter

LABEL_POSITIVE = "hate_crime"
LABEL_NEGATIVE = "not_hate_crime"
LABELS = (LABEL_POSITIVE, LABEL_NEGATIVE)
# The variables of a signal frame, in the column order of the signal CSVs.
SIGNALS = ("news_num", "event_detected_num", "hate_reported_index")


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
        if self.gold_label is not None and self.gold_label not in LABELS:
            raise InvalidArgumentError(f"article {self.id}: gold_label must be one of {LABELS}")
        if self.predicted_label is not None and self.predicted_label not in LABELS:
            raise InvalidArgumentError(f"article {self.id}: predicted_label must be one of {LABELS}")

    def text(self) -> str:
        return f"{self.title}\n{self.body}"

    def updated(self, predicted_label: str | None = None, state: str | None = None) -> "ArticleRecord":
        """A copy with the given predicted_label and state (None keeps this
        record's), validated by the constructor; about half the cost of
        `dataclasses.replace` per record."""
        return ArticleRecord(
            self.id,
            self.date,
            self.title,
            self.body,
            self.gold_label,
            self.predicted_label if predicted_label is None else predicted_label,
            self.state if state is None else state,
        )


def load_articles(path: str | Path) -> list[ArticleRecord]:
    """Read a JSON-lines UTF-8 corpus, rejecting duplicate ids and a `state`
    that is not null, a state code or UNKNOWN."""
    path = Path(path)
    records: list[ArticleRecord] = []
    seen: set[str] = set()
    decode = json.JSONDecoder().decode
    with path.open("rb") as fh:
        for lineno, data in enumerate(fh, start=1):
            line = decode_utf8(data, path, lineno).strip()
            if not line:
                continue
            try:
                raw = decode(line)
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
                if record.state not in (None, UNKNOWN_STATE) and record.state not in US_STATE_CODES:
                    raise ValueError(f"state must be a state code or {UNKNOWN_STATE!r}, got {record.state!r}")
            except (KeyError, TypeError, ValueError) as exc:
                raise InvalidArgumentError(f"{path}:{lineno}: bad record ({exc})") from exc
            if record.id in seen:
                raise InvalidArgumentError(f"{path}:{lineno}: duplicate article id {record.id!r}")
            seen.add(record.id)
            records.append(record)
    return records


def write_articles(records: Iterable[ArticleRecord], path: str | Path) -> None:
    """One JSON object per line, as `json.dumps` writes it: the same string
    encoder and separators, without building a dict per record."""
    enc = json.encoder.encode_basestring_ascii
    with Path(path).open("w") as fh:
        for r in records:
            line = f'{{"id": {enc(r.id)}, "date": "{r.date.isoformat()}", '
            line += f'"title": {enc(r.title)}, "body": {enc(r.body)}'
            if r.gold_label is not None:
                line += f', "gold_label": {enc(r.gold_label)}'
            if r.predicted_label is not None:
                line += f', "predicted_label": {enc(r.predicted_label)}'
            if r.state is not None:
                line += f', "state": {enc(r.state)}'
            fh.write(line + "}\n")


def _count(records: Sequence[ArticleRecord], span: tuple[Quarter, Quarter] | None) -> tuple[list, Quarter, np.ndarray]:
    """The sorted states, the first quarter and the news and event counts
    (states × quarters × 2) over the span (by default the first to the last
    quarter with records), in one pass; a state outside the span keeps a row."""
    cells: dict[tuple[str | None, int], list[int]] = {}
    for record in records:
        if record.predicted_label is None:
            raise InvalidArgumentError(f"article {record.id!r} has no predicted_label")
        d = record.date
        cell = cells.setdefault((record.state, d.year * 4 + (d.month - 1) // 3), [0, 0])
        cell[0] += 1
        cell[1] += record.predicted_label == LABEL_POSITIVE
    if span is not None:
        lo, hi = (q.year * 4 + q.quarter - 1 for q in span)
    elif cells:
        lo, hi = min(t for _, t in cells), max(t for _, t in cells)
    else:
        raise InvalidArgumentError("no records and no explicit span to aggregate over")
    states = sorted({state for state, _ in cells}, key=str)
    row = {state: i for i, state in enumerate(states)}
    counts = np.zeros((len(states), max(hi - lo + 1, 0), 2))
    for (state, t), cell in cells.items():
        if lo <= t <= hi:
            counts[row[state], t - lo] = cell
    return states, Quarter(lo // 4, lo % 4 + 1), counts


def _frame(units: Sequence[str], start: Quarter, counts: np.ndarray) -> PanelDataset:
    """The signal frame of news and event counts (units × quarters × 2), every
    row present; hate_reported_index is events / news, 0.0 where news is 0."""
    news, events = counts[:, :, 0], counts[:, :, 1]
    index = np.divide(events, news, out=np.zeros(news.shape), where=news > 0)
    values = np.stack([news, events, index], axis=2)
    return PanelDataset(tuple(units), start, SIGNALS, values, np.ones(news.shape, bool))


def _summed(states: Sequence[str | None], start: Quarter, counts: np.ndarray) -> PanelDataset:
    """The national frame: the counts summed over the states, without a unit
    when there are no states (no records)."""
    if not states:
        return _frame((), start, counts)
    return _frame((NATIONAL,), start, counts.sum(axis=0, keepdims=True))


def aggregate_quarterly(
    records: Sequence[ArticleRecord], span: tuple[Quarter, Quarter] | None = None
) -> PanelDataset:
    """The national signal frame (unit NATIONAL): articles, detected events
    and their ratio per quarter over the span.

    Every record must carry a predicted_label; quarters without records show
    zero counts. Records outside an explicit span are ignored.
    """
    return _summed(*_count(records, span))


@dataclass(frozen=True)
class StateSignals:
    """The national and the per-state signal frame, over the same quarters.
    UNKNOWN-state records count toward the national totals and the unknown
    share only, records outside the span toward the share only."""

    national: PanelDataset
    by_state: PanelDataset
    unknown_share: float


def aggregate_by_state(
    records: Sequence[ArticleRecord], span: tuple[Quarter, Quarter] | None = None
) -> StateSignals:
    """Aggregate per (state, quarter); records must carry a resolved state.
    The records are counted once; the national frame sums the states."""
    unknown = 0
    for record in records:
        if record.state is None:
            raise InvalidArgumentError(f"article {record.id!r} has no resolved state")
        unknown += record.state == UNKNOWN_STATE
    states, start, counts = _count(records, span)
    known = [i for i, state in enumerate(states) if state != UNKNOWN_STATE]
    by_state = _frame([states[i] for i in known], start, counts[known])
    return StateSignals(_summed(states, start, counts), by_state, unknown / len(records) if records else 0.0)


def write_signals_csv(frame: PanelDataset, path: str | Path, state_column: bool = False) -> None:
    """One CSV row per unit and quarter of a signal frame, counts as integers;
    with `state_column` the unit is written in a `state` column."""
    quarters = [frame.start + t for t in range(frame.values.shape[1])]
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["year", "quarter", *(["state"] if state_column else []), *SIGNALS])
        for unit, rows in zip(frame.unit_names, frame.values.tolist()):
            keys = [unit] if state_column else []
            for q, (news, events, index) in zip(quarters, rows):
                writer.writerow([q.year, q.quarter, *keys, int(news), int(events), format_float(index)])


def write_state_signals_csv(state_signals: StateSignals, path: str | Path) -> None:
    write_signals_csv(state_signals.by_state, path, state_column=True)
