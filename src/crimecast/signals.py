"""Read and write article corpora as columns, and aggregate dated,
classified articles into quarterly predictor series, nationally and per
state. A corpus is read, and can be aggregated, a chunk of at most
`geo._CHUNK` articles at a time, so that no caller need hold its text."""

from __future__ import annotations

import datetime as dt
import json
from contextlib import nullcontext
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import geo
from .exceptions import InvalidArgumentError, decode_utf8
from .geo import UNKNOWN_STATE, US_STATE_CODES
from .reporting import write_csv
from .series import NATIONAL, PanelDataset, Quarter

LABEL_POSITIVE = "hate_crime"
LABEL_NEGATIVE = "not_hate_crime"
LABELS = (LABEL_POSITIVE, LABEL_NEGATIVE)
# The variables of a signal frame, in the column order of the signal CSVs.
SIGNALS = ("news_num", "event_detected_num", "hate_reported_index")


def _check(id: str, date: dt.date, gold_label, predicted_label) -> None:
    """The checks an article record makes on its fields."""
    if not id:
        raise InvalidArgumentError("article id must be nonempty")
    if not isinstance(date, dt.date):
        raise InvalidArgumentError(f"article {id}: date must be a datetime.date")
    if gold_label is not None and gold_label not in LABELS:
        raise InvalidArgumentError(f"article {id}: gold_label must be one of {LABELS}")
    if predicted_label is not None and predicted_label not in LABELS:
        raise InvalidArgumentError(f"article {id}: predicted_label must be one of {LABELS}")


@dataclass(frozen=True)
class ArticleRecord:
    """One news item with optional gold label, prediction, and state: a row
    of a `Corpus`."""

    id: str
    date: dt.date
    title: str
    body: str
    gold_label: str | None = None
    predicted_label: str | None = None
    state: str | None = None

    def __post_init__(self) -> None:
        _check(self.id, self.date, self.gold_label, self.predicted_label)

    def text(self) -> str:
        return f"{self.title}\n{self.body}"


@dataclass(frozen=True)
class Corpus:
    """Articles as equal-length columns, one entry per article in file order;
    iteration gives `ArticleRecord` rows."""

    ids: list[str]
    dates: list[dt.date]
    titles: list[str]
    bodies: list[str]
    gold: list[str | None]
    predicted: list[str | None]
    states: list[str | None]

    def __post_init__(self) -> None:
        if len({len(column) for column in self.columns()}) > 1:
            raise InvalidArgumentError("corpus columns must have equal lengths")

    @classmethod
    def of(cls, records: Sequence[ArticleRecord]) -> "Corpus":
        return cls(*([getattr(r, f.name) for r in records] for f in fields(ArticleRecord)))

    def columns(self) -> tuple[list, ...]:
        return self.ids, self.dates, self.titles, self.bodies, self.gold, self.predicted, self.states

    def texts(self) -> Iterator[str]:
        """Each article's text, as `ArticleRecord.text` gives it."""
        return (f"{title}\n{body}" for title, body in zip(self.titles, self.bodies))

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[ArticleRecord]:
        return map(ArticleRecord, *self.columns())

def read_articles(path: str | Path, start: int = 0, end: int | None = None) -> Iterator[Corpus]:
    """A JSON-lines UTF-8 corpus in file order, in chunks of at most
    `geo._CHUNK` articles. A duplicate id (of any chunk), a `state` not null,
    a state code or UNKNOWN, or another bad line raises naming `path:line`.
    With `start` and `end`, only the lines that begin in that byte range are
    read; `start` must be a line start, and lines count from it."""
    path = Path(path)
    columns: tuple[list, ...] = tuple([] for _ in fields(Corpus))
    ids, dates, titles, bodies, gold, predicted, states = columns
    seen: set[str] = set()
    decode = json.JSONDecoder().decode
    with path.open("rb") as fh:
        fh.seek(start)
        offset = start
        for lineno, data in enumerate(fh, start=1):
            if end is not None and offset >= end:
                break
            offset += len(data)
            line = decode_utf8(data, path, lineno).strip()
            if not line:
                continue
            try:
                raw = decode(line)
            except json.JSONDecodeError as exc:
                raise InvalidArgumentError(f"{path}:{lineno}: invalid JSON") from exc
            try:
                rid = str(raw["id"])
                date = dt.date.fromisoformat(raw["date"])
                title, body = str(raw.get("title", "")), str(raw.get("body", ""))
                labels = raw.get("gold_label"), raw.get("predicted_label")
                _check(rid, date, *labels)
                state = raw.get("state")
                if state not in (None, UNKNOWN_STATE) and state not in US_STATE_CODES:
                    raise ValueError(f"state must be a state code or {UNKNOWN_STATE!r}, got {state!r}")
            except (KeyError, TypeError, ValueError) as exc:
                raise InvalidArgumentError(f"{path}:{lineno}: bad record ({exc})") from exc
            if rid in seen:
                raise InvalidArgumentError(f"{path}:{lineno}: duplicate article id {rid!r}")
            seen.add(rid)
            ids.append(rid)
            dates.append(date)
            titles.append(title)
            bodies.append(body)
            gold.append(labels[0])
            predicted.append(labels[1])
            states.append(state)
            if len(ids) == geo._CHUNK:
                yield Corpus(*columns)
                columns = tuple([] for _ in fields(Corpus))
                ids, dates, titles, bodies, gold, predicted, states = columns
    if ids:
        yield Corpus(*columns)


def load_articles(path: str | Path) -> Corpus:
    """The whole corpus, the chunks of `read_articles` joined."""
    chunks = [chunk.columns() for chunk in read_articles(path)] or [tuple([] for _ in fields(Corpus))]
    return Corpus(*(list(chain.from_iterable(parts)) for parts in zip(*chunks)))


def write_articles(corpus: Corpus, path: str | Path | TextIO) -> None:
    """One JSON object per line, as `json.dumps` writes it: the same string
    encoder and separators, without building a dict per article. `path` may
    be a text file open for writing, to which the lines are appended."""
    enc = json.encoder.encode_basestring_ascii
    with Path(path).open("w") if isinstance(path, (str, Path)) else nullcontext(path) as fh:
        for rid, date, title, body, gold, predicted, state in zip(*corpus.columns()):
            line = f'{{"id": {enc(rid)}, "date": "{date.isoformat()}", "title": {enc(title)}, "body": {enc(body)}'
            if gold is not None:
                line += f', "gold_label": {enc(gold)}'
            if predicted is not None:
                line += f', "predicted_label": {enc(predicted)}'
            if state is not None:
                line += f', "state": {enc(state)}'
            fh.write(line + "}\n")


@dataclass(frozen=True)
class Tally:
    """The columns the signals count articles from, in article order: each
    one's quarter (year * 4 + quarter - 1) and state code, int32, and
    positive flag; `states[c]` is the state of code c."""

    states: tuple[str | None, ...]
    quarters: np.ndarray
    codes: np.ndarray
    positive: np.ndarray


def tally(articles: Corpus | Iterable[Corpus], resolved: bool = False) -> Tally:
    """The tally of a corpus or its chunks, each chunk folded in as it comes.
    Each article needs a predicted_label and, when `resolved`, a state."""
    code: dict[str | None, int] = {}
    parts = [(np.zeros(0, np.int32),) * 2 + (np.zeros(0, bool),)]
    for chunk in [articles] if isinstance(articles, Corpus) else articles:
        if resolved and None in chunk.states:
            raise InvalidArgumentError(f"article {chunk.ids[chunk.states.index(None)]!r} has no resolved state")
        if None in chunk.predicted:
            raise InvalidArgumentError(f"article {chunk.ids[chunk.predicted.index(None)]!r} has no predicted_label")
        parts.append((
            np.array([d.year * 4 + (d.month - 1) // 3 for d in chunk.dates], dtype=np.int32),
            np.array([code.setdefault(state, len(code)) for state in chunk.states], dtype=np.int32),
            np.array([label == LABEL_POSITIVE for label in chunk.predicted], dtype=bool),
        ))
    return Tally(tuple(code), *(np.concatenate(column) for column in zip(*parts)))


def merge_tallies(tallies: Sequence[Tally]) -> Tally:
    """The tally of the articles of `tallies`, one after the other."""
    code: dict[str | None, int] = {}
    recoded = [np.array([code.setdefault(s, len(code)) for s in t.states], dtype=np.int32)[t.codes] for t in tallies]
    return Tally(
        tuple(code),
        np.concatenate([t.quarters for t in tallies]),
        np.concatenate(recoded),
        np.concatenate([t.positive for t in tallies]),
    )


def _count(
    articles: Corpus | Iterable[Corpus] | Tally, span: tuple[Quarter, Quarter] | None, resolved: bool = False
) -> tuple:
    """The sorted states, the first quarter, the news and event counts
    (states × quarters × 2) over the span (by default the quarters with
    articles) and the UNKNOWN share, from one bincount of a tally (made
    here from a corpus or its chunks); a state outside the span keeps a
    row. With `resolved`, every article needs a state."""
    if not isinstance(articles, Tally):
        articles = tally(articles, resolved)
    elif resolved and None in articles.states:
        raise InvalidArgumentError("a tallied article has no resolved state")
    t, codes, positive = articles.quarters, articles.codes, articles.positive
    if span is not None:
        lo, hi = (q.year * 4 + q.quarter - 1 for q in span)
    elif len(t):
        lo, hi = int(t.min()), int(t.max())
    else:
        raise InvalidArgumentError("no records and no explicit span to aggregate over")
    states = sorted(articles.states, key=str)
    rank = np.array([states.index(state) for state in articles.states], dtype=np.intp)
    width = max(hi - lo + 1, 0)
    kept = (t >= lo) & (t <= hi)
    cells = rank[codes[kept]] * width + (t[kept] - lo)
    size = len(states) * width
    counts = np.stack([np.bincount(cells, minlength=size), np.bincount(cells, positive[kept], minlength=size)], axis=1)
    unknown = 0.0
    if UNKNOWN_STATE in articles.states:
        unknown = np.count_nonzero(codes == articles.states.index(UNKNOWN_STATE)) / len(t)
    return states, Quarter(lo // 4, lo % 4 + 1), counts.astype(float).reshape(len(states), width, 2), unknown


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
    corpus: Corpus | Iterable[Corpus] | Tally, span: tuple[Quarter, Quarter] | None = None
) -> PanelDataset:
    """The national signal frame (unit NATIONAL): articles, detected events
    and their ratio per quarter over the span, from a corpus, its chunks or
    its tally.

    Every article must carry a predicted_label; quarters without articles
    show zero counts. Articles outside an explicit span are ignored.
    """
    return _summed(*_count(corpus, span)[:3])


@dataclass(frozen=True)
class StateSignals:
    """The national and the per-state signal frame, over the same quarters.
    UNKNOWN-state records count toward the national totals and the unknown
    share only, records outside the span toward the share only."""

    national: PanelDataset
    by_state: PanelDataset
    unknown_share: float


def aggregate_by_state(
    corpus: Corpus | Iterable[Corpus] | Tally, span: tuple[Quarter, Quarter] | None = None
) -> StateSignals:
    """Aggregate a corpus, its chunks or its tally per (state, quarter); articles must
    carry a resolved state. The articles are counted once; the national
    frame sums the states."""
    states, start, counts, unknown_share = _count(corpus, span, resolved=True)
    known = [i for i, state in enumerate(states) if state != UNKNOWN_STATE]
    by_state = _frame([states[i] for i in known], start, counts[known])
    return StateSignals(_summed(states, start, counts), by_state, unknown_share)


def write_signals_csv(frame: PanelDataset, path: str | Path, state_column: bool = False) -> None:
    """One CSV row per unit and quarter of a signal frame, counts as integers;
    with `state_column` the unit is written in a `state` column."""
    quarters = [frame.start + t for t in range(frame.values.shape[1])]
    rows = (
        (q.year, q.quarter, *([unit] if state_column else []), int(news), int(events), index)
        for unit, values in zip(frame.unit_names, frame.values.tolist())
        for q, (news, events, index) in zip(quarters, values)
    )
    write_csv(("year", "quarter", *(["state"] if state_column else []), *SIGNALS), rows, path)


def write_state_signals_csv(state_signals: StateSignals, path: str | Path) -> None:
    write_signals_csv(state_signals.by_state, path, state_column=True)
