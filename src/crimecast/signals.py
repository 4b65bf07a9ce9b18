"""Read and write article corpora as columns, and aggregate dated,
classified articles into quarterly predictor series, nationally and per
state. A corpus is read a chunk of at most `_CHUNK` articles at a
time and aggregated from the `Tally` of its chunks, so that no caller need
hold its text."""

from __future__ import annotations

import datetime as dt
import json
import os
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .exceptions import InvalidArgumentError, not_utf8
from .geo import UNKNOWN_STATE, US_STATE_CODES
from .record import Record
from .reporting import write_csv
from .series import NATIONAL, PanelDataset, Quarter, quarter_index

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


class ArticleRecord(Record):
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


class Corpus(Record):
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

    def columns(self) -> tuple[list, ...]:
        return self.ids, self.dates, self.titles, self.bodies, self.gold, self.predicted, self.states

    def texts(self) -> Iterator[str]:
        """Each article's text, as `ArticleRecord.text` gives it."""
        return (f"{title}\n{body}" for title, body in zip(self.titles, self.bodies))

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[ArticleRecord]:
        return map(ArticleRecord, *self.columns())


# The one code of each value of the categorical columns of the corpus pass:
# its place in the tuple. The states are None (unresolved), UNKNOWN and the
# state codes in `str` order, the order of the signal rows.
STATES = tuple(sorted({None, UNKNOWN_STATE, *US_STATE_CODES}, key=str))
_STATE_CODE = {state: code for code, state in enumerate(STATES)}
LABEL_CODES = (None, *LABELS)


_CHUNK = 4096  # articles per `read_articles` chunk
# An article file of at least this many bytes is parsed with orjson: below
# it, a cold `import orjson` (3-9 ms, with the `uuid` and `zoneinfo` it
# loads) costs more than orjson saves, about 0.7 us a line.
_ORJSON_BYTES = 2 << 20
# orjson 3.8 converts its parse to Python objects recursively, without a
# depth limit, and overflows the C stack on a line nested about 150,000 deep
# (8 MiB stack). A line of at most this many bytes nests at most 4,096 deep;
# a longer one goes to the scanner, which refuses what it cannot nest.
_ORJSON_LINE_BYTES = 1 << 13
_RECORD_KEYS = frozenset(ArticleRecord._fields)  # the keys of an article line


def _nests(raw: dict) -> bool:
    """Whether a key of `raw` beyond the record's holds an object or array."""
    return any(type(raw[key]) in (dict, list) for key in raw.keys() - _RECORD_KEYS)


def read_articles(path: str | Path, start: int = 0, end: int | None = None) -> Iterator[Corpus]:
    """A JSON-lines UTF-8 corpus in file order, in chunks of at most
    `_CHUNK` articles. A duplicate id (of any chunk), an `id`, `title` or
    `body` that is not a string, a `date` not `YYYY-MM-DD`, a `state` not
    null, a state code or UNKNOWN, or another bad line raises naming
    `path:line`. With `start` and `end`, only the lines that begin in that
    byte range are read; `start` must be a line start, and lines count from
    it.

    Each line is decoded, stripped and parsed by the C scanner that
    `json.JSONDecoder.decode` calls, which must end at the line's end. In a
    file of at least `_ORJSON_BYTES` (the whole file's size decides, so that
    every range takes the same path), `orjson.loads` parses each raw line of
    at most `_ORJSON_LINE_BYTES` first, and the line keeps that value when
    it is an object whose keys beyond the record's hold no object or array,
    and it passes the checks. Every other line, and so every message, takes
    the scanner path. The two
    paths keep the same lines with the same values: orjson refuses NaN,
    infinities, lone surrogates, bytes that are not UTF-8 and whitespace
    that is not JSON's; the integers beyond 64 bits that it reads as floats
    pass no check; and a field that nests fails a check, while the rule on
    the other keys sends any other nesting, which the scanner may refuse, to
    the scanner."""
    path = Path(path)
    columns: tuple[list, ...] = tuple([] for _ in Corpus._fields)
    ids, dates, titles, bodies, gold, predicted, states = columns
    seen: set[str] = set()
    days: dict[str, dt.date] = {}
    # The scan that `JSONDecoder.decode` runs. On a stripped line the
    # whitespace `decode` skips around it is empty, so a scan that ends at
    # the line's end is `decode`'s parse.
    scan = json.scanner.make_scanner(json.JSONDecoder())
    flat = _RECORD_KEYS.issuperset
    with path.open("rb") as fh:
        loads = None
        if os.fstat(fh.fileno()).st_size >= _ORJSON_BYTES:
            import orjson

            loads = orjson.loads
        fh.seek(start)
        offset = start
        for lineno, data in enumerate(fh, start=1):
            if end is not None and offset >= end:
                break
            offset += len(data)
            # A line is parsed by orjson, and again by the scanner when
            # orjson refuses it or its value fails a check; the scanner's
            # parse is final.
            fast = loads is not None and len(data) <= _ORJSON_LINE_BYTES
            while True:
                if fast:
                    try:
                        raw = loads(data)
                    except ValueError:  # an orjson.JSONDecodeError
                        raw = None
                    if type(raw) is not dict or not flat(raw) and _nests(raw):
                        fast = False
                        continue
                else:
                    try:
                        line = data.decode().strip()
                    except UnicodeDecodeError as exc:
                        raise not_utf8(data, exc, path, lineno) from None
                    if not line:
                        break
                    try:
                        raw, stop = scan(line, 0)
                    except (StopIteration, ValueError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
                        raise InvalidArgumentError(f"{path}:{lineno}: invalid JSON") from exc
                    if stop != len(line):
                        raise InvalidArgumentError(f"{path}:{lineno}: invalid JSON")
                try:
                    rid, day = raw["id"], raw["date"]
                    date = days.get(day) if type(day) is str else None
                    if date is None:  # a date string new to this read, or not a string
                        # From Python 3.11 `fromisoformat` also reads 20190105
                        # and week dates; they get its message for a bad string.
                        if type(day) is str and not (len(day) == 10 and day[4] == day[7] == "-"):
                            raise ValueError(f"Invalid isoformat string: {day!r}")
                        date = days[day] = dt.date.fromisoformat(day)
                    title, body = raw.get("title", ""), raw.get("body", "")
                    if type(rid) is not str or type(title) is not str or type(body) is not str:
                        named = {"id": rid, "title": title, "body": body}
                        name = next(name for name, value in named.items() if type(value) is not str)
                        raise ValueError(f"{name} must be a string, got {named[name]!r}")
                    gold_label, predicted_label = raw.get("gold_label"), raw.get("predicted_label")
                    # A tuple compares by equality, so any other label,
                    # unhashable ones too, gets `_check`'s message; the dict
                    # rejects an unhashable state with its TypeError.
                    if not rid or gold_label not in LABEL_CODES or predicted_label not in LABEL_CODES:
                        _check(rid, date, gold_label, predicted_label)
                    state = raw.get("state")
                    if state not in _STATE_CODE:
                        raise ValueError(f"state must be a state code or {UNKNOWN_STATE!r}, got {state!r}")
                except (KeyError, TypeError, ValueError, RecursionError) as exc:  # a message's repr can recurse
                    if fast:
                        fast = False
                        continue
                    if isinstance(exc, RecursionError):
                        raise
                    raise InvalidArgumentError(f"{path}:{lineno}: bad record ({exc})") from exc
                if rid in seen:
                    raise InvalidArgumentError(f"{path}:{lineno}: duplicate article id {rid!r}")
                seen.add(rid)
                ids.append(rid)
                dates.append(date)
                titles.append(title)
                bodies.append(body)
                gold.append(gold_label)
                predicted.append(predicted_label)
                states.append(state)
                if len(ids) == _CHUNK:
                    yield Corpus(*columns)
                    columns = tuple([] for _ in Corpus._fields)
                    ids, dates, titles, bodies, gold, predicted, states = columns
                break
    if ids:
        yield Corpus(*columns)


def load_articles(path: str | Path) -> Corpus:
    """The whole corpus, the chunks of `read_articles` joined."""
    chunks = [chunk.columns() for chunk in read_articles(path)] or [tuple([] for _ in Corpus._fields)]
    return Corpus(*(list(chain.from_iterable(parts)) for parts in zip(*chunks)))


def write_articles(corpus: Corpus, fh: TextIO) -> None:
    """Append one JSON object per article to the text file `fh`, as
    `json.dumps` writes it: the same string encoder and separators, without
    building a dict per article, and each distinct date formatted once."""
    enc = json.encoder.encode_basestring_ascii
    iso = {date: date.isoformat() for date in set(corpus.dates)}
    for rid, date, title, body, gold, predicted, state in zip(*corpus.columns()):
        line = f'{{"id": {enc(rid)}, "date": "{iso[date]}", "title": {enc(title)}, "body": {enc(body)}'
        if gold is not None:
            line += f', "gold_label": {enc(gold)}'
        if predicted is not None:
            line += f', "predicted_label": {enc(predicted)}'
        if state is not None:
            line += f', "state": {enc(state)}'
        fh.write(line + "}\n")


class Tally(Record):
    """The columns the signals count articles from, in article order: each
    one's quarter (`Quarter.index`) and state code (its place in `STATES`),
    int32, and positive flag."""

    quarters: np.ndarray
    codes: np.ndarray
    positive: np.ndarray


def tally(chunks: Iterable[Corpus]) -> Tally:
    """The tally of a corpus's chunks, each folded in as it comes. Each
    article needs a predicted_label and a state of `STATES`."""
    parts = [Tally(np.zeros(0, np.int32), np.zeros(0, np.int32), np.zeros(0, bool))]
    for chunk in chunks:
        if None in chunk.predicted:
            raise InvalidArgumentError(f"article {chunk.ids[chunk.predicted.index(None)]!r} has no predicted_label")
        parts.append(Tally(
            np.array([quarter_index(d.year, (d.month - 1) // 3 + 1) for d in chunk.dates], dtype=np.int32),
            np.array([_STATE_CODE[state] for state in chunk.states], dtype=np.int32),
            np.array([label == LABEL_POSITIVE for label in chunk.predicted], dtype=bool),
        ))
    return merge_tallies(parts)


def merge_tallies(tallies: Sequence[Tally]) -> Tally:
    """The tally of the articles of `tallies`, one after the other."""
    return Tally(*(np.concatenate(column) for column in zip(*((t.quarters, t.codes, t.positive) for t in tallies))))


def _count(articles: Tally, span: tuple[Quarter, Quarter]) -> tuple:
    """The states present, in `STATES` order, the first quarter, the news and
    event counts (states × quarters × 2) over the span and the UNKNOWN share,
    from the bincounts of a tally; a state outside the span keeps a row."""
    t, codes, positive = articles.quarters, articles.codes, articles.positive
    lo, hi = (q.index for q in span)
    per_state = np.bincount(codes, minlength=len(STATES))
    present = per_state > 0
    states = [STATES[code] for code in np.flatnonzero(present)]
    rank = np.cumsum(present) - 1
    width = max(hi - lo + 1, 0)
    kept = (t >= lo) & (t <= hi)
    cells = rank[codes[kept]] * width + (t[kept] - lo)
    size = len(states) * width
    counts = np.stack([np.bincount(cells, minlength=size), np.bincount(cells, positive[kept], minlength=size)], axis=1)
    unknown = int(per_state[_STATE_CODE[UNKNOWN_STATE]]) / len(t) if len(t) else 0.0
    return states, span[0], counts.astype(float).reshape(len(states), width, 2), unknown


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


def aggregate_quarterly(articles: Tally, span: tuple[Quarter, Quarter]) -> PanelDataset:
    """The national signal frame (unit NATIONAL): articles, detected events
    and their ratio per quarter over the span, from the articles' tally.
    Quarters without articles show zero counts; articles outside the span
    are ignored."""
    return _summed(*_count(articles, span)[:3])


class StateSignals(Record):
    """The national and the per-state signal frame, over the same quarters.
    UNKNOWN-state records count toward the national totals and the unknown
    share only, records outside the span toward the share only."""

    national: PanelDataset
    by_state: PanelDataset
    unknown_share: float


def aggregate_by_state(articles: Tally, span: tuple[Quarter, Quarter]) -> StateSignals:
    """Aggregate the articles' tally per (state, quarter) over the span;
    articles must carry a resolved state. The articles are counted once;
    the national frame sums the states."""
    states, start, counts, unknown_share = _count(articles, span)
    if None in states:
        raise InvalidArgumentError("a tallied article has no resolved state")
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
