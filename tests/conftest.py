import csv
import datetime as dt
import io
import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from crimecast import geo, signals
from crimecast.exceptions import InvalidArgumentError, decode_utf8
from crimecast.geo import UNKNOWN_STATE, US_STATE_CODES
from crimecast.series import Quarter
from crimecast.signals import LABELS, ArticleRecord, Corpus

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
GAZETTEER = Path(__file__).parents[1] / "src" / "crimecast" / "data" / "gazetteer.tsv"

Q0 = Quarter(2007, 1)


def cell(panel, unit: str, q: Quarter, name: str) -> float:
    """Variable `name` of `unit` at quarter `q`, read from the panel's values."""
    return float(panel.values[panel.unit_names.index(unit), q - panel.start, panel.names.index(name)])


def corpus_of(records) -> Corpus:
    """The columnar corpus of `ArticleRecord` rows, in their order."""
    return Corpus(*([getattr(r, name) for r in records] for name in ArticleRecord._fields))


def read_articles_plainly(path: Path, start: int = 0, end: int | None = None) -> Corpus:
    """The articles `signals.read_articles(path, start, end)` reads, joined,
    written out plainly: each line that begins in the byte range decoded,
    stripped and parsed by `json.loads`, then its fields checked one rule at
    a time; a date string must be `YYYY-MM-DD`. The first bad line raises
    the reader's message, naming `path:line` (lines count from `start`)."""
    data = Path(path).read_bytes()
    end = len(data) if end is None else end
    pieces = data[start:].split(b"\n")
    rows, seen, offset = [], set(), start
    for lineno, piece in enumerate(pieces, start=1):
        if offset >= end:
            break
        line = piece if lineno == len(pieces) else piece + b"\n"
        offset += len(line)
        try:
            text = line.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise InvalidArgumentError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None
        if not text:
            continue
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError):
            raise InvalidArgumentError(f"{path}:{lineno}: invalid JSON") from None
        try:
            rid, day = raw["id"], raw["date"]
            if isinstance(day, str) and not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", day):
                raise ValueError(f"Invalid isoformat string: {day!r}")
            date = dt.date.fromisoformat(day)
            title, body = raw.get("title", ""), raw.get("body", "")
            for name, value in (("id", rid), ("title", title), ("body", body)):
                if not isinstance(value, str):
                    raise ValueError(f"{name} must be a string, got {value!r}")
            if not rid:
                raise ValueError("article id must be nonempty")
            labels = raw.get("gold_label"), raw.get("predicted_label")
            for name, label in zip(("gold_label", "predicted_label"), labels):
                if label is not None and label not in LABELS:
                    raise ValueError(f"article {rid}: {name} must be one of {LABELS}")
            state = raw.get("state")
            if state is not None and state != UNKNOWN_STATE and state not in US_STATE_CODES:
                raise ValueError(f"state must be a state code or {UNKNOWN_STATE!r}, got {state!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"{path}:{lineno}: bad record ({exc})") from None
        if rid in seen:
            raise InvalidArgumentError(f"{path}:{lineno}: duplicate article id {rid!r}")
        seen.add(rid)
        rows.append((rid, date, title, body, *labels, state))
    return Corpus(*([list(column) for column in zip(*rows)] or [[] for _ in Corpus._fields]))


def read_quarterly_csv_plainly(path: Path, keys: tuple[str, ...], consecutive: bool = False):
    """What `series.read_quarterly_csv` returns, written out plainly: one
    record at a time from `csv.reader`, its year and quarter through `int()`,
    then each value cell through `float()`. A repeated header cell is an
    error at line 1. A malformed row (longer than the
    header, or without a year in 1..9999 and a quarter in 1..4) raises as it
    is met; value cells are checked after the last record; a tokenizer fault
    is raised after the checks of the records before it."""
    path = Path(path)
    reader = csv.reader(io.StringIO(decode_utf8(path.read_bytes(), path), newline=""))
    try:
        header = [h.strip() for h in next(reader, [])]
    except csv.Error as exc:
        raise InvalidArgumentError(f"{path}:1: {exc}") from None
    n_keys, width, names = len(keys), len(header), header[len(keys):]
    if header[:n_keys] != list(keys) or not names:
        raise InvalidArgumentError(f"{path}: expected header '{','.join(keys)},<variables>'")
    for j, name in enumerate(header):
        if name in header[:j]:
            raise InvalidArgumentError(f"{path}:1: duplicate column {name!r}")
    rows, index, lines, fault = [], [], [], None
    while fault is None:
        lineno = reader.line_num + 1
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:
            fault = f"{path}:{lineno}: {exc}"
            break
        if not row:
            continue
        row = row + [""] * (width - len(row))
        try:
            year, quarter = int(row[n_keys - 2]), int(row[n_keys - 1])
        except ValueError:
            year = quarter = 0
        if len(row) > width or not (1 <= year <= 9999 and 1 <= quarter <= 4):
            raise InvalidArgumentError(f"{path}:{lineno}: malformed row")
        rows.append(row)
        index.append(year * 4 + quarter - 1)
        lines.append(lineno)
    values = []
    for row, lineno in zip(rows, lines):
        values.append([])
        for raw in (cell.strip() for cell in row[n_keys:]):
            try:
                value = float(raw) if raw else math.nan
            except ValueError:
                value = math.inf
            if raw and not math.isfinite(value):
                raise InvalidArgumentError(f"{path}:{lineno}: not a finite number: {raw!r}")
            values[-1].append(value)
    if fault is not None:
        raise InvalidArgumentError(fault)
    if not rows:
        raise InvalidArgumentError(f"{path}: no data rows")
    if consecutive:
        for r in range(1, len(rows)):
            if index[r] in index[:r]:
                raise InvalidArgumentError(f"{path}:{lines[r]}: duplicate observation for {Quarter.from_index(index[r])}")
        for a, b in zip(index, index[1:]):
            if b != a + 1:
                raise InvalidArgumentError(
                    f"{path}: rows must be sorted consecutive quarters ({Quarter.from_index(a)} -> {Quarter.from_index(b)})"
                )
    keys_before_year = [[row[k].strip() for row in rows] for k in range(n_keys - 2)]
    return names, keys_before_year, np.array(index), np.array(values).reshape(len(rows), len(names)), lines


def logit(model, text: str) -> float:
    """The baseline model's logit of one text: the bias plus each token's
    weight, added left to right in Python."""
    z = model.bias
    for token in geo._tokenize(text):
        z += model.vocabulary.get(token, 0.0)
    return z


def score(model, text: str) -> float:
    """The baseline model's score of one text, scalar: the reference that
    `classify_corpus`'s batch scores are compared with."""
    return float(1.0 / (1.0 + np.exp(-logit(model, text))))


def resolve_plainly(text: str, gazetteer) -> geo.Resolution:
    """The reference resolver, written out plainly: every n-gram of the
    text's tokens up to the longest name is looked up; a match inside a
    longer overlapping match is dropped (the longer, then the higher
    priority, then the earlier wins); the survivors rank by priority, then
    token count, then name length, then position."""
    if not text or not text.strip():
        raise InvalidArgumentError("text must be nonempty")
    tokens = geo._tokenize(text)
    longest = max(len(name) for name in gazetteer.entries)
    matches = []
    for start in range(len(tokens)):
        for length in range(1, min(longest, len(tokens) - start) + 1):
            entry = gazetteer.entries.get(tuple(tokens[start : start + length]))
            if entry is not None:
                matches.append((start, start + length, entry))
    kept = []
    for match in sorted(matches, key=lambda m: (m[0] - m[1], -m[2].priority, m[0])):
        if all(match[1] <= other[0] or other[1] <= match[0] for other in kept):
            kept.append(match)
    if not kept:
        return geo.Resolution(UNKNOWN_STATE, "", 0.0)
    kept.sort(key=lambda m: (-m[2].priority, m[0] - m[1], -len(m[2].name), m[0]))
    entry = kept[0][2]
    return geo.Resolution(entry.state, entry.name, float(entry.priority))


def series(values) -> np.ndarray:
    """The quarterly series of `values`, as the statistics take it."""
    return np.array(values, dtype=float)


def ar1(alpha: float, n: int, seed: int, c: float = 0.0, sigma: float = 1.0) -> np.ndarray:
    """Simulate y_t = c + alpha * y_{t-1} + e_t with a burn-in."""
    rng = np.random.default_rng(seed)
    e = rng.normal(0.0, sigma, n + 200)
    y = np.zeros(n + 200)
    for t in range(1, n + 200):
        y[t] = c + alpha * y[t - 1] + e[t]
    return y[200:]


def css_residuals_plainly(w, c: float, ar, ma) -> list[float]:
    """The CSS innovations of w at (c, ar, ma), written out plainly: for
    t = p..n-1, e_t = w_t - c - sum phi_i w_{t-i} - sum theta_j e_{t-j}, with
    zero pre-sample innovations."""
    p, q = len(ar), len(ma)
    e = [0.0] * q  # the pre-sample innovations, dropped at the end
    for t in range(p, len(w)):
        value = float(w[t]) - c
        for i in range(1, p + 1):
            value -= float(ar[i - 1]) * float(w[t - i])
        for j in range(1, q + 1):
            value -= float(ma[j - 1]) * e[-j]
        e.append(value)
    return e[q:]


# The settings of `signals._ORJSON_BYTES` that send every article file to
# one parse path: orjson first, or the json scanner alone.
PARSE_PATHS = {"orjson": 0, "scanner": 1 << 62}


@pytest.fixture(params=sorted(PARSE_PATHS))
def parse_path(request, monkeypatch) -> str:
    """The test runs once with each article file parsed by orjson first and
    once by the json scanner alone."""
    monkeypatch.setattr(signals, "_ORJSON_BYTES", PARSE_PATHS[request.param])
    return request.param


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def tokenized(monkeypatch) -> Counter:
    """How often each text is fed to `geo._folded`, the one entry of the
    tokenizer: the corpus pass and `tokenize_texts` both fold their texts
    through it."""
    seen = Counter()
    folded = geo._folded

    def counted(batch):
        seen.update(batch)
        return folded(batch)

    monkeypatch.setattr(geo, "_folded", counted)
    return seen
