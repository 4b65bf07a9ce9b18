import datetime as dt
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from crimecast import geo, signals
from crimecast.exceptions import InvalidArgumentError
from crimecast.series import Quarter
from crimecast.signals import (
    STATES,
    ArticleRecord,
    Corpus,
    aggregate_by_state,
    aggregate_quarterly,
    load_articles,
    merge_tallies,
    read_articles,
    tally,
    write_articles,
)

from conftest import PARSE_PATHS, corpus_of, read_articles_plainly

Q1, Q2, Q3, Q4 = (Quarter(2010, q) for q in range(1, 5))


def column(frame, name, unit="national"):
    """One unit's values of a signal-frame variable over the frame's quarters."""
    return tuple(frame.values[frame.unit_names.index(unit), :, frame.names.index(name)].tolist())


def quarters(frame):
    return [frame.start + t for t in range(frame.end - frame.start + 1)]


def same_frame(a, b):
    return (
        (a.unit_names, a.start, a.names) == (b.unit_names, b.start, b.names)
        and np.array_equal(a.values, b.values)
        and np.array_equal(a.present, b.present)
    )


def rec(i, year=2010, month=2, label="not_hate_crime", state=None):
    return ArticleRecord(
        id=f"r{i}",
        date=dt.date(year, month, 10),
        title="t",
        body="b",
        predicted_label=label,
        state=state,
    )


def national(records, span):
    return aggregate_quarterly(tally([corpus_of(records)]), span)


def by_state(records, span):
    return aggregate_by_state(tally([corpus_of(records)]), span)


def write(path, corpus):
    with path.open("w") as fh:
        write_articles(corpus, fh)


def index_of_counts(events, news):
    """hate_reported_index of one quarter holding `news` records, `events` of them hate_crime."""
    records = [rec(i, label="hate_crime" if i < events else "not_hate_crime") for i in range(news)]
    return column(national(records, (Q1, Q1)), "hate_reported_index")[0]


class TestIndex:
    def test_basic_ratio(self):
        assert index_of_counts(50, 1000) == 0.05

    def test_quarter_without_news_is_zero(self):
        records = [rec(0, month=2), rec(1, month=8, label="hate_crime")]
        signals = national(records, (Q1, Q3))
        assert column(signals, "news_num") == (1, 0, 1)
        assert column(signals, "hate_reported_index") == (0.0, 0.0, 1.0)

    def test_boundary_one(self):
        assert index_of_counts(7, 7) == 1.0

    @given(st.integers(0, 100), st.integers(0, 100))
    @settings(max_examples=50)
    def test_in_unit_interval(self, e, n):
        if e <= n and n > 0:
            assert 0.0 <= index_of_counts(e, n) <= 1.0


class TestAggregateQuarterly:
    def test_counting(self):
        records = [rec(i, label="hate_crime" if i < 3 else "not_hate_crime") for i in range(10)]
        signals = national(records, (Q1, Q1))
        assert column(signals, "news_num") == (10,)
        assert column(signals, "event_detected_num") == (3,)
        assert column(signals, "hate_reported_index") == (0.3,)

    def test_gap_fill(self):
        records = [rec(0, month=1), rec(1, month=7)]
        signals = national(records, (Q1, Q3))
        assert column(signals, "news_num") == (1, 0, 1)
        assert column(signals, "event_detected_num") == (0, 0, 0)
        assert column(signals, "hate_reported_index")[1] == 0.0

    def test_unlabeled_record_named(self):
        records = [rec(0), ArticleRecord(id="naked", date=dt.date(2010, 1, 1), title="", body="")]
        with pytest.raises(InvalidArgumentError, match="naked"):
            tally([corpus_of(records)])

    def test_counts_match_tally_oracle(self, rng):
        records = []
        for i in range(100):
            month = int(rng.integers(1, 13))
            label = "hate_crime" if rng.random() < 0.3 else "not_hate_crime"
            records.append(
                ArticleRecord(
                    id=f"x{i}", date=dt.date(2011, month, 3), title="", body="", predicted_label=label
                )
            )
        signals = national(records, (Quarter(2011, 1), Quarter(2011, 4)))
        news_tally = Counter(Quarter(r.date.year, (r.date.month - 1) // 3 + 1) for r in records)
        event_tally = Counter(
            Quarter(r.date.year, (r.date.month - 1) // 3 + 1) for r in records if r.predicted_label == "hate_crime"
        )
        for i, q in enumerate(quarters(signals)):
            assert column(signals, "news_num")[i] == news_tally.get(q, 0)
            assert column(signals, "event_detected_num")[i] == event_tally.get(q, 0)

    def test_permutation_invariance(self, rng):
        records = [rec(i, month=int(rng.integers(1, 13)), label="hate_crime" if i % 3 == 0 else "not_hate_crime") for i in range(30)]
        a = national(records, (Q1, Q4))
        shuffled = list(records)
        rng.shuffle(shuffled)
        b = national(shuffled, (Q1, Q4))
        assert same_frame(a, b)

    def test_explicit_span(self):
        records = [rec(0, month=5)]
        signals = national(records, (Q1, Q4))
        assert len(quarters(signals)) == 4
        assert column(signals, "news_num") == (0, 1, 0, 0)


class TestAggregateByState:
    def test_state_counting(self):
        records = [
            rec(0, label="hate_crime", state="CA"),
            rec(1, label="hate_crime", state="CA"),
            rec(2, label="not_hate_crime", state="NY"),
        ]
        out = by_state(records, (Q1, Q1))
        assert column(out.by_state, "news_num", "CA") == (2,)
        assert column(out.by_state, "event_detected_num", "CA") == (2,)
        assert column(out.by_state, "hate_reported_index", "CA") == (1.0,)
        assert column(out.by_state, "news_num", "NY") == (1,)
        assert column(out.by_state, "hate_reported_index", "NY") == (0.0,)

    def test_all_unknown_corpus(self):
        records = [rec(i, state="UNKNOWN") for i in range(5)]
        out = by_state(records, (Q1, Q1))
        assert out.by_state.unit_names == ()
        assert column(out.national, "news_num") == (5,)
        assert out.unknown_share == 1.0

    def test_unknown_share_counts_records_outside_the_span(self):
        records = [
            rec(0, state="CA"),
            rec(1, state="UNKNOWN"),
            rec(2, year=2012, state="UNKNOWN"),
            rec(3, year=2012, state="NY"),
        ]
        out = by_state(records, (Q1, Q4))
        assert column(out.national, "news_num") == (2, 0, 0, 0)
        assert out.by_state.unit_names == ("CA", "NY")
        assert column(out.by_state, "news_num", "NY") == (0, 0, 0, 0)
        assert out.unknown_share == 0.5

    def test_empty_corpus_gives_frames_without_units(self):
        out = by_state([], (Q1, Q4))
        assert out.national.unit_names == out.by_state.unit_names == ()
        assert out.unknown_share == 0.0

    def test_unresolved_state_rejected(self):
        with pytest.raises(InvalidArgumentError, match="no resolved state"):
            by_state([rec(0, state="CA"), rec(1)], (Q1, Q1))

    def test_reconciliation_invariant(self, rng):
        states = ["CA", "NY", "TX", "UNKNOWN"]
        records = []
        for i in range(500):
            records.append(
                rec(
                    i,
                    month=int(rng.integers(1, 13)),
                    label="hate_crime" if rng.random() < 0.25 else "not_hate_crime",
                    state=states[int(rng.integers(0, 4))],
                )
            )
        out = by_state(records, (Q1, Q4))
        unknown = [r for r in records if r.state == "UNKNOWN"]
        for i, q in enumerate(quarters(out.national)):
            state_sum = sum(column(out.by_state, "news_num", state)[i] for state in out.by_state.unit_names)
            unknown_count = sum(1 for r in unknown if Quarter(r.date.year, (r.date.month - 1) // 3 + 1) == q)
            assert state_sum + unknown_count == column(out.national, "news_num")[i]

    @seed(20261021)
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.dates(dt.date(2009, 1, 1), dt.date(2012, 12, 31)),
                st.sampled_from(["hate_crime", "not_hate_crime"]),
                st.sampled_from([state for state in STATES if state is not None]),
            ),
            min_size=1,
            max_size=40,
        ),
        st.sampled_from([None, (Quarter(2010, 1), Quarter(2011, 2))]),
    )
    def test_counts_equal_a_counter_recount(self, rows, span):
        corpus = corpus_of(
            [ArticleRecord(f"r{i}", d, "t", "b", predicted_label=label, state=state) for i, (d, label, state) in enumerate(rows)]
        )
        cell = [(state, Quarter(d.year, (d.month - 1) // 3 + 1)) for d, _, state in rows]
        if span is None:  # the quarters with articles
            span = (min(q for _, q in cell), max(q for _, q in cell))
        out = aggregate_by_state(tally([corpus]), span)
        # The same articles as a stream of chunks of 3 give the same frames.
        chunks = [Corpus(*(column[i : i + 3] for column in corpus.columns())) for i in range(0, len(corpus), 3)]
        # So do the tallies of the chunks, merged in order: the same rows in
        # the same order as one tally of the whole corpus.
        merged = merge_tallies([tally([chunk]) for chunk in chunks])
        for chunked in aggregate_by_state(tally(iter(chunks)), span), aggregate_by_state(merged, span):
            assert same_frame(chunked.national, out.national) and same_frame(chunked.by_state, out.by_state)
            assert chunked.unknown_share == out.unknown_share
        news = Counter(cell)
        events = Counter(c for c, (_, label, _) in zip(cell, rows) if label == "hate_crime")
        assert out.by_state.unit_names == tuple(sorted({state for state, _ in cell} - {"UNKNOWN"}))
        assert quarters(out.national) == quarters(out.by_state)
        for i, q in enumerate(quarters(out.national)):
            for state in out.by_state.unit_names:
                assert column(out.by_state, "news_num", state)[i] == news[state, q]
                assert column(out.by_state, "event_detected_num", state)[i] == events[state, q]
            assert column(out.national, "news_num")[i] == sum(n for (_, cq), n in news.items() if cq == q)
            assert column(out.national, "event_detected_num")[i] == sum(n for (_, cq), n in events.items() if cq == q)
        assert (quarters(out.national)[0], quarters(out.national)[-1]) == span
        assert out.unknown_share == sum(state == "UNKNOWN" for state, _ in cell) / len(rows)

    def test_states_are_each_code_once_in_str_order(self):
        assert sorted(STATES, key=str) == list(STATES)
        assert Counter(STATES) == Counter([None, geo.UNKNOWN_STATE, *geo.US_STATE_CODES])

    def test_groupby_oracle(self, rng):
        states = ["CA", "NY", "TX"]
        records = [
            rec(
                i,
                month=int(rng.integers(1, 13)),
                label="hate_crime" if rng.random() < 0.4 else "not_hate_crime",
                state=states[int(rng.integers(0, 3))],
            )
            for i in range(500)
        ]
        out = by_state(records, (Q1, Q4))
        tally = Counter((r.state, Quarter(r.date.year, (r.date.month - 1) // 3 + 1)) for r in records)
        for state in out.by_state.unit_names:
            for i, q in enumerate(quarters(out.by_state)):
                assert column(out.by_state, "news_num", state)[i] == tally.get((state, q), 0)


# Article fields; `records_of` makes the ids unique with a one-digit prefix.
ROWS = st.lists(
    st.tuples(
        st.text(st.characters(), max_size=12),
        st.dates(),
        st.text(st.characters(blacklist_categories=()), max_size=30),
        st.text(st.characters(blacklist_categories=()), max_size=60),
        st.sampled_from([None, "hate_crime", "not_hate_crime"]),
        st.sampled_from([None, "hate_crime", "not_hate_crime"]),
        st.sampled_from([None, "CA", "UNKNOWN"]),
    ),
    max_size=8,
)


def records_of(rows):
    return [ArticleRecord(f"{i}{key}", *rest) for i, (key, *rest) in enumerate(rows)]


# Lines of an article file for the differential test of `read_articles`:
# articles, whose optional fields may be missing and any field dropped or
# given another value or type, with ids that repeat; articles padded with
# Unicode spaces or two on a line; values that are not objects; blank lines
# and bytes that are not UTF-8. A good article is drawn 12 times as often
# as each other kind of line.
FIELD_VALUES = {
    "id": st.sampled_from("abcdefghijkl"),
    "date": st.sampled_from(["2010-01-01", "2011-06-30", "20100101"]),
    "title": st.text(max_size=4),
    "body": st.text(max_size=4),
    "gold_label": st.sampled_from(["hate_crime", "not_hate_crime"]),
    "predicted_label": st.sampled_from(["hate_crime", "not_hate_crime"]),
    "state": st.sampled_from(["CA", "NY", "UNKNOWN"]),
}
OTHER_VALUES = st.sampled_from([None, 7, 1.5, float("nan"), True, [], ["CA"], {}, "", "2010-13-01", "maybe", "ZZ"])


@st.composite
def article_json(draw) -> str:
    record = {key: draw(values) for key, values in FIELD_VALUES.items() if key in ("id", "date") or draw(st.booleans())}
    if draw(st.integers(0, 2)) == 0:
        key = draw(st.sampled_from(sorted(FIELD_VALUES)))
        if draw(st.booleans()):
            record.pop(key, None)
        else:
            record[key] = draw(OTHER_VALUES)
    return json.dumps(record, ensure_ascii=draw(st.booleans()))


SPACES = st.text(st.sampled_from(" \t\r\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000"), max_size=3)
ARTICLE_LINE = article_json().map(str.encode)
LINES = st.sampled_from([
    *[ARTICLE_LINE] * 12,
    st.tuples(SPACES, article_json(), SPACES).map(lambda parts: "".join(parts).encode()),
    st.sampled_from([b"", b" ", b"\t"]),
    st.tuples(article_json(), article_json()).map(lambda pair: " ".join(pair).encode()),
    st.sampled_from([b"1", b"[1]", b'"x"', b"null", b"true", b"{", b'{"id": "a"', b"{}", b"1" * 5000]),
    st.tuples(article_json(), st.sampled_from([b"\xff", b"\xc3", b"\xe2\x80"]), st.integers(0, 60)).map(
        lambda t: t[0].encode()[: t[2]] + t[1] + t[0].encode()[t[2]:]
    ),
]).flatmap(lambda line: line)


def read_joined(path, start=0, end=None) -> Corpus:
    """The chunks of `read_articles(path, start, end)` joined into one corpus."""
    columns = [[] for _ in Corpus._fields]
    for chunk in read_articles(path, start, end):
        for column, part in zip(columns, chunk.columns()):
            column.extend(part)
    return Corpus(*columns)


def read_outcome(read, *args) -> list | str:
    """The columns of the corpus `read(*args)` gives, or the message of its
    InvalidArgumentError."""
    try:
        return [list(column) for column in read(*args).columns()]
    except InvalidArgumentError as exc:
        return str(exc)


class TestArticleIO:
    def test_roundtrip(self, tmp_path):
        records = [
            ArticleRecord(
                id="a1",
                date=dt.date(2012, 3, 4),
                title="T",
                body="B",
                gold_label="hate_crime",
                predicted_label="not_hate_crime",
                state="CA",
            )
        ]
        path = tmp_path / "a.jsonl"
        write(path, corpus_of(records))
        back = load_articles(path)
        assert list(back) == records

    @seed(20261019)
    @settings(max_examples=100, deadline=None)
    @given(ROWS)
    def test_lines_equal_json_dumps(self, tmp_path_factory, rows):
        records = records_of(rows)
        path = tmp_path_factory.mktemp("articles") / "a.jsonl"
        write(path, corpus_of(records))
        expected = []
        for r in records:
            payload = {"id": r.id, "date": r.date.isoformat(), "title": r.title, "body": r.body}
            for key in ("gold_label", "predicted_label", "state"):
                if getattr(r, key) is not None:
                    payload[key] = getattr(r, key)
            expected.append(json.dumps(payload) + "\n")
        assert path.read_text() == "".join(expected)

    @seed(20261020)
    @settings(max_examples=100, deadline=None)
    @given(ROWS)
    def test_load_inverts_write_column_for_column(self, tmp_path_factory, rows):
        corpus = corpus_of(records_of(rows))
        path = tmp_path_factory.mktemp("articles") / "a.jsonl"
        write(path, corpus)
        back = load_articles(path)
        for name in ("ids", "dates", "titles", "bodies", "gold", "predicted", "states"):
            assert getattr(back, name) == getattr(corpus, name), name
        assert list(back) == list(corpus)

    @pytest.mark.usefixtures("parse_path")
    def test_chunks_of_at_most_chunk_articles(self, tmp_path, monkeypatch):
        monkeypatch.setattr(signals, "_CHUNK", 3)
        records = [rec(i) for i in range(7)]
        path = tmp_path / "a.jsonl"
        write(path, corpus_of(records))
        path.write_text(path.read_text().replace("\n", "\n\n", 2))  # blank lines do not count
        assert [chunk.ids for chunk in read_articles(path)] == [["r0", "r1", "r2"], ["r3", "r4", "r5"], ["r6"]]
        assert list(load_articles(path)) == records

    @pytest.mark.usefixtures("parse_path")
    def test_a_byte_range_reads_the_lines_that_begin_in_it(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write(path, corpus_of([rec(i) for i in range(6)]))
        data = path.read_bytes()
        line_starts = [0] + [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
        middle = (line_starts[1], line_starts[3] + 1)  # ends inside line 4, which begins in the range
        assert [chunk.ids for chunk in read_articles(path, *middle)] == [["r1", "r2", "r3"]]
        assert [chunk.ids for chunk in read_articles(path, line_starts[4])] == [["r4", "r5"]]
        assert list(read_articles(path, line_starts[2], line_starts[2])) == []

    @pytest.mark.parametrize("parse", sorted(PARSE_PATHS))
    @seed(20261019)
    @settings(max_examples=150, deadline=None)
    @given(st.lists(LINES, max_size=6), st.booleans(), st.data())
    def test_reader_agrees_with_a_plain_reader(self, tmp_path_factory, parse, lines, newline_at_end, data):
        """Over the whole file and over a byte range, `read_articles` (in
        chunks of 2, on either parse path) gives the columns of
        `read_articles_plainly`, or its message."""
        path = tmp_path_factory.mktemp("articles") / "a.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n" * newline_at_end)
        size = path.stat().st_size
        line_starts = [0] + [i + 1 for i, byte in enumerate(path.read_bytes()) if byte == ord("\n") and i + 1 < size]
        start = data.draw(st.sampled_from(line_starts))
        end = data.draw(st.none() | st.integers(start, size))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(signals, "_CHUNK", 2)
            patch.setattr(signals, "_ORJSON_BYTES", PARSE_PATHS[parse])
            for span in ((0, None), (start, end)):
                assert read_outcome(read_joined, path, *span) == read_outcome(read_articles_plainly, path, *span), span

    @pytest.mark.usefixtures("parse_path")
    def test_duplicate_id_in_a_later_chunk_names_its_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(signals, "_CHUNK", 3)
        path = tmp_path / "dup.jsonl"
        write(path, corpus_of([rec(i) for i in range(4)] + [rec(1)]))
        chunks = read_articles(path)
        assert next(chunks).ids == ["r0", "r1", "r2"]
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(str(path))}:5: duplicate article id 'r1'$"):
            next(chunks)

    @pytest.mark.usefixtures("parse_path")
    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        line = '{"id": "a1", "date": "2012-03-04", "title": "", "body": ""}\n'
        path.write_text(line + line)
        with pytest.raises(InvalidArgumentError, match="duplicate"):
            load_articles(path)

    def test_bad_label_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ArticleRecord(id="a", date=dt.date(2010, 1, 1), title="", body="", gold_label="maybe")


# Lines for the differential test of the two parse paths: a valid record
# with fields dropped or given other JSON values (as text, so that NaN,
# numbers beyond a double or 64 bits, lone surrogates and deep nesting can
# be written), extra keys, repeated keys and ids, then bytes cut or
# inserted; and hand cases where orjson and the json scanner differ.
RECORD = {
    "id": '"a"', "date": '"2010-01-01"', "title": '"t"', "body": '"b"',
    "gold_label": '"hate_crime"', "predicted_label": '"not_hate_crime"', "state": '"CA"',
}
# Nesting that orjson reads and the scanner refuses, also under the
# recursion limit that Hypothesis raises while it runs a test (the caller's
# depth plus 2,000), in a line short enough for orjson.
DEEP = "[" * 3000 + "]" * 3000
ODD_NUMBERS = ["NaN", "Infinity", "1e400", str(2**64), str(-(2**63) - 1), "1" * 5000]
VALUE_TEXTS = [
    '"b"', '""', '"hate_crime"', '"UNKNOWN"', '"2010-06-30"', '"20100101"', '"2010-W01-1"', '"\\ud800"',
    '"\\u00e9\\ud83d\\ude00"', '"é"', "null", "true", "7", "1.5", "-0", "[]", "{}", '["CA"]', '{"id": "x"}',
    *ODD_NUMBERS, DEEP,
]


@st.composite
def record_line(draw) -> bytes:
    fields = dict(RECORD, id=draw(st.sampled_from(['"a"', '"b"', '"c"'])))
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from([*RECORD, "extra", "more"]))
        if draw(st.integers(0, 3)) == 0:
            fields.pop(key, None)
        else:
            fields[key] = draw(st.sampled_from(VALUE_TEXTS))
    items = [f'"{key}": {value}' for key, value in fields.items()]
    if items and draw(st.integers(0, 5)) == 0:
        items.append(draw(st.sampled_from(items)))  # a repeated key, whose last value counts
    line = ("{" + ", ".join(items) + "}").encode()
    at = draw(st.integers(0, len(line)))
    edit = draw(st.sampled_from([b"", b"", b"", b"\xff", b"\xc3", b" ", b"\t", b"\r", b"\x0c", b"\xc2\xa0", b"\x00"]))
    if draw(st.integers(0, 5)) == 0:
        return line[:at]
    return line[:at] + edit + line[at:] if draw(st.booleans()) else line


HAND_LINES = {
    **{f"title-{n[:9]}": b'{"id": "n%d", "date": "2010-01-01", "title": %s}' % (i, n.encode())
       for i, n in enumerate(ODD_NUMBERS)},
    **{f"extra-{n[:9]}": b'{"id": "x%d", "date": "2010-01-01", "n": %s}' % (i, n.encode())
       for i, n in enumerate(ODD_NUMBERS)},
    "lone-surrogate": b'{"id": "s", "date": "2010-01-01", "title": "\\ud800"}',
    "not-utf8": b'{"id": "u", "date": "2010-01-01", "title": "\xff"}',
    "bom": b'\xef\xbb\xbf{"id": "bom", "date": "2010-01-01"}',
    "nbsp-only": b"\xc2\xa0",
    "crlf": b'{"id": "crlf", "date": "2010-01-01"}\r',
    "repeated-key": b'{"id": "d1", "date": "2010-01-01", "id": "d2"}',
    "not-an-object": b'[{"id": "l", "date": "2010-01-01"}]',
    "extra-nested-990": b'{"id": "deep990", "date": "2010-01-01", "n": %s}' % (b"[" * 990 + b"]" * 990),
    "extra-nested-3000": b'{"id": "deep", "date": "2010-01-01", "n": %s}' % DEEP.encode(),
    "title-nested-3000": b'{"id": "deep-title", "date": "2010-01-01", "title": %s}' % DEEP.encode(),
    "extra-string-and-int": b'{"id": "e", "date": "2010-01-01", "n": "s", "m": 5}',
    "longer-than-orjson-takes": b'{"id": "long", "date": "2010-01-01", "body": "%s"}' % (b"b" * signals._ORJSON_LINE_BYTES),
}
PATH_LINES = st.one_of(record_line(), st.sampled_from(list(HAND_LINES.values())))


def chunks_or_message(path) -> list | str:
    """The columns of each chunk `read_articles` gives, or the message of its
    InvalidArgumentError."""
    try:
        return [[list(column) for column in chunk.columns()] for chunk in read_articles(path)]
    except InvalidArgumentError as exc:
        return str(exc)


def on_each_parse_path(path) -> list:
    """`chunks_or_message(path)` in chunks of 2, with orjson first and with
    the json scanner alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(signals, "_CHUNK", 2)
        outcomes = []
        for gate in PARSE_PATHS.values():
            patch.setattr(signals, "_ORJSON_BYTES", gate)
            outcomes.append(chunks_or_message(path))
        return outcomes


class TestParsePaths:
    @seed(20261020)
    @settings(max_examples=200, deadline=None)
    @given(st.lists(PATH_LINES, min_size=1, max_size=4))
    def test_orjson_and_the_scanner_read_a_file_alike(self, tmp_path_factory, lines):
        """A file read with orjson first and by the json scanner alone gives
        the same chunks, or the same message."""
        path = tmp_path_factory.mktemp("articles") / "a.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        orjson_first, scanner = on_each_parse_path(path)
        assert orjson_first == scanner

    @pytest.mark.parametrize("case", sorted(HAND_LINES))
    def test_each_hand_case_reads_alike(self, tmp_path, case):
        path = tmp_path / "a.jsonl"
        path.write_bytes(b'{"id": "first", "date": "2010-01-01"}\n' + HAND_LINES[case] + b"\n")
        orjson_first, scanner = on_each_parse_path(path)
        assert orjson_first == scanner

    def test_nesting_too_deep_for_orjson_is_invalid_json(self, tmp_path):
        """orjson 3.8 overflows the C stack on a line nested 150,000 deep; such
        a line is longer than `_ORJSON_LINE_BYTES`, so the scanner reads it
        and refuses it. The read runs in a fresh interpreter, so that a crash
        fails the test instead of ending the test process."""
        depth = 200_000
        path = tmp_path / "a.jsonl"
        path.write_bytes(b'{"id": "deep", "date": "2010-01-01", "n": %s}\n' % (b"[" * depth + b"]" * depth))
        probe = (
            "import sys\n"
            "from crimecast import signals\n"
            "signals._ORJSON_BYTES = 0\n"
            "try:\n"
            "    list(signals.read_articles(sys.argv[1]))\n"
            "except signals.InvalidArgumentError as exc:\n"
            "    print(exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(signals.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", probe, str(path)], capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, f"{path}:1: invalid JSON\n")
