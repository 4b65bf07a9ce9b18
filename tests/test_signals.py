import datetime as dt
import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from crimecast import geo
from crimecast.exceptions import InvalidArgumentError
from crimecast.series import Quarter
from crimecast.signals import (
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


def index_of_counts(events, news):
    """hate_reported_index of one quarter holding `news` records, `events` of them hate_crime."""
    records = [rec(i, label="hate_crime" if i < events else "not_hate_crime") for i in range(news)]
    return column(aggregate_quarterly(Corpus.of(records)), "hate_reported_index")[0]


class TestIndex:
    def test_basic_ratio(self):
        assert index_of_counts(50, 1000) == 0.05

    def test_quarter_without_news_is_zero(self):
        records = [rec(0, month=2), rec(1, month=8, label="hate_crime")]
        signals = aggregate_quarterly(Corpus.of(records))
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
        signals = aggregate_quarterly(Corpus.of(records))
        assert column(signals, "news_num") == (10,)
        assert column(signals, "event_detected_num") == (3,)
        assert column(signals, "hate_reported_index") == (0.3,)

    def test_gap_fill(self):
        records = [rec(0, month=1), rec(1, month=7)]
        signals = aggregate_quarterly(Corpus.of(records))
        assert column(signals, "news_num") == (1, 0, 1)
        assert column(signals, "event_detected_num") == (0, 0, 0)
        assert column(signals, "hate_reported_index")[1] == 0.0

    def test_unlabeled_record_named(self):
        records = [rec(0), ArticleRecord(id="naked", date=dt.date(2010, 1, 1), title="", body="")]
        with pytest.raises(InvalidArgumentError, match="naked"):
            aggregate_quarterly(Corpus.of(records))

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
        signals = aggregate_quarterly(Corpus.of(records))
        news_tally = Counter(Quarter(r.date.year, (r.date.month - 1) // 3 + 1) for r in records)
        event_tally = Counter(
            Quarter(r.date.year, (r.date.month - 1) // 3 + 1) for r in records if r.predicted_label == "hate_crime"
        )
        for i, q in enumerate(quarters(signals)):
            assert column(signals, "news_num")[i] == news_tally.get(q, 0)
            assert column(signals, "event_detected_num")[i] == event_tally.get(q, 0)

    def test_permutation_invariance(self, rng):
        records = [rec(i, month=int(rng.integers(1, 13)), label="hate_crime" if i % 3 == 0 else "not_hate_crime") for i in range(30)]
        a = aggregate_quarterly(Corpus.of(records))
        shuffled = list(records)
        rng.shuffle(shuffled)
        b = aggregate_quarterly(Corpus.of(shuffled))
        assert same_frame(a, b)

    def test_explicit_span(self):
        records = [rec(0, month=5)]
        span = (Quarter(2010, 1), Quarter(2010, 4))
        signals = aggregate_quarterly(Corpus.of(records), span)
        assert len(quarters(signals)) == 4
        assert column(signals, "news_num") == (0, 1, 0, 0)

    def test_empty_without_span_rejected(self):
        with pytest.raises(InvalidArgumentError):
            aggregate_quarterly(Corpus.of([]))


class TestAggregateByState:
    def test_state_counting(self):
        records = [
            rec(0, label="hate_crime", state="CA"),
            rec(1, label="hate_crime", state="CA"),
            rec(2, label="not_hate_crime", state="NY"),
        ]
        out = aggregate_by_state(Corpus.of(records))
        assert column(out.by_state, "news_num", "CA") == (2,)
        assert column(out.by_state, "event_detected_num", "CA") == (2,)
        assert column(out.by_state, "hate_reported_index", "CA") == (1.0,)
        assert column(out.by_state, "news_num", "NY") == (1,)
        assert column(out.by_state, "hate_reported_index", "NY") == (0.0,)

    def test_all_unknown_corpus(self):
        records = [rec(i, state="UNKNOWN") for i in range(5)]
        out = aggregate_by_state(Corpus.of(records))
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
        out = aggregate_by_state(Corpus.of(records), (Quarter(2010, 1), Quarter(2010, 4)))
        assert column(out.national, "news_num") == (2, 0, 0, 0)
        assert out.by_state.unit_names == ("CA", "NY")
        assert column(out.by_state, "news_num", "NY") == (0, 0, 0, 0)
        assert out.unknown_share == 0.5

    def test_empty_corpus_gives_frames_without_units(self):
        out = aggregate_by_state(Corpus.of([]), (Quarter(2010, 1), Quarter(2010, 4)))
        assert out.national.unit_names == out.by_state.unit_names == ()
        assert out.unknown_share == 0.0

    def test_unresolved_state_rejected(self):
        with pytest.raises(InvalidArgumentError, match="r1"):
            aggregate_by_state(Corpus.of([rec(0, state="CA"), rec(1)]))
        with pytest.raises(InvalidArgumentError, match="no resolved state"):
            aggregate_by_state(tally(Corpus.of([rec(0, state="CA"), rec(1)])))

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
        out = aggregate_by_state(Corpus.of(records))
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
                st.sampled_from(["CA", "NY", "TX", "UNKNOWN"]),
            ),
            min_size=1,
            max_size=40,
        ),
        st.sampled_from([None, (Quarter(2010, 1), Quarter(2011, 2))]),
    )
    def test_counts_equal_a_counter_recount(self, rows, span):
        corpus = Corpus.of(
            [ArticleRecord(f"r{i}", d, "t", "b", predicted_label=label, state=state) for i, (d, label, state) in enumerate(rows)]
        )
        out = aggregate_by_state(corpus, span)
        # The same articles as a stream of chunks of 3 give the same frames.
        chunks = [Corpus(*(column[i : i + 3] for column in corpus.columns())) for i in range(0, len(corpus), 3)]
        # So do the tallies of the chunks, merged in order.
        for chunked in aggregate_by_state(iter(chunks), span), aggregate_by_state(merge_tallies([*map(tally, chunks)]), span):
            assert same_frame(chunked.national, out.national) and same_frame(chunked.by_state, out.by_state)
            assert chunked.unknown_share == out.unknown_share
        cell = [(state, Quarter(d.year, (d.month - 1) // 3 + 1)) for d, _, state in rows]
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
        if span is None:
            assert (quarters(out.national)[0], quarters(out.national)[-1]) == (min(q for _, q in cell), max(q for _, q in cell))
        assert out.unknown_share == sum(state == "UNKNOWN" for state, _ in cell) / len(rows)

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
        out = aggregate_by_state(Corpus.of(records))
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
        write_articles(Corpus.of(records), path)
        back = load_articles(path)
        assert list(back) == records

    @seed(20261019)
    @settings(max_examples=100, deadline=None)
    @given(ROWS)
    def test_lines_equal_json_dumps(self, tmp_path_factory, rows):
        records = records_of(rows)
        path = tmp_path_factory.mktemp("articles") / "a.jsonl"
        write_articles(Corpus.of(records), path)
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
        corpus = Corpus.of(records_of(rows))
        path = tmp_path_factory.mktemp("articles") / "a.jsonl"
        write_articles(corpus, path)
        back = load_articles(path)
        for name in ("ids", "dates", "titles", "bodies", "gold", "predicted", "states"):
            assert getattr(back, name) == getattr(corpus, name), name
        assert list(back) == list(corpus)

    def test_chunks_of_at_most_chunk_articles(self, tmp_path, monkeypatch):
        monkeypatch.setattr(geo, "_CHUNK", 3)
        records = [rec(i) for i in range(7)]
        path = tmp_path / "a.jsonl"
        write_articles(Corpus.of(records), path)
        path.write_text(path.read_text().replace("\n", "\n\n", 2))  # blank lines do not count
        assert [chunk.ids for chunk in read_articles(path)] == [["r0", "r1", "r2"], ["r3", "r4", "r5"], ["r6"]]
        assert list(load_articles(path)) == records

    def test_a_byte_range_reads_the_lines_that_begin_in_it(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_articles(Corpus.of([rec(i) for i in range(6)]), path)
        data = path.read_bytes()
        line_starts = [0] + [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
        middle = (line_starts[1], line_starts[3] + 1)  # ends inside line 4, which begins in the range
        assert [chunk.ids for chunk in read_articles(path, *middle)] == [["r1", "r2", "r3"]]
        assert [chunk.ids for chunk in read_articles(path, line_starts[4])] == [["r4", "r5"]]
        assert list(read_articles(path, line_starts[2], line_starts[2])) == []

    def test_duplicate_id_in_a_later_chunk_names_its_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(geo, "_CHUNK", 3)
        path = tmp_path / "dup.jsonl"
        write_articles(Corpus.of([rec(i) for i in range(4)] + [rec(1)]), path)
        chunks = read_articles(path)
        assert next(chunks).ids == ["r0", "r1", "r2"]
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(str(path))}:5: duplicate article id 'r1'$"):
            next(chunks)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        line = '{"id": "a1", "date": "2012-03-04", "title": "", "body": ""}\n'
        path.write_text(line + line)
        with pytest.raises(InvalidArgumentError, match="duplicate"):
            load_articles(path)

    def test_bad_label_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ArticleRecord(id="a", date=dt.date(2010, 1, 1), title="", body="", gold_label="maybe")

