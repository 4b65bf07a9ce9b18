import datetime as dt
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from crimecast import geo, signals
from crimecast.detector import (
    BaselineModel,
    _best_threshold,
    _count_matrix,
    _logits,
    _split,
    classify_corpus,
    evaluate,
    train_baseline,
)
from crimecast.exceptions import InvalidArgumentError
from crimecast.geo import Gazetteer, GazetteerEntry, load_gazetteer, resolve_state
from crimecast.signals import ArticleRecord, load_articles

from conftest import FIXTURES, GAZETTEER, corpus_of, logit, resolve_plainly, score

FILL = ["the", "a", "report", "city", "local", "community", "police", "street",
        "meeting", "group", "member", "public", "area", "years", "officials"]
POS = ["attacked", "bias", "slur", "vandalism", "threat"]
NEG = ["budget", "festival", "weather", "parade", "election"]


def rec(i, text, label=None):
    return ArticleRecord(
        id=f"a{i:04d}",
        date=dt.date(2010, 1 + (i % 12), 1 + (i % 28)),
        title="",
        body=text,
        gold_label=label,
    )


def separable_corpus(n=200, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        positive = i % 2 == 0
        words = list(rng.choice(FILL, size=9))
        words += list(rng.choice(POS if positive else NEG, size=3))
        rng.shuffle(words)
        records.append(rec(i, " ".join(words), "hate_crime" if positive else "not_hate_crime"))
    return corpus_of(records)


def shuffled_corpus(n=600, base_rate=0.8, seed=3):
    rng = np.random.default_rng(seed)
    n_pos = int(base_rate * n)
    labels = ["hate_crime"] * n_pos + ["not_hate_crime"] * (n - n_pos)
    rng.shuffle(labels)
    return corpus_of([rec(i, " ".join(rng.choice(FILL, size=12)), labels[i]) for i in range(n)])


class TestTraining:
    def test_separable_corpus_is_separated(self):
        # Every positive scores above every negative, and the threshold
        # tuned on the validation split separates that split.
        corpus = separable_corpus()
        model = train_baseline(corpus, seed=1)
        _, scores = classify_corpus(model, corpus)
        positive = np.array(corpus.gold) == "hate_crime"
        assert scores[positive].min() > scores[~positive].max()
        assert model.metadata["validation_f1"] == 1.0

    def test_label_shuffled_chance_level(self):
        # Chance-level oracle: an uninformative detector tuned for F1 sits at
        # the all-positive corner, F1 = 2p/(1+p) = 0.889 for p = 0.8.
        corpus = shuffled_corpus(n=600, base_rate=0.8, seed=3)
        model = train_baseline(corpus, seed=3)
        assert abs(model.metadata["validation_f1"] - 0.8) <= 0.1

    def test_refit_same_seed_identical(self):
        corpus = separable_corpus(seed=5)
        m1 = train_baseline(corpus, seed=42)
        m2 = train_baseline(corpus, seed=42)
        assert m1.vocabulary == m2.vocabulary
        assert m1.bias == m2.bias
        assert m1.threshold == m2.threshold

    def test_single_class_rejected(self):
        corpus = corpus_of([rec(i, "some text here", "hate_crime") for i in range(80)])
        with pytest.raises(InvalidArgumentError):
            train_baseline(corpus)

    def test_too_small_corpus_rejected(self):
        corpus = separable_corpus(n=30)
        with pytest.raises(InvalidArgumentError):
            train_baseline(corpus)

    def test_frequency_cutoff_drops_rare_tokens(self):
        # "zyzzyx" is in two articles, one of them in the training split;
        # "quux" is in two training articles.
        records = list(separable_corpus(n=100, seed=9))
        train, validation, _ = _split(len(records), 0)
        for i, token in ((train[0], "zyzzyx"), (validation[0], "zyzzyx"), (train[1], "quux"), (train[2], "quux")):
            records[i] = rec(i, f"{token} {records[i].body}", records[i].gold_label)
        model = train_baseline(corpus_of(records), seed=0)
        assert "zyzzyx" not in model.vocabulary
        assert "quux" in model.vocabulary


    def test_each_labeled_text_is_tokenized_once(self, tokenized):
        unlabeled = [rec(500 + i, f"unlabeled text {i}") for i in range(5)]
        corpus = corpus_of([*separable_corpus(n=120, seed=11), *unlabeled])
        train_baseline(corpus, seed=11)
        assert tokenized == Counter(text for text, label in zip(corpus.texts(), corpus.gold) if label is not None)


def brute_force_threshold(scores, gold):
    """The F1-optimal threshold by rescanning the scores at each candidate in
    ascending order; a later candidate must beat the F1 strictly."""
    best_t, best_f1 = None, -1.0
    for t in sorted(set(scores.tolist())):
        pred = scores >= t
        tp = int(np.sum(pred & (gold == 1)))
        fp = int(np.sum(pred & (gold == 0)))
        fn = int(np.sum(~pred & (gold == 1)))
        f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
        if f1 > best_f1:
            best_t, best_f1 = t, f1
    return best_t, best_f1


@pytest.mark.parametrize("case", range(40))
def test_threshold_scan_matches_brute_force(case):
    rng = np.random.default_rng(case)
    n = int(rng.integers(1, 60))
    # Scores on a coarse grid tie often; every fifth case has one class only.
    scores = rng.integers(1, 12, size=n) / 12.0 if case % 2 else rng.random(n)
    gold = np.full(n, float(case % 10 == 5)) if case % 5 == 0 else (rng.random(n) < 0.4).astype(float)
    assert _best_threshold(scores, gold) == brute_force_threshold(scores, gold)


def loop_count_matrix(token_lists, index):
    """Texts × vocabulary counts, one cell increment per known token."""
    X = np.zeros((len(token_lists), len(index)))
    for row, tokens in enumerate(token_lists):
        for token in tokens:
            if token in index:
                X[row, index[token]] += 1.0
    return X


@pytest.mark.parametrize("case", range(20))
def test_count_matrix_matches_a_loop(case):
    rng = np.random.default_rng(case)
    words = [f"w{i}" for i in range(int(rng.integers(1, 12)))]
    index = {w: j for j, w in enumerate(sorted(rng.choice(words, int(rng.integers(1, len(words) + 1)), replace=False)))}
    token_lists = [list(rng.choice(words, int(rng.integers(0, 30)))) for _ in range(int(rng.integers(0, 8)))]
    X = _count_matrix(token_lists, index)
    assert X.dtype == np.float64 and X.shape == (len(token_lists), len(index))
    assert np.array_equal(X, loop_count_matrix(token_lists, index))


class TestClassification:
    def test_empty_corpus(self):
        model = train_baseline(separable_corpus(), seed=1)
        labeled, scores = classify_corpus(model, corpus_of([]))
        assert labeled == corpus_of([]) and scores.shape == (0,)

    def test_training_positive_classified_positive(self):
        corpus = separable_corpus(seed=2)
        model = train_baseline(corpus, seed=2)
        train, _, _ = _split(len(corpus), 2)
        positive = list(corpus)[int(next(i for i in train if corpus.gold[i] == "hate_crime"))]
        assert score(model, positive.text()) >= model.threshold

    def test_batch_equals_record_by_record(self):
        corpus = separable_corpus(seed=4)
        model = train_baseline(corpus, seed=4)
        batch, batch_scores = classify_corpus(model, corpus)
        for i, (record, labeled) in enumerate(zip(corpus, batch)):
            expected = score(model, record.text())
            assert labeled.predicted_label == ("hate_crime" if expected >= model.threshold else "not_hate_crime")
            assert batch_scores[i] == expected

    def test_order_invariance(self):
        corpus = separable_corpus(seed=6)
        model = train_baseline(corpus, seed=6)
        forward, _ = classify_corpus(model, corpus)
        backward, _ = classify_corpus(model, corpus_of(list(corpus)[::-1]))
        assert {r.id: r.predicted_label for r in forward} == {
            r.id: r.predicted_label for r in backward
        }

    def test_threshold_monotonicity(self):
        corpus = separable_corpus(seed=8)
        model = train_baseline(corpus, seed=8)
        _, scores = classify_corpus(model, corpus)
        values = sorted(scores.tolist())
        recalls = []
        gold_pos = {i for i, label in enumerate(corpus.gold) if label == "hate_crime"}
        for threshold in values:
            predicted_pos = {i for i, s in enumerate(scores) if s >= threshold}
            recalls.append(len(predicted_pos & gold_pos) / len(gold_pos))
        assert all(b <= a for a, b in zip(recalls, recalls[1:]))


class TestEvaluate:
    def test_f1_identity_at_reference_point(self):
        # Reference operating point; F1 must follow from the harmonic form.
        p, r = 0.8162, 0.8325
        f1 = 2 * p * r / (p + r)
        assert f1 == pytest.approx(0.8243, abs=5e-4)

    def test_all_correct(self):
        gold = ["hate_crime", "not_hate_crime"]
        m = evaluate(gold, gold)
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_hand_counts(self):
        pred = ["hate_crime", "hate_crime", "not_hate_crime", "not_hate_crime", "not_hate_crime"]
        gold = ["hate_crime", "not_hate_crime", "hate_crime", "hate_crime", "hate_crime"]
        m = evaluate(pred, gold)
        assert m.counts.tp == 1 and m.counts.fp == 1 and m.counts.fn == 3
        assert m.precision == 0.5
        assert m.recall == 0.25
        assert m.f1 == pytest.approx(1 / 3, abs=1e-12)

    def test_f1_forms_agree(self, rng):
        for _ in range(20):
            pred = ["hate_crime" if rng.random() < 0.5 else "not_hate_crime" for _ in range(40)]
            gold = ["hate_crime" if rng.random() < 0.5 else "not_hate_crime" for _ in range(40)]
            m = evaluate(pred, gold)
            if m.precision + m.recall > 0:
                harmonic = 2 * m.precision * m.recall / (m.precision + m.recall)
                assert abs(m.f1 - harmonic) < 1e-12
            assert min(m.precision, m.recall) - 1e-12 <= m.f1 <= max(m.precision, m.recall) + 1e-12

    def test_zero_denominator_warns(self):
        pred = ["not_hate_crime"]
        gold = ["not_hate_crime"]
        with pytest.warns(UserWarning):
            m = evaluate(pred, gold)
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError, match="^1 predicted labels for 2 gold labels$"):
            evaluate(["hate_crime"], ["hate_crime", "hate_crime"])


BUNDLED = load_gazetteer(GAZETTEER)


def fixture_model():
    """The baseline trained on the fixture, with its threshold moved to the
    median fixture score so that both labels occur."""
    model = train_baseline(load_articles(FIXTURES / "train_articles.jsonl"), seed=0)
    scores = [score(model, r.text()) for r in load_articles(FIXTURES / "articles.jsonl")]
    return BaselineModel(model.vocabulary, model.bias, float(np.median(scores)), model.metadata)


MODEL = fixture_model()


def assert_fused_pass_is_per_record(records):
    """classify_corpus with a gazetteer equals `score` and `resolve_state`
    applied to each record."""
    labeled, scores = classify_corpus(MODEL, corpus_of(records), BUNDLED)
    assert labeled.ids == [r.id for r in records]
    for i, (record, out) in enumerate(zip(records, labeled)):
        expected = score(MODEL, record.text())
        assert scores[i] == expected
        assert out.predicted_label == ("hate_crime" if expected >= MODEL.threshold else "not_hate_crime")
        state = record.state if record.state is not None else resolve_state(record.text(), BUNDLED).state
        assert out == record._replace(predicted_label=out.predicted_label, state=state)


WORDS = st.sampled_from(
    sorted(entry.name for entry in BUNDLED.entries.values())[::7]
    + sorted(MODEL.vocabulary)[::3]
    + [",", ".", "!", "\n"]
)
STATES = st.sampled_from([None, None, None, "CA", "UNKNOWN"])


class TestFusedPass:
    @pytest.mark.parametrize("name", ["articles.jsonl", "articles_annotated_500.jsonl"])
    def test_fixture_articles(self, name):
        # The annotated articles carry states; dropped, they are resolved.
        records = [r._replace(state=None) for r in load_articles(FIXTURES / name)]
        assert_fused_pass_is_per_record(records)

    def test_fixture_model_gives_both_labels(self):
        labeled, _ = classify_corpus(MODEL, load_articles(FIXTURES / "articles.jsonl"))
        assert {r.predicted_label for r in labeled} == {"hate_crime", "not_hate_crime"}

    @seed(20261019)
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.lists(WORDS, min_size=1, max_size=10), STATES), max_size=12))
    def test_generated_records(self, rows):
        records = [
            ArticleRecord(f"g{i}", dt.date(2010, 1, 1), words[0], " ".join(words[1:]), state=state)
            for i, (words, state) in enumerate(rows)
        ]
        assert_fused_pass_is_per_record(records)

    def test_blank_record_without_state_rejected_with_id(self):
        records = corpus_of([rec(0, "in Sacramento"), rec(1, " \t")])
        with pytest.raises(InvalidArgumentError, match="^article 'a0001': text must be nonempty$"):
            classify_corpus(MODEL, records, BUNDLED)
        # Without a gazetteer, or with a state, a blank record is only scored.
        assert len(classify_corpus(MODEL, records)[0]) == 2
        blank_in_ca = corpus_of([rec(1, " ")._replace(state="CA")])
        assert classify_corpus(MODEL, blank_in_ca, BUNDLED)[0].states == ["CA"]


# Names that overlap, share first tokens, tie on priority and token count,
# and run up to 6 tokens; "kappa" is written with U+212A in some texts.
SYNTHETIC = Gazetteer(
    entries={
        tuple(name.split()): GazetteerEntry(name, state, priority)
        for name, state, priority in [
            ("alpha", "AL", 3), ("alpha beta", "AK", 2), ("alpha beta gamma", "AZ", 2), ("beta gamma", "AR", 2),
            ("gamma", "CA", 1), ("beta gamma delta epsilon zeta eta", "CO", 1), ("delta", "CT", 2),
            ("delta epsilon", "DE", 2), ("epsilon zeta", "FL", 2), ("zeta eta theta", "GA", 3),
            ("eta theta", "HI", 3), ("kappa", "ID", 2), ("i ota", "IL", 2), ("alpha alpha", "IN", 1),
        ]
    }
)
# Weights whose sum depends on the order of the additions; the last five
# keys can never be a token of a text.
ORACLE_MODEL = BaselineModel(
    vocabulary={"alpha": 0.1, "beta": 0.2, "gamma": 1 / 3, "delta": -0.7, "eta": 1e-16, "kappa": 3.0, "i": -2.5,
                "filler": 0.3, "Alpha": 9.0, "\u00e9t\u00e9": 9.0, "": 9.0, "alpha beta": 9.0, "\0": 9.0},
    bias=0.1, threshold=0.5, metadata={},
)
ORACLE_WORDS = st.sampled_from(
    ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "kappa", "\u212aappa", "\u0130ota",
     "filler", "Alpha", "\u00e9t\u00e9", ",", "\0", "\n", "", "  "]
)
ORACLE_TEXTS = st.lists(ORACLE_WORDS, max_size=14).map(" ".join)


class TestBatchOracle:
    """The batch path against one text at a time in plain Python: the
    states of `conftest.resolve_plainly`, the logits added left to right,
    in batches of at most 3 texts or 40 characters."""

    @seed(20261020)
    @settings(max_examples=250, deadline=None)
    @given(st.lists(st.tuples(ORACLE_TEXTS, ORACLE_TEXTS, st.sampled_from([None, None, "CA"])), max_size=9))
    def test_matches_the_plain_resolver_and_sum(self, rows):
        corpus = corpus_of([ArticleRecord(f"g{i}", dt.date(2010, 1, 1), t, b, state=s) for i, (t, b, s) in enumerate(rows)])
        texts = list(corpus.texts())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geo, "_BATCH", 3)
            patch.setattr(geo, "_BATCH_CHARS", 40)
            blank = next((i for i, text in enumerate(texts) if corpus.states[i] is None and not text.strip()), None)
            if blank is not None:
                with pytest.raises(InvalidArgumentError, match=f"^article 'g{blank}': text must be nonempty$"):
                    classify_corpus(ORACLE_MODEL, corpus, SYNTHETIC)
                return
            labeled, scores = classify_corpus(ORACLE_MODEL, corpus, SYNTHETIC)
            index = geo.token_index(ORACLE_MODEL.vocabulary, None)
            logits = [_logits(ORACLE_MODEL.bias, index.weights[ids], starts, lengths).tolist()
                      for ids, starts, lengths, _ in geo.token_batches(corpus, index, False)]
        expected = [logit(ORACLE_MODEL, text) for text in texts]
        assert sum(logits, []) == expected
        assert scores.tolist() == [float(1.0 / (1.0 + np.exp(-z))) for z in expected]
        for text, state, out in zip(texts, corpus.states, labeled.states):
            assert out == (state or resolve_plainly(text, SYNTHETIC).state)
            if text.strip():
                assert resolve_state(text, SYNTHETIC) == resolve_plainly(text, SYNTHETIC)


class TestBatchMemory:
    def test_a_chunk_of_long_texts_is_labeled_a_batch_at_a_time(self):
        """Labeling one chunk of 4,096 texts of 2,000 tokens stays under
        24 MB at its peak. The whole chunk's 8.2M token ids alone would take
        65 MB, and as many pointers in the list of its tokens another 65 MB.
        The tokens are single letters, which Python does not allocate anew,
        so that tracing stays fast."""
        n = signals._CHUNK
        body = " ".join("abcdefghij"[i % 10] for i in range(1999)) + " Texas"
        corpus = corpus_of([rec(i, body) for i in range(n)])
        model = BaselineModel({"a": 0.25, "b": -0.5, "texas": 1.0}, -0.5, 0.5, {})
        tracemalloc.start()
        try:
            labeled, scores = classify_corpus(model, corpus, BUNDLED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert labeled.states == ["TX"] * n
        assert scores.tolist() == [score(model, corpus.bodies[0])] * n
        assert peak < 24 * 2**20, peak


class TestModelFile:
    def test_json_roundtrip(self, tmp_path):
        model = train_baseline(separable_corpus(seed=7), seed=7)
        path = tmp_path / "model.json"
        model.to_json(path)
        back = BaselineModel.from_json(path)
        assert back.vocabulary == dict(model.vocabulary)
        assert back.bias == model.bias
        assert back.threshold == model.threshold

    def test_threshold_bounds_enforced(self):
        with pytest.raises(InvalidArgumentError):
            BaselineModel(vocabulary={"a": 1.0}, bias=0.0, threshold=1.5, metadata={})

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(InvalidArgumentError):
            BaselineModel(vocabulary={}, bias=0.0, threshold=0.5, metadata={})
