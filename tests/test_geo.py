import re

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from crimecast import geo
from crimecast.exceptions import InvalidArgumentError
from crimecast.geo import (
    _tokenize,
    load_gazetteer,
    resolve_state,
    token_batches,
    token_index,
    tokenize_texts,
)
from crimecast.signals import load_articles
from crimecast.stattests import cohens_kappa

from conftest import FIXTURES, GAZETTEER, resolve_plainly


def write_gazetteer(tmp_path, rows):
    path = tmp_path / "gaz.tsv"
    path.write_text("".join(f"{n}\t{s}\t{p}\n" for n, s, p in rows))
    return path


class TestLoad:
    def test_three_valid_rows(self, tmp_path):
        path = write_gazetteer(tmp_path, [("Sacramento", "CA", 2), ("Texas", "TX", 3), ("Reno", "NV", 2)])
        assert len(load_gazetteer(path).entries) == 3

    def test_duplicate_keeps_higher_priority(self, tmp_path):
        path = write_gazetteer(tmp_path, [("Springfield", "MA", 1), ("Springfield", "IL", 3)])
        gaz = load_gazetteer(path)
        assert len(gaz.entries) == 1
        assert resolve_state("an event in Springfield today", gaz).state == "IL"

    def test_unknown_state_code_rejected_with_line(self, tmp_path):
        path = write_gazetteer(tmp_path, [("Sacramento", "CA", 2), ("Atlantis", "XX", 2)])
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(str(path))}:2: unknown state code 'XX'$"):
            load_gazetteer(path)

    def test_malformed_row_reported(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("Sacramento\tCA\t2\nnot-enough-fields\n")
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(str(path))}:2: malformed row"):
            load_gazetteer(path)

    def test_zero_valid_rows(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("# name\tstate\tpriority\n\n")
        with pytest.raises(InvalidArgumentError, match="no valid rows"):
            load_gazetteer(path)

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("Reno\tNV", "malformed row"),
            ("Reno\tNV\t2\textra", "malformed row"),
            ("--\tNV\t2", "empty name"),
            ("Reno\tNV\thigh", "priority must be an integer"),
            ("Reno\tNV\t7", "priority must be 1, 2, or 3"),
        ],
    )
    def test_every_malformed_row_names_path_line(self, tmp_path, row, problem):
        path = tmp_path / "gaz.tsv"
        path.write_text(f"Sacramento\tCA\t2\n# comment\n{row}\nTexas\tTX\t3\n")
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(str(path))}:3: {problem}"):
            load_gazetteer(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            load_gazetteer(tmp_path / "missing.tsv")

    def test_first_token_index(self, tmp_path):
        gaz = load_gazetteer(
            write_gazetteer(tmp_path, [("Kansas City", "MO", 2), ("Kansas", "KS", 3), ("New York City", "NY", 2)])
        )
        index = token_index({}, gaz)
        assert {token for token, i in index.ids.items() if index.roots[i]} == {"kansas", "new"}
        assert sorted(index.names[index.names >= 0]) == [0, 1, 2]


class TestResolve:
    @pytest.fixture
    def gaz(self, tmp_path):
        return load_gazetteer(
            write_gazetteer(
                tmp_path,
                [
                    ("Sacramento", "CA", 2),
                    ("California", "CA", 3),
                    ("New York", "NY", 2),
                    ("Kansas", "KS", 3),
                    ("Kansas City", "MO", 2),
                    ("Harvard University", "MA", 1),
                ],
            )
        )

    def test_single_city_match(self, gaz):
        out = resolve_state("...a rally in Sacramento turned violent...", gaz)
        assert out.state == "CA"
        assert out.matched_name == "Sacramento"

    def test_state_name_beats_city(self, gaz):
        text = "Crowds in New York watched as California lawmakers voted."
        assert resolve_state(text, gaz).state == "CA"

    def test_longest_match_suppresses_contained(self, gaz):
        assert resolve_state("An incident in Kansas City was reported.", gaz).state == "MO"

    def test_unmatched_returns_unknown(self, gaz):
        out = resolve_state("nothing to see here", gaz)
        assert out.state == "UNKNOWN"
        assert out.score == 0.0

    def test_institute_priority_lowest(self, gaz):
        text = "Students at Harvard University traveled to Sacramento."
        assert resolve_state(text, gaz).state == "CA"

    def test_deterministic(self, gaz):
        text = "From Sacramento to New York and back."
        fst = resolve_state(text, gaz)
        for _ in range(5):
            assert resolve_state(text, gaz) == fst

    def test_case_and_whitespace_normalization(self, gaz):
        assert resolve_state("IN   SACRAMENTO  TODAY", gaz).state == "CA"

    def test_normalization_idempotent(self, gaz):
        text = "A March in   SACRAMENTO!"
        normalized = " ".join(text.lower().split())
        assert resolve_state(text, gaz).state == resolve_state(normalized, gaz).state

    def test_adding_unrelated_entry_no_effect(self, gaz, tmp_path):
        text = "...a rally in Sacramento turned violent..."
        before = resolve_state(text, gaz)
        bigger = load_gazetteer(
            write_gazetteer(
                tmp_path,
                [
                    ("Sacramento", "CA", 2),
                    ("California", "CA", 3),
                    ("New York", "NY", 2),
                    ("Kansas", "KS", 3),
                    ("Kansas City", "MO", 2),
                    ("Harvard University", "MA", 1),
                    ("Tulsa", "OK", 2),
                ],
            )
        )
        assert resolve_state(text, bigger) == before

    def test_empty_text_rejected(self, gaz):
        with pytest.raises(InvalidArgumentError):
            resolve_state("   ", gaz)

    def test_one_gazetteer_builds_one_index(self, gaz, monkeypatch):
        """Calls with one gazetteer share the index it builds on first use."""
        built = []
        monkeypatch.setattr(geo, "token_index", lambda *args: built.append(args) or token_index(*args))
        assert resolve_state("a rally in Sacramento", gaz).state == "CA"
        assert resolve_state("an event in Kansas City", gaz).state == "MO"
        assert built == [({}, gaz)]


class TestBundledGazetteer:
    def test_loads_with_state_names_and_cities(self):
        gaz = load_gazetteer(GAZETTEER)
        assert len(gaz.entries) > 250

    def test_annotated_fixture_kappa(self):
        gaz = load_gazetteer(GAZETTEER)
        records = load_articles(FIXTURES / "articles_annotated_500.jsonl")
        assert len(records) == 500
        gold = [r.state for r in records]
        predicted = [resolve_state(r.text(), gaz).state for r in records]
        assert cohens_kappa(gold, predicted) >= 0.75


BUNDLED = load_gazetteer(GAZETTEER)
NAMES = sorted(entry.name for entry in BUNDLED.entries.values())
# First tokens of multi-token names ("kansas" of "Kansas City"), which end a
# text in some examples: there a longer name would run past the last token.
PREFIXES = sorted({tokens[0] for tokens in BUNDLED.entries if len(tokens) > 1})
FILLER = ["in", "the", "near", "of", "city", "county", "north", "new", "police", "reported", "state"]
PUNCTUATION = [",", ".", "-", "'s", "!", "(", ")"]
WORDS = st.sampled_from(NAMES + PREFIXES + FILLER + PUNCTUATION)


class TestFirstTokenIndex:
    """resolve_state walks the trie only from the places whose token starts
    a name; the reference probes every n-gram."""

    @pytest.mark.parametrize("name", ["articles.jsonl", "articles_annotated_500.jsonl"])
    def test_matches_reference_on_fixture_articles(self, name):
        for record in load_articles(FIXTURES / name):
            assert resolve_state(record.text(), BUNDLED) == resolve_plainly(record.text(), BUNDLED)

    @seed(20261018)
    @settings(max_examples=400, deadline=None)
    @given(st.lists(WORDS, min_size=1, max_size=12), st.sampled_from(PREFIXES))
    @example(["Colorado", "police", "reported", "an", "attack", "in"], "kansas")
    @example(["a", "rally", "in"], "kansas")
    def test_matches_reference_on_generated_texts(self, words, last):
        for text in (" ".join(words), " ".join([*words, last])):
            assert resolve_state(text, BUNDLED) == resolve_plainly(text, BUNDLED)


def regex_tokens(text):
    """The tokenizer rule as a regular expression: the oracle."""
    return re.findall(r"[a-z0-9]+", text.lower())


# Letters around the edge cases of the rule: non-ASCII letters, the two that
# lowercase to ASCII (U+0130 to "i" plus a combining dot, U+212A to "k"),
# NUL, the other ASCII separators and whitespace.
TOKENIZER_TEXTS = st.text(
    st.one_of(
        st.sampled_from(list("aZk9 ,-'\t\n\r\x00\x0b\x1c\u0130\u212aéßΣ\u00a0\ud800")),
        st.characters(),
    ),
    max_size=40,
)


class TestTokenizer:
    @seed(20261019)
    @settings(max_examples=300, deadline=None)
    @given(st.lists(TOKENIZER_TEXTS, max_size=8))
    @example(["", "\x00", "a\x00b", ""])
    @example(["\u0130stanbul \u212aansas", "\r\nKC\rMO"])
    def test_matches_the_regex(self, texts):
        expected = [regex_tokens(text) for text in texts]
        assert list(tokenize_texts(texts)) == expected
        assert [_tokenize(text) for text in texts] == expected
        if texts:  # the token ids of one batch, each text's read back
            index = token_index(dict.fromkeys(sum(expected, []), 0.0), None)
            tokens = [*index.ids]
            ids, starts, lengths = geo._token_ids(texts, index)
            assert [[tokens[i] for i in ids[s : s + n]] for s, n in zip(starts, lengths)] == expected

    def test_batch_boundaries(self):
        n = 2 * geo._BATCH + 3
        texts = [f"Text {i}: Kansas City\x00{i % 7}" if i % 5 else "" for i in range(n)]
        tokens = list(tokenize_texts(iter(texts)))
        assert tokens == [regex_tokens(text) for text in texts]

    def test_resolve_tokens_is_resolve_state(self, monkeypatch):
        """The batch resolver of the corpus pass, in batches of 7 texts,
        gives each fixture article the state of `resolve_state`."""
        monkeypatch.setattr(geo, "_BATCH", 7)
        corpus = load_articles(FIXTURES / "articles.jsonl")
        states = [s for *_, batch in token_batches(corpus, token_index({}, BUNDLED), True) for s in batch]
        assert states == [resolve_state(text, BUNDLED).state for text in corpus.texts()]
