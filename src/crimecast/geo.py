"""Gazetteer-backed resolution of the U.S. state where a reported incident
occurred.

Matching is whole-token: gazetteer names are tokenized, the article text is
scanned for n-gram occurrences, matches contained in a longer overlapping
match are suppressed, and the survivors are ranked by priority class
(state name > city > institute), then name length, then earliest position.

A token is a maximal run of [a-z0-9] in the lowercased text. A corpus is
tokenized a batch of texts at a time (`token_batches`) into one array of
ids of a `TokenIndex`, which holds each id's detector weight and the names
as a trie over ids: the detector scores and the resolver matches a whole
batch with array operations over the one tokenization.
"""

from __future__ import annotations

from functools import cached_property
from importlib import resources
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

import numpy as np

from .exceptions import InvalidArgumentError, decode_utf8
from .record import Record

if TYPE_CHECKING:
    from .signals import Corpus

UNKNOWN_STATE = "UNKNOWN"

US_STATE_CODES = frozenset(
    {
        "AL", "AK", "AZ", "AR", "CA", "CO", "CT", "DE", "FL", "GA",
        "HI", "ID", "IL", "IN", "IA", "KS", "KY", "LA", "ME", "MD",
        "MA", "MI", "MN", "MS", "MO", "MT", "NE", "NV", "NH", "NJ",
        "NM", "NY", "NC", "ND", "OH", "OK", "OR", "PA", "RI", "SC",
        "SD", "TN", "TX", "UT", "VT", "VA", "WA", "WV", "WI", "WY",
        "DC",
    }
)

PRIORITY_STATE_NAME = 3
PRIORITY_CITY = 2
PRIORITY_INSTITUTE = 1

# Lowercased text encoded as ASCII (any other character becomes "?") maps
# every byte but [a-z0-9] and NUL to a space; a NUL token ends each text of a
# batch. Lowercasing first keeps the two non-ASCII letters that lowercase to
# ASCII: U+212A (Kelvin sign) becomes "k", U+0130 "i" plus a combining dot.
_TOKEN_BYTES = bytes(b if b == 0 or 48 <= b <= 57 or 97 <= b <= 122 else 32 for b in range(256))
# A token batch holds at most _BATCH texts and ends at the text reaching
# _BATCH_CHARS characters, so that long texts hold few tokens at once.
_BATCH = 1024
_BATCH_CHARS = 1 << 20


def _folded(batch: list[str]) -> str:
    """The texts of `batch`, each followed by a NUL token, in one string
    lowercased, encoded and translated to the token alphabet."""
    joined = " \0 ".join(batch) + " \0"
    if joined.count("\0") > len(batch):  # a text holds a NUL of its own
        joined = " \0 ".join(text.replace("\0", " ") for text in batch) + " \0"
    return joined.lower().encode("ascii", "replace").translate(_TOKEN_BYTES).decode("ascii")


def _batches(texts: Iterable[str]) -> Iterator[list[str]]:
    batch, size = [], 0
    for text in texts:
        batch.append(text)
        size += len(text)
        if len(batch) == _BATCH or size >= _BATCH_CHARS:
            yield batch
            batch, size = [], 0
    if batch:
        yield batch


def _tokenize(text: str) -> list[str]:
    return next(tokenize_texts((text,)))


def tokenize_texts(texts: Iterable[str]) -> Iterator[list[str]]:
    """The tokens of each text, in order, a batch of texts at a time."""
    for batch in _batches(texts):
        for text in _folded(batch).split("\0")[:-1]:
            yield text.split()


class GazetteerEntry(Record):
    name: str
    state: str
    priority: int


class Gazetteer(Record):
    """Normalized place/institute names mapped to state codes; `index`, their token index, is built once."""

    entries: Mapping[tuple[str, ...], GazetteerEntry]

    @cached_property
    def index(self) -> TokenIndex:
        return token_index({}, self)


class Resolution(Record):
    state: str
    matched_name: str
    score: float


def bundled_gazetteer_path() -> Path:
    """Path of the mini-gazetteer shipped with the package
    (state names, ~200 cities, a few institutes)."""
    return Path(str(resources.files("crimecast").joinpath("data", "gazetteer.tsv")))


def load_gazetteer(path: str | Path) -> Gazetteer:
    """Load `name <TAB> state_code <TAB> priority` rows.

    Duplicate names keep the higher-priority entry (first wins on equal
    priority). A malformed row or an unknown state code is an error naming
    `path:line`.
    """
    path = Path(path)
    try:
        lines = decode_utf8(path.read_bytes(), path).splitlines()
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read gazetteer {path}: {exc}") from exc
    entries: dict[tuple[str, ...], GazetteerEntry] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise InvalidArgumentError(f"{path}:{lineno}: malformed row (expected 3 tab-separated fields)")
        name, state, raw_priority = (p.strip() for p in parts)
        tokens = tuple(_tokenize(name))
        if not tokens:
            raise InvalidArgumentError(f"{path}:{lineno}: empty name")
        state = state.upper()
        if state not in US_STATE_CODES:
            raise InvalidArgumentError(f"{path}:{lineno}: unknown state code {state!r}")
        try:
            priority = int(raw_priority)
        except ValueError:
            raise InvalidArgumentError(f"{path}:{lineno}: priority must be an integer") from None
        if priority not in (PRIORITY_INSTITUTE, PRIORITY_CITY, PRIORITY_STATE_NAME):
            raise InvalidArgumentError(f"{path}:{lineno}: priority must be 1, 2, or 3")
        existing = entries.get(tokens)
        if existing is None or priority > existing.priority:
            entries[tokens] = GazetteerEntry(name=name, state=state, priority=priority)
    if not entries:
        raise InvalidArgumentError(f"gazetteer {path} has no valid rows")
    return Gazetteer(entries=entries)


class TokenIndex(Record):
    """The token ids of one corpus pass: the NUL that ends each text of a
    batch is 0, a token outside `ids` is `len(ids)`. `weights` holds each
    id's detector weight. The names form a trie over ids: the root (node 0)
    leads to `roots[id]` (0 for none), node n on id t to `children[i]` for
    `keys[i] == n * (len(ids) + 1) + t` (the last key a sentinel), and a
    name of `entries` ends at node n where `names[n]` is its place."""

    ids: Mapping[str, int]
    weights: np.ndarray
    roots: np.ndarray
    keys: np.ndarray
    children: np.ndarray
    names: np.ndarray
    entries: tuple[GazetteerEntry, ...]


def token_index(vocabulary: Mapping[str, float], gazetteer: Gazetteer | None) -> TokenIndex:
    """The token index of a detector vocabulary and of a gazetteer's names,
    if any. A key that is no token (say "A", "a b" or "\\0") matches none."""
    names = gazetteer.entries if gazetteer is not None else {}
    tokens = [*dict.fromkeys(["\0", *vocabulary, *(token for name in names for token in name)])]
    ids = {token: i for i, token in enumerate(tokens)}
    weights = np.array([0.0, *(vocabulary.get(token, 0.0) for token in tokens[1:]), 0.0])
    base = len(ids) + 1
    edges = {np.iinfo(np.int64).max: -1}  # a sentinel after every key
    ends = [-1]  # the entry that ends at each node
    for entry, name in enumerate(names):
        node = 0
        for token in name:
            node = edges.setdefault(node * base + ids[token], len(ends))
            if node == len(ends):
                ends.append(-1)
        ends[node] = entry
    keys, children = (np.array(column, np.int64) for column in zip(*sorted(edges.items())))
    roots = np.zeros(base, np.int64)
    roots[keys[keys < base]] = children[keys < base]
    return TokenIndex(ids, weights, roots, keys, children, np.array(ends, np.int64), tuple(names.values()))


def _token_ids(batch: list[str], index: TokenIndex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ids of the batch's tokens, each text followed by the id 0, and
    each text's first place and token count in them."""
    tokens = _folded(batch).split()
    ids = np.fromiter(map(index.ids.get, tokens, repeat(len(index.ids))), np.intp, len(tokens))
    ends = np.flatnonzero(ids == 0)
    starts = np.concatenate(([0], ends[:-1] + 1))
    return ids, starts, ends - starts


def _resolve(index: TokenIndex, ids: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The entry (a place in `index.entries`) that wins in each text of a
    batch, by `_token_ids`, or -1 where no name matches. The trie is walked
    a token at a time from each place whose token starts a name; the id 0
    that ends a text ends the walks in it."""
    places = np.flatnonzero(index.roots[ids])
    nodes, length = index.roots[ids[places]], 1
    matches = [(np.zeros(0, np.intp),) * 3]  # the start, end and entry of each name in the texts
    while len(places):
        named = index.names[nodes]
        matches.append((places[named >= 0], places[named >= 0] + length, named[named >= 0]))
        key = nodes * (len(index.ids) + 1) + ids[places + length]
        edge = np.searchsorted(index.keys, key)
        hit = index.keys[edge] == key
        places, nodes, length = places[hit], index.children[edge[hit]], length + 1
    begin, end, entry = (np.concatenate(column) for column in zip(*matches))
    order = np.argsort(begin, kind="stable")  # the matches in text order
    text = np.searchsorted(starts, begin[order], "right") - 1
    lowest, highest = np.full(len(starts), len(index.entries)), np.full(len(starts), -1)
    np.minimum.at(lowest, text, entry[order])
    np.maximum.at(highest, text, entry[order])  # the winner where a text names one entry, however often
    for t in np.flatnonzero(lowest < highest).tolist():
        rows = order[slice(*np.searchsorted(text, [t, t + 1]))]
        highest[t] = _rank([*zip(begin[rows].tolist(), end[rows].tolist(), entry[rows].tolist())], index.entries)
    return highest


def _rank(matches: list[tuple[int, int, int]], entries: tuple[GazetteerEntry, ...]) -> int:
    """The winning entry among one text's (start, end, entry) name matches."""
    # Longest match wins on overlap, so "Kansas City" suppresses "Kansas".
    matches.sort(key=lambda m: (m[0] - m[1], -entries[m[2]].priority, m[0]))
    kept: list[tuple[int, int, int]] = []
    for match in matches:
        if not any(match[0] < other[1] and other[0] < match[1] for other in kept):
            kept.append(match)
    return min(kept, key=lambda m: (-entries[m[2]].priority, m[0] - m[1], -len(entries[m[2]].name), m[0]))[2]


def token_batches(
    corpus: Corpus, index: TokenIndex, resolve: bool
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, list[str | None]]]:
    """Each batch of the corpus's texts, in order, as `_token_ids` gives it,
    with the states of its articles. With `resolve`, an article without a
    state gets the state resolved from its tokens, or UNKNOWN; a blank such
    article is an InvalidArgumentError naming its id."""
    names = np.array([*(entry.state for entry in index.entries), UNKNOWN_STATE], object)  # -1 is UNKNOWN
    done = 0
    for batch in _batches(corpus.texts()):
        ids, starts, lengths = _token_ids(batch, index)
        states = corpus.states[done : done + len(batch)]
        if resolve and None in states:
            for i in np.flatnonzero(lengths == 0).tolist():
                if states[i] is None and not batch[i].strip():
                    raise InvalidArgumentError(f"article {corpus.ids[done + i]!r}: text must be nonempty")
            states = [state or name for state, name in zip(states, names[_resolve(index, ids, starts)].tolist())]
        yield ids, starts, lengths, states
        done += len(batch)


def resolve_state(text: str, gazetteer: Gazetteer) -> Resolution:
    """Resolve the state for an article text, or UNKNOWN when nothing matches."""
    if not text or not text.strip():
        raise InvalidArgumentError("text must be nonempty")
    index = gazetteer.index
    winner = _resolve(index, *_token_ids([text], index)[:2])[0]
    entry = index.entries[winner] if winner >= 0 else GazetteerEntry("", UNKNOWN_STATE, 0)
    return Resolution(entry.state, entry.name, float(entry.priority))
