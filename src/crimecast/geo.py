"""Gazetteer-backed resolution of the U.S. state where a reported incident
occurred.

Matching is whole-token: gazetteer names are tokenized, the article text is
scanned for n-gram occurrences, matches contained in a longer overlapping
match are suppressed, and the survivors are ranked by priority class
(state name > city > institute), then name length, then earliest position.
The scan goes through a first-token index: a text position is probed only
when its token starts some name, and only at the lengths of those names.

A token is a maximal run of [a-z0-9] in the lowercased text. Texts are
tokenized a chunk at a time (`tokenize_texts`), and `corpus_tokens` gives
each article's tokens with its state, so that the detector and the resolver
share one tokenization per article without holding a whole corpus's tokens.
"""

from __future__ import annotations

from importlib import resources
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

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
# every byte but [a-z0-9] and NUL to a space; NUL separates the texts of a
# chunk. Lowercasing first keeps the two non-ASCII letters that lowercase to
# ASCII: U+212A (Kelvin sign) becomes "k", U+0130 "i" plus a combining dot.
_TOKEN_BYTES = bytes(b if b == 0 or 48 <= b <= 57 or 97 <= b <= 122 else 32 for b in range(256))
_CHUNK = 4096  # texts per tokenize_texts chunk


def _tokenize(text: str) -> list[str]:
    return next(tokenize_texts((text,)))


def tokenize_texts(texts: Iterable[str]) -> Iterator[list[str]]:
    """The tokens of each text, in order; the texts are tokenized _CHUNK at a
    time, NUL-joined, so that each chunk is lowercased, encoded and
    translated in one call each."""
    it = iter(texts)
    while chunk := list(islice(it, _CHUNK)):
        joined = "\0".join(chunk)
        if joined.count("\0") >= len(chunk):  # a text holds a NUL of its own
            joined = "\0".join(text.replace("\0", " ") for text in chunk)
        folded = joined.lower().encode("ascii", "replace").translate(_TOKEN_BYTES).decode("ascii")
        for text in folded.split("\0"):
            yield text.split()


class GazetteerEntry(Record):
    name: str
    state: str
    priority: int


class Gazetteer(Record):
    """Normalized place/institute names mapped to state codes."""

    entries: Mapping[tuple[str, ...], GazetteerEntry]
    # The first token of each name -> the ascending token counts of the
    # names that start with it.
    lengths: Mapping[str, tuple[int, ...]]


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
    lengths: dict[str, set[int]] = {}
    for tokens in entries:
        lengths.setdefault(tokens[0], set()).add(len(tokens))
    return Gazetteer(entries=entries, lengths={token: tuple(sorted(n)) for token, n in lengths.items()})


def _best_entry(tokens: list[str], gazetteer: Gazetteer) -> GazetteerEntry | None:
    """The winning gazetteer entry among the names in `tokens`, or None."""
    n_tokens = len(tokens)
    entries, lengths = gazetteer.entries, gazetteer.lengths
    candidates: list[tuple[int, int, GazetteerEntry]] = []
    for start, token in enumerate(tokens):
        for length in lengths.get(token, ()):
            end = start + length
            # Past the text's end the slice would come back short and could
            # match a shorter name under the wrong span.
            if end > n_tokens:
                break
            entry = entries.get(tuple(tokens[start:end]))
            if entry is not None:
                candidates.append((start, end, entry))
    if not candidates:
        return None
    first = candidates[0][2]
    if all(c[2] is first for c in candidates):  # one name, however often
        return first

    # Longest match wins on overlap, so "Kansas City" suppresses "Kansas".
    candidates.sort(key=lambda c: (-(c[1] - c[0]), -c[2].priority, c[0]))
    kept: list[tuple[int, int, GazetteerEntry]] = []
    for cand in candidates:
        if any(cand[0] < other[1] and other[0] < cand[1] for other in kept):
            continue
        kept.append(cand)

    kept.sort(key=lambda c: (-c[2].priority, -(c[1] - c[0]), -len(c[2].name), c[0]))
    return kept[0][2]


def resolve_tokens(tokens: list[str], gazetteer: Gazetteer) -> str:
    """The state code for a tokenized text, or UNKNOWN when nothing matches."""
    entry = _best_entry(tokens, gazetteer)
    return UNKNOWN_STATE if entry is None else entry.state


def corpus_tokens(corpus: Corpus, gazetteer: Gazetteer | None) -> Iterator[tuple[list[str], str | None]]:
    """Each article's tokens and state, in corpus order, from one chunked
    token pass. With a gazetteer, an article without a state gets the state
    resolved from its tokens; a blank such article is an InvalidArgumentError
    naming its id."""
    for i, tokens in enumerate(tokenize_texts(corpus.texts())):
        state = corpus.states[i]
        if state is None and gazetteer is not None:
            if not tokens and not (corpus.titles[i].strip() or corpus.bodies[i].strip()):
                raise InvalidArgumentError(f"article {corpus.ids[i]!r}: text must be nonempty")
            state = resolve_tokens(tokens, gazetteer)
        yield tokens, state


def resolve_state(text: str, gazetteer: Gazetteer) -> Resolution:
    """Resolve the state for an article text, or UNKNOWN when nothing matches."""
    if not text or not text.strip():
        raise InvalidArgumentError("text must be nonempty")
    entry = _best_entry(_tokenize(text), gazetteer)
    if entry is None:
        return Resolution(UNKNOWN_STATE, "", 0.0)
    return Resolution(entry.state, entry.name, float(entry.priority))
