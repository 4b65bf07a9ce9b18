"""Seeded synthetic worlds for the benchmark.

A world is the set of input files the crimecast CLI reads: a national
quarterly series (`fbi.csv`), national covariates, a state panel, an article
corpus, a labeled training corpus for the baseline detector and, for the
fixture world, a 500-article state-resolution audit set plus `config.json`.

`FIXTURE` reproduces `tests/fixtures/` byte for byte (the draws happen in the
same order as in `tests/gen_fixtures.py`). Larger worlds change the seed,
the number of states, quarters and articles, and the training corpus. Their
articles name cities taken from the bundled gazetteer, chosen so that every
place name in an article text belongs to the article's state, and
`write_world` records each article's true state and class in `truth.csv`.

Run as a script to write a world, e.g. the fixture world:

    python bench/worldgen.py --out /tmp/world
"""

from __future__ import annotations

import argparse
import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

import numpy as np

FIXTURE_STATES = (
    "CA", "TX", "NY", "FL", "IL", "OH", "WA", "GA", "PA", "MI",
    "NC", "NJ", "VA", "AZ", "MA", "TN", "IN", "MO", "MD", "WI",
)
FIXTURE_CITIES = {
    "CA": ("Los Angeles", "San Francisco", "San Diego", "Sacramento"),
    "TX": ("Houston", "Dallas", "Austin", "San Antonio"),
    "NY": ("Buffalo", "Rochester", "Albany", "Syracuse"),
    "FL": ("Miami", "Orlando", "Tampa", "Jacksonville"),
    "IL": ("Chicago", "Peoria", "Naperville", "Springfield"),
    "OH": ("Columbus", "Cleveland", "Cincinnati", "Toledo"),
    "WA": ("Seattle", "Spokane", "Tacoma", "Olympia"),
    "GA": ("Atlanta", "Savannah", "Augusta", "Macon"),
    "PA": ("Philadelphia", "Pittsburgh", "Harrisburg", "Allentown"),
    "MI": ("Detroit", "Grand Rapids", "Ann Arbor", "Lansing"),
    "NC": ("Charlotte", "Raleigh", "Durham", "Greensboro"),
    "NJ": ("Newark", "Jersey City", "Trenton", "Atlantic City"),
    "VA": ("Richmond", "Virginia Beach", "Norfolk", "Alexandria"),
    "AZ": ("Phoenix", "Tucson", "Mesa", "Scottsdale"),
    "MA": ("Boston", "Worcester", "Cambridge", "Lowell"),
    "TN": ("Nashville", "Memphis", "Knoxville", "Chattanooga"),
    "IN": ("Indianapolis", "Fort Wayne", "Evansville", "South Bend"),
    "MO": ("Kansas City", "Saint Louis", "Independence", "Branson"),
    "MD": ("Baltimore", "Annapolis", "Rockville", "Frederick"),
    "WI": ("Milwaukee", "Madison", "Green Bay", "Kenosha"),
}

SEASONAL = (150.0, -80.0, 60.0, -130.0)

POSITIVE_PHRASES = (
    "Police investigated a reported bias incident near {place} after witnesses described slurs and vandalism.",
    "A suspect was arrested in {place} after an attack that officers classified as bias motivated.",
    "Community leaders in {place} condemned graffiti and threats targeting a local congregation.",
)
NEGATIVE_PHRASES = (
    "The city council in {place} approved the quarterly budget after a short debate.",
    "A street festival in {place} drew large crowds and closed two downtown blocks.",
    "Officials in {place} announced new funding for road repairs and school programs.",
    "The weather service issued a routine advisory for the {place} metro area.",
)
UNKNOWN_PLACE = "the area"
UNKNOWN_TITLE = "Regional report"

COVARIATES = {
    "aggravated_assault_rate": (250.0, 6.0),
    "arrests_drug_abuse_violations": (1300.0, 25.0),
    "arrests_weapons": (120.0, 4.0),
    "burglary_rate": (700.0, 12.0),
    "homicide_victims_black": (55.0, 2.0),
    "murder_nonnegligent_manslaughter_rate": (5.0, 0.15),
    "population": (298.0, 0.0),
    "rape_rate": (30.0, 0.8),
    "robbery_rate": (120.0, 3.0),
    "total_law_enforcement_employees": (1000.0, 10.0),
    "uner_quar": (6.0, 0.25),
}

# Bag-of-words training corpus of the fixture world. Its vocabulary barely
# overlaps the article templates, so a detector trained on it labels
# template articles by their few shared words.
TRAIN_FILL = ("the", "a", "report", "city", "local", "community", "police", "street",
              "meeting", "group", "member", "public", "area", "years", "officials")
TRAIN_POSITIVE = ("bias", "slur", "vandalism", "attacked", "threat", "graffiti")
TRAIN_NEGATIVE = ("budget", "festival", "weather", "roadwork", "election", "parade")

FIXTURE_CONFIG = {
    "seed": 1234,
    "articles": "articles.jsonl",
    "gazetteer": "../../src/crimecast/data/gazetteer.tsv",
    "covariates": "covariates.csv",
    "fbi_series": "fbi.csv",
    "panel": "panel.csv",
    "output_dir": "out",
    "fit_start": "2007Q1",
    "fit_end": "2018Q4",
    "holdout_start": "2019Q1",
    "holdout_end": "2019Q4",
    "models": [1, 2, 3, 4, 5],
    "arima_order": "drift",
    "detector_source": "precomputed",
    "detector_model": "model.json",
    "detector_train": "train_articles.jsonl",
}


@dataclass(frozen=True)
class WorldSpec:
    """Size and shape of a world; the defaults are the fixture world."""

    seed: int = 20260809
    start_year: int = 2007
    n_quarters: int = 52
    states: tuple[str, ...] = FIXTURE_STATES
    cities: Mapping[str, tuple[str, ...]] = field(default_factory=lambda: FIXTURE_CITIES)
    news_rate: float = 1.8  # mean articles per state-quarter
    unknown_rate: float = 1.0  # mean articles per quarter that name no place
    # "fixture": bag-of-words corpus; "templates": articles built from the
    # same phrases as the corpus, so the baseline detector learns them.
    train: str = "fixture"
    n_train: int = 400
    n_annotated: int = 500
    predicted_labels: bool = True  # write predicted_label on articles
    article_states: bool = False  # write the true state on articles
    config: Mapping | None = field(default_factory=lambda: FIXTURE_CONFIG)


FIXTURE = WorldSpec()


# ---------------------------------------------------------------- gazetteer

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _tokens(text: str) -> tuple[str, ...]:
    return tuple(_TOKEN_RE.findall(text.lower()))


def read_gazetteer(path: Path) -> dict[tuple[str, ...], tuple[str, str, int]]:
    """Token tuple -> (name, state, priority), keeping the higher priority
    entry for a repeated name (the first one on equal priority)."""
    entries: dict[tuple[str, ...], tuple[str, str, int]] = {}
    for line in path.read_text().splitlines():
        parts = line.split("\t")
        if line.startswith("#") or len(parts) != 3:
            continue
        name, state, priority = parts[0].strip(), parts[1].strip().upper(), int(parts[2])
        key = _tokens(name)
        if key and (key not in entries or priority > entries[key][2]):
            entries[key] = (name, state, priority)
    return entries


def _matched_states(text: str, entries: Mapping[tuple[str, ...], tuple[str, str, int]]) -> set[str]:
    tokens = _tokens(text)
    longest = max(len(k) for k in entries)
    found = set()
    for i in range(len(tokens)):
        for n in range(1, min(longest, len(tokens) - i) + 1):
            entry = entries.get(tokens[i : i + n])
            if entry is not None:
                found.add(entry[1])
    return found


def gazetteer_cities(path: Path, states: tuple[str, ...]) -> dict[str, tuple[str, ...]]:
    """Per state, the gazetteer cities whose every article text (title and
    each phrase) mentions places of that state only."""
    entries = read_gazetteer(path)
    for phrase in POSITIVE_PHRASES + NEGATIVE_PHRASES:
        if _matched_states(f"{UNKNOWN_TITLE}\n" + phrase.format(place=UNKNOWN_PLACE), entries):
            raise ValueError(f"phrase names a gazetteer place: {phrase!r}")
    cities: dict[str, tuple[str, ...]] = {}
    for state in states:
        names = []
        for name, owner, priority in entries.values():
            if owner != state or priority != 2:
                continue
            texts = [f"Report from {name}\n" + p.format(place=name) for p in POSITIVE_PHRASES + NEGATIVE_PHRASES]
            if all(_matched_states(t, entries) == {state} for t in texts):
                names.append(name)
        if not names:
            raise ValueError(f"gazetteer has no unambiguous city for {state}")
        cities[state] = tuple(names)
    return cities


def gazetteer_states(path: Path, n: int) -> tuple[str, ...]:
    """The first n state codes (alphabetical) that have a state-name row,
    leaving out DC."""
    codes = sorted({s for _, s, p in read_gazetteer(path).values() if p == 3} - {"DC"})
    if n > len(codes):
        raise ValueError(f"gazetteer has {len(codes)} states, asked for {n}")
    return tuple(codes[:n])


# ---------------------------------------------------------------- generator


def _quarter_of(spec: WorldSpec, i: int) -> tuple[int, int]:
    return spec.start_year + i // 4, i % 4 + 1


def _month_day(spec: WorldSpec, i: int, rng: np.random.Generator) -> tuple[int, int]:
    _, q = _quarter_of(spec, i)
    month = 3 * (q - 1) + int(rng.integers(1, 4))
    day = int(rng.integers(1, 28))
    return month, day


def _ar1_path(rng: np.random.Generator, base: float, sigma: float, n: int, drift: float = 0.0) -> np.ndarray:
    x = np.empty(n)
    x[0] = base
    for t in range(1, n):
        x[t] = base + drift * t + 0.7 * (x[t - 1] - base - drift * (t - 1)) + rng.normal(0.0, sigma)
    return x


def _num(value: float) -> str:
    return repr(round(float(value), 6))


def _lagged(path: np.ndarray, t: int) -> float:
    return path[t - 1] if t else path[0]


def write_world(spec: WorldSpec, out: Path, truth_path: Path | None = None) -> int:
    """Write the world's input files into `out`; return the article count.

    When `truth_path` is given, it receives `id,state,label` rows: the state
    whose place an article names (UNKNOWN when none) and the class of the
    phrase it was built from.
    """
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    n_q = spec.n_quarters
    states = spec.states

    national_cov = {}
    for name, (base, sigma) in COVARIATES.items():
        national_cov[name] = _ar1_path(rng, base, sigma, n_q, 0.2 if name == "population" else 0.0)

    state_news, state_events = {}, {}
    for s_i, state in enumerate(states):
        center = 0.10 + 0.012 * s_i
        wave = center + 0.08 * np.sin(np.arange(n_q) / 5.0 + s_i) + rng.normal(0, 0.02, n_q)
        intensity = np.clip(wave, 0.02, 0.6)
        state_news[state] = rng.poisson(spec.news_rate, n_q)
        state_events[state] = np.array(
            [rng.binomial(n, p) if n else 0 for n, p in zip(state_news[state], intensity)]
        )
    unknown_news = rng.poisson(spec.unknown_rate, n_q)
    unknown_events = np.array([rng.binomial(n, 0.15) if n else 0 for n in unknown_news])

    total_news = sum(state_news.values()) + unknown_news
    total_events = sum(state_events.values()) + unknown_events
    national_index = np.where(total_news > 0, total_events / np.maximum(total_news, 1), 0.0)

    fbi = np.empty(n_q)
    for t in range(n_q):
        fbi[t] = (
            900.0
            + 4.0 * t
            + SEASONAL[t % 4]
            + 0.9 * _lagged(national_cov["aggravated_assault_rate"], t)
            - 11.0 * _lagged(national_cov["uner_quar"], t)
            + 1.2 * national_cov["population"][t]
            + 950.0 * national_index[t]
            + rng.normal(0.0, 22.0)
        )
    with (out / "fbi.csv").open("w") as fh:
        fh.write("year,quarter,value\n")
        for t in range(n_q):
            y, q = _quarter_of(spec, t)
            fh.write(f"{y},{q},{_num(fbi[t])}\n")
    with (out / "covariates.csv").open("w") as fh:
        names = list(COVARIATES)
        fh.write("year,quarter," + ",".join(names) + "\n")
        for t in range(n_q):
            y, q = _quarter_of(spec, t)
            fh.write(f"{y},{q}," + ",".join(_num(national_cov[n][t]) for n in names) + "\n")

    counter = 0
    truth = []
    with (out / "articles.jsonl").open("w") as fh:

        def emit(row: dict, state: str, positive: bool) -> None:
            nonlocal counter
            predicted = "hate_crime" if positive else "not_hate_crime"
            if spec.predicted_labels:
                row["predicted_label"] = predicted
            if spec.article_states:
                row["state"] = state
            fh.write(json.dumps(row) + "\n")
            truth.append(f"{row['id']},{state},{predicted}\n")
            counter += 1

        for t in range(n_q):
            y, _ = _quarter_of(spec, t)
            for state in states:
                n, e = int(state_news[state][t]), int(state_events[state][t])
                cities = spec.cities[state]
                for j in range(n):
                    positive = j < e
                    city = cities[int(rng.integers(0, len(cities)))]
                    template = POSITIVE_PHRASES if positive else NEGATIVE_PHRASES
                    body = template[int(rng.integers(0, len(template)))].format(place=city)
                    month, day = _month_day(spec, t, rng)
                    gold = "hate_crime" if positive else "not_hate_crime"
                    if rng.random() < 0.10:
                        gold = "not_hate_crime" if positive else "hate_crime"
                    row = {"id": f"art{counter:05d}", "date": f"{y:04d}-{month:02d}-{day:02d}",
                           "title": f"Report from {city}", "body": body, "gold_label": gold}
                    emit(row, state, positive)
            for j in range(int(unknown_news[t])):
                positive = j < int(unknown_events[t])
                template = POSITIVE_PHRASES if positive else NEGATIVE_PHRASES
                body = template[int(rng.integers(0, len(template)))].format(place=UNKNOWN_PLACE)
                month, day = _month_day(spec, t, rng)
                row = {"id": f"art{counter:05d}", "date": f"{y:04d}-{month:02d}-{day:02d}",
                       "title": UNKNOWN_TITLE, "body": body,
                       "gold_label": "hate_crime" if positive else "not_hate_crime"}
                emit(row, "UNKNOWN", positive)
    if truth_path is not None:
        truth_path.write_text("id,state,label\n" + "".join(truth))

    panel_cov_names = [n for n in COVARIATES if n != "population"]
    with (out / "panel.csv").open("w") as fh:
        fh.write("state,year,quarter,fbi_num,population," + ",".join(panel_cov_names) + "\n")
        for s_i, state in enumerate(states):
            effect = 25.0 + 8.0 * s_i
            cov = {}
            for name in panel_cov_names:
                base, sigma = COVARIATES[name]
                cov[name] = _ar1_path(rng, base * (0.7 + 0.08 * s_i), sigma, n_q)
            population = np.full(n_q, 6.0 + 3.0 * s_i) + 0.01 * np.arange(n_q)
            news, events = state_news[state], state_events[state]
            idx = np.where(news > 0, events / np.maximum(news, 1), 0.0)
            for t in range(n_q):
                value = (
                    effect
                    + 0.12 * _lagged(cov["aggravated_assault_rate"], t)
                    + 2.0 * population[t]
                    + 55.0 * idx[t]
                    + rng.normal(0.0, 4.0)
                )
                y, q = _quarter_of(spec, t)
                row = [state, str(y), str(q), _num(max(value, 1.0)), _num(population[t])]
                row += [_num(cov[n][t]) for n in panel_cov_names]
                fh.write(",".join(row) + "\n")

    with (out / "train_articles.jsonl").open("w") as fh:
        for row in _training_rows(spec, rng):
            fh.write(json.dumps(row) + "\n")

    if spec.n_annotated:
        _write_annotated(spec, rng, out / "articles_annotated_500.jsonl")

    if spec.config is not None:
        (out / "config.json").write_text(json.dumps(spec.config, indent=2) + "\n")
    return counter


def _training_rows(spec: WorldSpec, rng: np.random.Generator) -> list[dict]:
    rows = []
    for i in range(spec.n_train):
        positive = i % 2 == 0
        title = ""
        if spec.train == "fixture":
            words = list(rng.choice(TRAIN_FILL, size=9))
            words += list(rng.choice(TRAIN_POSITIVE if positive else TRAIN_NEGATIVE, size=3))
            rng.shuffle(words)
            body = " ".join(words)
        elif spec.train == "templates":
            state = spec.states[int(rng.integers(0, len(spec.states)))]
            city = spec.cities[state][int(rng.integers(0, len(spec.cities[state])))]
            template = POSITIVE_PHRASES if positive else NEGATIVE_PHRASES
            title = f"Report from {city}"
            body = template[int(rng.integers(0, len(template)))].format(place=city)
        else:
            raise ValueError(f"unknown training corpus {spec.train!r}")
        month = int(rng.integers(1, 13))
        day = int(rng.integers(1, 28))
        rows.append({
            "id": f"train{i:04d}",
            "date": f"{spec.start_year - 1}-{month:02d}-{day:02d}",
            "title": title,
            "body": body,
            "gold_label": "hate_crime" if positive else "not_hate_crime",
        })
    return rows


def _write_annotated(spec: WorldSpec, rng: np.random.Generator, path: Path) -> None:
    """Resolver audit set: 88% name a city, 6% name nothing (gold UNKNOWN),
    6% name nothing but carry an annotator-known state."""
    n = spec.n_annotated
    named, blank = n * 88 // 100, n * 94 // 100
    states = list(spec.cities)
    rows = []
    for i in range(n):
        month = int(rng.integers(1, 13))
        day = int(rng.integers(1, 28))
        if i < named:
            state = states[int(rng.integers(0, len(states)))]
            city = spec.cities[state][int(rng.integers(0, len(spec.cities[state])))]
            body = POSITIVE_PHRASES[int(rng.integers(0, len(POSITIVE_PHRASES)))].format(place=city)
        elif i < blank:
            state = "UNKNOWN"
            body = "A regional wire report described an incident without naming any location."
        else:
            state = states[int(rng.integers(0, len(states)))]
            body = "Witnesses described the attack to reporters but the town was withheld."
        rows.append({
            "id": f"ann{i:04d}",
            "date": f"2015-{month:02d}-{day:02d}",
            "title": "",
            "body": body,
            "gold_label": "hate_crime",
            "predicted_label": "hate_crime",
            "state": state,
        })
    with path.open("w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def gazetteer_world(gazetteer: Path, n_states: int, **changes) -> WorldSpec:
    """A world over the first n gazetteer states, their unambiguous cities
    and a training corpus built from the article phrases."""
    states = gazetteer_states(gazetteer, n_states)
    base = replace(FIXTURE, states=states, cities=gazetteer_cities(gazetteer, states),
                   train="templates", n_annotated=0, config=None)
    return replace(base, **changes)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    count = write_world(FIXTURE, args.out)
    print(f"wrote the fixture world to {args.out} ({count} articles)")


if __name__ == "__main__":
    main()
