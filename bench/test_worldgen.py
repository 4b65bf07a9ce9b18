"""The benchmark's world generator: fixture parameters reproduce
tests/fixtures byte for byte, and gazetteer worlds carry a truth that the
program's resolver and detector can reach."""

import csv
import json
from pathlib import Path

import pytest

import worldgen

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
GAZETTEER = ROOT / "src" / "crimecast" / "data" / "gazetteer.tsv"


def small_world(tmp_path: Path, seed: int = 7):
    spec = worldgen.gazetteer_world(GAZETTEER, 50, seed=seed, n_quarters=8, news_rate=3.0, unknown_rate=2.0,
                                    predicted_labels=False, n_train=300)
    n = worldgen.write_world(spec, tmp_path / "world", tmp_path / "truth.csv")
    with (tmp_path / "truth.csv").open() as fh:
        truth = list(csv.DictReader(fh))
    with (tmp_path / "world" / "articles.jsonl").open() as fh:
        articles = [json.loads(line) for line in fh]
    assert len(truth) == len(articles) == n
    return spec, truth, articles


def test_fixture_parameters_reproduce_tests_fixtures(tmp_path):
    worldgen.write_world(worldgen.FIXTURE, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in FIXTURES.iterdir())
    for path in sorted(FIXTURES.iterdir()):
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


def test_seed_decides_the_world(tmp_path):
    a, b, c = (tmp_path / name for name in "abc")
    for out, seed in ((a, 1), (b, 1), (c, 2)):
        spec = worldgen.gazetteer_world(GAZETTEER, 5, seed=seed, n_quarters=8, n_train=60)
        worldgen.write_world(spec, out)
    assert (a / "articles.jsonl").read_bytes() == (b / "articles.jsonl").read_bytes()
    assert (a / "articles.jsonl").read_bytes() != (c / "articles.jsonl").read_bytes()


def test_article_places_belong_to_the_true_state(tmp_path):
    spec, truth, articles = small_world(tmp_path)
    entries = worldgen.read_gazetteer(GAZETTEER)
    for row, article in zip(truth, articles):
        assert row["id"] == article["id"]
        assert "state" not in article and "predicted_label" not in article
        expected = set() if row["state"] == "UNKNOWN" else {row["state"]}
        assert worldgen._matched_states(f"{article['title']}\n{article['body']}", entries) == expected
    assert {r["state"] for r in truth} - {"UNKNOWN"} == set(spec.states)
    assert len(spec.states) == 50


def test_program_resolves_and_detects_the_truth(tmp_path):
    geo = pytest.importorskip("crimecast.geo")
    detector = pytest.importorskip("crimecast.detector")
    signals = pytest.importorskip("crimecast.signals")
    _, truth, _ = small_world(tmp_path)
    records = signals.load_articles(tmp_path / "world" / "articles.jsonl")
    gazetteer = geo.load_gazetteer(GAZETTEER)
    assert [geo.resolve_state(r.text(), gazetteer).state for r in records] == [row["state"] for row in truth]
    # The training corpus shares the article phrases, so the detector
    # separates the classes instead of labeling everything negative.
    model = detector.train_baseline(signals.load_articles(tmp_path / "world" / "train_articles.jsonl"))
    labeled, _ = detector.classify_corpus(model, records)
    agree = sum(r.predicted_label == row["label"] for r, row in zip(labeled, truth))
    assert agree >= 0.95 * len(truth)
    assert {r.predicted_label for r in labeled} == {"hate_crime", "not_hate_crime"}
