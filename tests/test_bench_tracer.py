"""The benchmark's tracer wraps crimecast functions by name; a refactor that
renames or moves one of them, or stops calling it, would break
`bench/run.py --trace 1`."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import crimecast
from conftest import FIXTURES

TRACER = Path(__file__).parents[1] / "bench" / "tracer.py"
LAUNCH = TRACER.with_name("launch.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr", [target[:2] for target in load_tracer().TARGETS])
def test_target_resolves(module_name, attr):
    module = importlib.import_module(f"crimecast.{module_name}")
    if "." in attr:
        # `Tracer.install` replaces a method in the class's own namespace.
        cls_name, method = attr.split(".")
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


def test_hooks_fill_the_layer_metrics_of_a_fixture_run(tmp_path):
    """The wrappers `Tracer.install()` puts in place see the calls of a real
    run: a fixture `signals` with the baseline detector and a `fit-forecast`
    of all seven models fill the layer metrics, and no span ends in error."""
    import crimecast.cli as cli

    tracing = load_tracer()
    raw = json.loads((FIXTURES / "config.json").read_text())
    for key in ("articles", "gazetteer", "covariates", "fbi_series", "panel", "detector_train"):
        raw[key] = str((FIXTURES / raw[key]).resolve())
    precomputed, baseline = tmp_path / "precomputed.json", tmp_path / "baseline.json"
    precomputed.write_text(json.dumps(raw))
    baseline.write_text(json.dumps(raw | {"detector_source": "baseline", "detector_model": str(tmp_path / "model.json")}))
    runs = (
        ("signals", baseline),
        ("fit-forecast", precomputed, "--models", "1,2,3,4,5,6,7"),
    )
    tracer = tracing.Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        for command, config, *extra in runs:
            with tracer.span("cli.main"):
                assert cli.main([command, "--config", str(config), "--output-dir", str(tmp_path / command), *extra]) == 0
    finally:
        tracer.uninstall()
    counts = {key: value for (_, key), value in tracer.counts.items()}
    metrics = tracing.layer_metrics(tracer.spans, counts, time.perf_counter() - start)
    assert metrics["regression.dataset.s"] > 0.0
    assert metrics["panel.load.s"] > 0.0
    # `signals` loads the training corpus whole (to train the missing model)
    # and classifies the articles chunk by chunk as it reads them;
    # `fit-forecast` reads the articles the same way, so neither reaches
    # `load_articles` for them. The hooks count `len()` of each load and of
    # each labeled chunk.
    def articles(key):
        return sum(1 for line in Path(raw[key]).read_text().splitlines() if line.strip())

    assert metrics["signals.load_articles.calls"] == 1
    assert metrics["signals.records_loaded"] == articles("detector_train")
    assert metrics["detector.records_classified"] == articles("articles") > 0
    assert {name: value for name, value in metrics.items() if name.endswith(".errors") and value} == {}


def test_a_fresh_traced_process_sees_every_layer(tmp_path):
    """`bench/launch.py cli --trace` installs the tracer in a fresh process,
    after `import crimecast.cli`, where it binds only into the crimecast
    modules loaded by then. A fixture `signals` with the baseline detector
    and a `fit-forecast` of all seven models record spans of every library
    layer, and none in error; the in-process test above cannot see a stage
    module that a command imports late, as pytest has loaded them all."""
    raw = json.loads((FIXTURES / "config.json").read_text())
    for key in ("articles", "gazetteer", "covariates", "fbi_series", "panel", "detector_train"):
        raw[key] = str((FIXTURES / raw[key]).resolve())
    precomputed, baseline = tmp_path / "precomputed.json", tmp_path / "baseline.json"
    precomputed.write_text(json.dumps(raw))
    baseline.write_text(json.dumps(raw | {"detector_source": "baseline", "detector_model": str(tmp_path / "model.json")}))
    env = {**os.environ, "PYTHONPATH": str(Path(crimecast.__file__).parents[1]), "PYTHONDONTWRITEBYTECODE": "1"}
    layers = set()
    for command, config, *extra in (("signals", baseline), ("fit-forecast", precomputed, "--models", "1,2,3,4,5,6,7")):
        report = tmp_path / f"{command}.json"
        argv = [command, "--config", str(config), "--output-dir", str(tmp_path / command), *extra]
        launch = [sys.executable, str(LAUNCH), "cli", "--report", str(report), "--trace", "--", *argv]
        subprocess.run(launch, env=env, capture_output=True, check=True, timeout=120)
        result = json.loads(report.read_text())
        assert result["rc"] == 0
        assert [span[0] for span in result["spans"] if span[5]] == []
        layers |= {span[0].split(".")[0] for span in result["spans"]}
    expected = {"signals", "geo", "detector", "series", "stattests", "arima", "regression", "panel", "evaluation"}
    assert expected - layers == set()
