#!/usr/bin/env python3
"""End-to-end and per-module benchmark of the crimecast CLI.

    python3 bench/run.py --workload fixture-cold --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the benchmark uses the checkout's
`src/` and, for `fixture-cold`, `tests/fixtures` and `tests/golden`. It
writes only under `bench/_work`, `bench/_cache` and `bench/_results`.

Each run builds its world (from `--seed` on corpus-50state; the other two
workloads have one fixed world), sets the program up several times
(`setup_s`), runs the workload's command list pass after pass for
about `--seconds`, checks every output, and prints one JSON object as the
last line of standard output. With `--trace 0` it holds the end-to-end
metrics, wall times scaled to the host's current speed by a reference task
timed around every command (see `reference.py`); with `--trace 1` it holds
the per-layer metrics of a traced run (see `bench/README.md`). The lines
before it give the details: quartiles, sample counts, per-command times,
unscaled wall times, failures and the environment.
"""

from __future__ import annotations

import os

# One BLAS thread everywhere, fixed before numpy loads here or in a child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

sys.dont_write_bytecode = True

import launch  # noqa: E402
import tracer  # noqa: E402
import worldgen  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
GOLDEN = ROOT / "tests" / "golden"
GAZETTEER = SRC / "crimecast" / "data" / "gazetteer.tsv"
CACHE = BENCH / "_cache"
PYCACHE = CACHE / "pycache"
RESULTS = BENCH / "_results"
LAUNCH = BENCH / "launch.py"

SETUP_REPS = 3
CHILD_TIMEOUT_S = 150.0

# Files each CLI command writes.
OUTPUTS = {
    "detect": ("articles_labeled.jsonl", "detection_summary.json"),
    "signals": ("signals_national.csv", "signals_by_state.csv"),
    "decompose": ("fbi_quarterly.csv", "decomposition.csv", "fbi_num_noseasonnal.csv"),
    "diagnose": ("diagnostics.json",),
    "fit-forecast": ("fbi_quarterly.csv", "decomposition.csv", "report.json", "predictions_long.csv",
                     "arima_model1.json", "panel_report.json"),
    "evaluate-detector": ("detector_metrics.json",),
}
GOLDEN_BYTES = {
    "signals": ("signals_national.csv", "signals_by_state.csv"),
    "fit-forecast": ("report.json", "predictions_long.csv"),
    "evaluate-detector": ("detector_metrics.json",),
}
GOLDEN_TOLERANT = {"fit-forecast": ("panel_report.json",)}
GOLDEN_RTOL = 1e-9


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass; `{pass}` in argv is the pass directory."""

    name: str
    key: str  # output sub-directory, unique within a pass
    argv: tuple[str, ...]


@dataclass
class Prepared:
    commands: list[Command]
    check: Callable[[Path], tuple[dict[str, list[str]], dict]]  # pass dir -> (errors by key, info)
    setup_argv: tuple[str, ...] = ()  # run in process after the cold import, during set-up
    model: Path | None = None  # detector model that set-up trains
    size: dict = field(default_factory=dict)


# ------------------------------------------------------------------ workloads


def _write_config(path: Path, raw: dict) -> Path:
    path.write_text(json.dumps(raw, indent=2) + "\n")
    return path


def _command(name: str, key: str, config: Path, *extra: str) -> Command:
    return Command(name, key, (name, "--config", str(config), "--output-dir", f"{{pass}}/{key}", *extra))


def prepare_fixture_cold(seed: int, work: Path) -> Prepared:
    """The tests/fixtures world, every command as a fresh process. The seed
    does not change the inputs: the outputs are compared to tests/golden."""
    raw = json.loads((FIXTURES / "config.json").read_text())
    for key in ("articles", "gazetteer", "covariates", "fbi_series", "panel", "detector_train"):
        raw[key] = str((FIXTURES / raw[key]).resolve())
    raw["output_dir"] = str(work / "out")
    raw["detector_model"] = str(work / "model.json")
    config = _write_config(work / "config.json", raw)
    names = ("detect", "signals", "decompose", "diagnose", "fit-forecast", "evaluate-detector")
    commands = [
        _command(n, f"{i}_{n}", config, *(("--models", "1,2,3,4,5,6,7") if n == "fit-forecast" else ()))
        for i, n in enumerate(names, start=1)
    ]

    def check(pass_dir: Path) -> tuple[dict[str, list[str]], dict]:
        errors: dict[str, list[str]] = defaultdict(list)
        drift = 0
        for command in commands:
            for name in GOLDEN_BYTES.get(command.name, ()):
                path = pass_dir / command.key / name
                if path.exists() and path.read_bytes() != (GOLDEN / name).read_bytes():
                    errors[command.key].append(f"{name} differs from tests/golden")
            for name in GOLDEN_TOLERANT.get(command.name, ()):
                path = pass_dir / command.key / name
                if not path.exists():
                    continue
                if path.read_bytes() == (GOLDEN / name).read_bytes():
                    continue
                problem = _json_close(json.loads(path.read_text()), json.loads((GOLDEN / name).read_text()))
                if problem:
                    errors[command.key].append(f"{name}: {problem}")
                else:
                    drift += 1
        return errors, {"golden_drift_files": drift}

    size = {"states": 20, "quarters": 52, "articles": _count_lines(FIXTURES / "articles.jsonl")}
    return Prepared(commands, check, size=size)


def _world_config(world: Path, **changes) -> dict:
    raw = {
        "seed": 1234,
        "articles": "articles.jsonl",
        "gazetteer": str(GAZETTEER),
        "covariates": "covariates.csv",
        "fbi_series": "fbi.csv",
        "panel": "panel.csv",
        "output_dir": "out",
        "models": [1, 2, 3, 4, 5, 6, 7],
        "arima_order": "drift",
        "detector_source": "precomputed",
        "detector_model": "model.json",
        "detector_train": "train_articles.jsonl",
    }
    raw.update(changes)
    return raw


def prepare_corpus(seed: int, work: Path) -> Prepared:
    """50 gazetteer states x 52 quarters, about 1e5 articles without a state
    field, labeled by the baseline detector that set-up trains."""
    spec = worldgen.gazetteer_world(GAZETTEER, 50, seed=seed, news_rate=38.0, unknown_rate=10.0,
                                    predicted_labels=False, n_train=2000)
    world = work / "world"
    truth_path = work / "truth.csv"
    n_articles = worldgen.write_world(spec, world, truth_path)
    config = _write_config(world / "config.json", _world_config(
        world, fit_start="2007Q1", fit_end="2018Q4", holdout_start="2019Q1", holdout_end="2019Q4",
        detector_source="baseline"))
    detect = _command("detect", "1_detect", config)
    commands = [
        detect,
        _command("signals", "2_signals", config),
        _command("evaluate-detector", "3_evaluate-detector", config,
                 "--articles", f"{{pass}}/{detect.key}/articles_labeled.jsonl"),
    ]
    tiny = work / "setup_articles.jsonl"
    with (world / "articles.jsonl").open() as fh:
        tiny.write_text(fh.readline())
    setup_argv = ("detect", "--config", str(config), "--articles", str(tiny), "--output-dir", str(work / "setup_out"))

    def check(pass_dir: Path) -> tuple[dict[str, list[str]], dict]:
        return _check_corpus(pass_dir, commands, truth_path), {}

    size = {"states": 50, "quarters": 52, "articles": n_articles, "train_articles": spec.n_train}
    return Prepared(commands, check, setup_argv=setup_argv, model=world / "model.json", size=size)


def _check_corpus(pass_dir: Path, commands: list[Command], truth_path: Path) -> dict[str, list[str]]:
    detect_dir, signals_dir, evaluate_dir = (pass_dir / c.key for c in commands)
    errors: dict[str, list[str]] = defaultdict(list)
    with truth_path.open() as fh:
        truth = {row["id"]: row["state"] for row in csv.DictReader(fh)}
    news: Counter = Counter()
    events: Counter = Counter()
    confusion: Counter = Counter()
    positives = total = 0
    labeled_path = detect_dir / "articles_labeled.jsonl"
    if labeled_path.exists():
        with labeled_path.open() as fh:
            for line in fh:
                row = json.loads(line)
                year, month = int(row["date"][:4]), int(row["date"][5:7])
                cell = (year, (month - 1) // 3 + 1)
                state = truth.get(row["id"], "?")
                positive = row["predicted_label"] == "hate_crime"
                total += 1
                positives += positive
                for where in (state, "*"):
                    news[(where, *cell)] += 1
                    events[(where, *cell)] += positive
                confusion[(row["gold_label"] == "hate_crime", positive)] += 1
    if total != len(truth):
        errors["1_detect"].append(f"articles_labeled.jsonl has {total} rows, the world has {len(truth)}")
    summary_path = detect_dir / "detection_summary.json"
    if summary_path.exists():
        summary = json.loads(summary_path.read_text())
        if (summary["total"], summary["hate_crime"]) != (total, positives):
            errors["1_detect"].append("detection_summary.json disagrees with articles_labeled.jsonl")

    def table(path: Path, by_state: bool) -> dict[tuple, tuple[int, int]]:
        with path.open() as fh:
            return {
                (row["state"] if by_state else "*", int(row["year"]), int(row["quarter"])):
                    (int(row["news_num"]), int(row["event_detected_num"]))
                for row in csv.DictReader(fh)
            }

    if (signals_dir / "signals_by_state.csv").exists():
        written = table(signals_dir / "signals_by_state.csv", True)
        written.update(table(signals_dir / "signals_national.csv", False))
        expected = {key: (news[key], events[key]) for key in news if key[0] != "UNKNOWN"}
        for key in set(written) | set(expected):
            if written.get(key, (0, 0)) != expected.get(key, (0, 0)):
                errors["2_signals"].append(
                    f"{key}: wrote news/events {written.get(key)}, truth and recount give {expected.get(key)}")
                break
    metrics_path = evaluate_dir / "detector_metrics.json"
    if metrics_path.exists():
        counts = json.loads(metrics_path.read_text())["counts"]
        want = {"tp": confusion[(True, True)], "fp": confusion[(False, True)],
                "tn": confusion[(False, False)], "fn": confusion[(True, False)]}
        if counts != want:
            errors["3_evaluate-detector"].append(f"confusion counts {counts}, recount gives {want}")
    return errors


MODEL_ORIGINS = ("2016Q1", "2017Q1", "2018Q1", "2019Q1")


def prepare_models(seed: int, work: Path) -> Prepared:
    """50 states x 120 quarters, about 5k articles with precomputed states
    and labels; a rolling-origin sweep of diagnose + fit-forecast 1..7.

    The world is the same for every seed, as on fixture-cold: the cost of
    the ARIMA order search depends on how many of its fits converge, which
    varies with the national series. Over ten seeds, Model 1 at the four
    origins took between 1.1 and 2.2 s of CPU.
    """
    spec = worldgen.gazetteer_world(GAZETTEER, 50, start_year=1990, n_quarters=120,
                                    news_rate=0.8, unknown_rate=2.0, article_states=True)
    world = work / "world"
    n_articles = worldgen.write_world(spec, world, work / "truth.csv")
    commands = []
    for origin in MODEL_ORIGINS:
        year = int(origin[:4])
        config = _write_config(world / f"config_{origin}.json", _world_config(
            world, fit_start="1990Q1", fit_end=f"{year - 1}Q4", holdout_start=origin,
            holdout_end=f"{year}Q4", arima_order="auto", arima_max_p=3, arima_max_q=3))
        commands.append(_command("diagnose", f"{origin}_diagnose", config))
        commands.append(_command("fit-forecast", f"{origin}_fit-forecast", config))

    def check(pass_dir: Path) -> tuple[dict[str, list[str]], dict]:
        errors: dict[str, list[str]] = defaultdict(list)
        for command in commands:
            if command.name != "fit-forecast":
                continue
            out = pass_dir / command.key
            if not (out / "panel_report.json").exists() or not (out / "report.json").exists():
                continue
            report = json.loads((out / "report.json").read_text())
            panel = json.loads((out / "panel_report.json").read_text())
            rows = report["models"] + panel["models"]
            if [r["Models"] for r in rows] != [f"Model {k}" for k in range(1, 8)]:
                errors[command.key].append("reports do not hold Models 1..7")
            if not all(math.isfinite(v) for r in rows for k, v in r.items() if k != "Models"):
                errors[command.key].append("a report holds a non-finite value")
            if panel["balance"]["retained_units"] != len(spec.states):
                errors[command.key].append("balancing dropped states")
        return errors, {}

    size = {"states": 50, "quarters": 120, "articles": n_articles, "origins": len(MODEL_ORIGINS)}
    return Prepared(commands, check, size=size)


WORKLOADS = {
    "fixture-cold": ("cold", prepare_fixture_cold),
    "corpus-50state": ("warm", prepare_corpus),
    "models-50state": ("warm", prepare_models),
}


# ------------------------------------------------------------------ helpers


def _count_lines(path: Path) -> int:
    with path.open() as fh:
        return sum(1 for _ in fh)


def _json_close(a, b, path: str = "$") -> str | None:
    """None when the JSON values match, floats within GOLDEN_RTOL."""
    if isinstance(a, float) and isinstance(b, (int, float)) and not isinstance(b, bool):
        if math.isclose(a, b, rel_tol=GOLDEN_RTOL, abs_tol=0.0) or a == b:
            return None
        return f"{path}: {a!r} vs {b!r}"
    if type(a) is not type(b):
        return f"{path}: type {type(a).__name__} vs {type(b).__name__}"
    if isinstance(a, dict):
        if list(a) != list(b):
            return f"{path}: keys differ"
        for key in a:
            problem = _json_close(a[key], b[key], f"{path}.{key}")
            if problem:
                return problem
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path}: lengths differ"
        for i, (x, y) in enumerate(zip(a, b)):
            problem = _json_close(x, y, f"{path}[{i}]")
            if problem:
                return problem
        return None
    return None if a == b else f"{path}: {a!r} vs {b!r}"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], log: Path, env: dict[str, str]) -> tuple[int, float, float, float]:
    """Run a child to completion; return (exit code, start, end, peak RSS in MB).

    The child is reaped with wait4 so that its own peak RSS is known; a
    watchdog thread kills it after CHILD_TIMEOUT_S.
    """
    with log.open("ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage.ru_maxrss / 1024.0


def scale(wall: float, reference_s: float) -> float:
    """A wall time in seconds of the baseline host (see reference.py), given
    the mean time of the reference task around it."""
    return wall * launch.REFERENCE_S / reference_s


def summary(samples: list[float], unit: str) -> dict:
    """Median (`value`), quartiles, count and the highest percentile with at
    least ten samples beyond it (reported from 20 samples on)."""
    out = {"value": statistics.median(samples), "unit": unit, "n": len(samples)}
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out.update(q1=q1, q3=q3)
    if len(samples) >= 20:
        p = math.floor(100 * (len(samples) - 10) / len(samples))
        out[f"p{p}"] = statistics.quantiles(samples, n=100)[p - 1]
    return out


def environment() -> dict:
    import ctypes
    import glob

    import numpy
    import scipy

    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["blas_threads"] = getter()
                break
    return info


# ------------------------------------------------------------------ runner


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.mode, prepare = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = BENCH / "_work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.log = self.work / "children.log"
        self.env = child_env()
        t0 = time.perf_counter()
        self.prepared = prepare(seed, self.work)
        self.gen_s = time.perf_counter() - t0
        self.attempted = 0
        self.failures: list[str] = []

    # -- set-up ---------------------------------------------------------

    def warm_library_cache(self) -> None:
        """Compile the libraries' bytecode once per checkout by one untimed
        pass, so that later runs time the program, not numpy's compiler."""
        marker = CACHE / f"warm-{self.workload}"
        if marker.exists():
            return
        if self.prepared.setup_argv:
            self.launch_cli(self.prepared.setup_argv, self.work / "warm_setup.json", trace=False)
        self.run_passes([{"traced": False, "seconds": 0.0, "min_passes": 1}], self.work / "warm")
        marker.write_text("")

    def launch_cli(self, argv: tuple[str, ...], report: Path, trace: bool, pass_id: int = 0):
        cmd = [sys.executable, str(LAUNCH), "cli", "--report", str(report), "--pass-id", str(pass_id)]
        if trace:
            cmd.append("--trace")
        if argv:
            cmd += ["--", *argv]
        rc, start, end, rss = spawn(cmd, self.log, self.env)
        data = json.loads(report.read_text()) if rc == 0 and report.exists() else {"rc": rc}
        return data, start, end, rss

    def setup(self) -> tuple[list[float], list[float], list[float]]:
        """Cold import (crimecast's bytecode removed from the cache) plus, on
        corpus-50state, training the detector; SETUP_REPS times, with the
        reference task before the first and after each. Returns the wall
        times, the scaled times and the detector's training self times."""
        own_cache = PYCACHE.joinpath(*SRC.parts[1:])
        walls, scaled, train_self = [], [], []
        before = launch.time_reference(self.env)
        for i in range(SETUP_REPS):
            shutil.rmtree(own_cache, ignore_errors=True)
            if self.prepared.model is not None:
                self.prepared.model.unlink(missing_ok=True)
            data, start, end, _ = self.launch_cli(self.prepared.setup_argv, self.work / f"setup{i}.json", self.trace)
            after = launch.time_reference(self.env)
            self.attempted += 1
            if data.get("rc") != 0 or (self.prepared.model is not None and not self.prepared.model.exists()):
                self.failures.append(f"set-up {i}: exit {data.get('rc')}")
                wall = end - start
            else:
                wall = data["import_s"] + data["main_s"]
            walls.append(wall)
            scaled.append(scale(wall, (before + after) / 2))
            before = after
            if self.trace and data.get("rc") == 0:
                own = tracer.self_times(data["spans"])
                train_self.append(sum(t for s, t in zip(data["spans"], own) if s[0] == "detector.train_baseline"))
        return walls, scaled, train_self

    # -- passes ---------------------------------------------------------

    def phases(self) -> list[dict]:
        if not self.trace:
            return [{"traced": False, "seconds": self.seconds, "min_passes": 2}]
        half = self.seconds / 2
        return [{"traced": False, "seconds": half, "min_passes": 1},
                {"traced": True, "seconds": half, "min_passes": 1}]

    def run_passes(self, phases: list[dict], out: Path) -> dict:
        if self.mode == "warm":
            return self.run_warm(phases, out)
        return self.run_cold(phases, out)

    def run_warm(self, phases: list[dict], out: Path) -> dict:
        plan = self.work / "plan.json"
        report = self.work / "passes.json"
        report.unlink(missing_ok=True)
        plan.write_text(json.dumps({
            "out": str(out),
            "phases": phases,
            "commands": [{"name": c.name, "key": c.key, "argv": list(c.argv)} for c in self.prepared.commands],
            "spans": str(RESULTS / f"{self.workload}-spans.json") if self.trace else None,
        }))
        rc, *_ = spawn([sys.executable, str(LAUNCH), "passes", "--plan", str(plan), "--report", str(report)],
                       self.log, self.env)
        if rc != 0 or not report.exists():
            raise RuntimeError(f"pass worker exited {rc}; see {self.log}")
        return json.loads(report.read_text())

    def run_cold(self, phases: list[dict], out: Path) -> dict:
        passes, layers, import_spans = [], [], []
        before = launch.time_reference(self.env)
        for phase in phases:
            walls: list[float] = []
            start = time.perf_counter()
            while launch.want_pass(walls, start, phase):
                pass_id = len(passes)
                pass_dir = out / f"pass{pass_id}"
                commands, spans, counts = [], [], defaultdict(float)
                for command in self.prepared.commands:
                    argv = [a.replace("{pass}", str(pass_dir)) for a in command.argv]
                    if phase["traced"]:
                        report = self.work / "command.json"
                        report.unlink(missing_ok=True)
                        data, c0, c1, rss = self.launch_cli(tuple(argv), report, True, pass_id)
                        rc = data.get("rc")
                        base = len(spans)
                        spans.append(["cli.process", c0, c1, -1, pass_id, int(rc != 0)])
                        for s in data.get("spans", []):
                            spans.append(s[:3] + [base + 1 + s[3] if s[3] >= 0 else base] + s[4:])
                            if s[0] == "cli.import":
                                import_spans.append(s[2] - s[1])
                        for _, key, value in data.get("counts", []):
                            counts[key] += value
                    else:
                        rc, c0, c1, rss = spawn([sys.executable, "-m", "crimecast.cli", *argv], self.log, self.env)
                    after = launch.time_reference(self.env)
                    commands.append({"name": command.name, "key": command.key, "wall": c1 - c0,
                                     "reference": (before + after) / 2, "rc": rc, "rss_mb": rss})
                    before = after
                wall = sum(c["wall"] for c in commands)
                walls.append(wall)
                passes.append({"id": pass_id, "traced": phase["traced"], "wall": wall,
                               "rss_mb": max(c["rss_mb"] for c in commands), "commands": commands,
                               "hashes": launch.tree_hashes(pass_dir)})
                if phase["traced"]:
                    layers.append(tracer.layer_metrics(spans, counts, wall))
                if pass_id > 0:
                    shutil.rmtree(pass_dir, ignore_errors=True)
        import_s = statistics.median(import_spans) if import_spans else None
        return {"import_s": import_s, "passes": passes, "layers": layers}

    # -- checks ---------------------------------------------------------

    def check(self, result: dict, out: Path) -> dict:
        """Mark each invocation failed or not; return check details."""
        first = out / "pass0"
        content_errors, info = self.prepared.check(first)
        expected = {c.key: c for c in self.prepared.commands}
        reference = result["passes"][0]["hashes"]
        for record in result["passes"]:
            for command in record["commands"]:
                key = command["key"]
                problems = []
                if command["rc"] != 0:
                    problems.append(f"exit {command['rc']}")
                for name in OUTPUTS[command["name"]]:
                    if f"{key}/{name}" not in record["hashes"]:
                        problems.append(f"missing {name}")
                mine = {k: v for k, v in record["hashes"].items() if k.startswith(key + "/")}
                theirs = {k: v for k, v in reference.items() if k.startswith(key + "/")}
                if mine != theirs:
                    problems.append("outputs differ from the first pass")
                arima = first / key / "arima_model1.json"
                if expected[key].name == "fit-forecast" and arima.exists():
                    if json.loads(arima.read_text()).get("converged") is not True:
                        problems.append("arima_model1.json: converged is not true")
                problems += content_errors.get(key, [])
                self.attempted += 1
                if problems:
                    self.failures.append(f"pass {record['id']} {key}: {'; '.join(problems)}")
        return info

    # -- whole run ------------------------------------------------------

    def execute(self) -> tuple[dict, dict]:
        self.warm_library_cache()
        setup_walls, setup_samples, train_self = self.setup()
        out = self.work / "out"
        result = self.run_passes(self.phases(), out)
        info = self.check(result, out)
        passes = result["passes"]
        for p in passes:
            p["scaled"] = sum(scale(c["wall"], c["reference"]) for c in p["commands"])
        untraced = [p["scaled"] for p in passes if not p["traced"]]
        by_command: dict[str, list[float]] = defaultdict(list)
        for p in passes:
            if not p["traced"]:
                for c in p["commands"]:
                    by_command[c["name"].replace("-", "_") + "_s"].append(scale(c["wall"], c["reference"]))
        # Peak RSS over the first two passes: a pass process's RSS only grows,
        # so a later pass would make the figure depend on the pass count.
        rss = [p["rss_mb"] for p in passes if not p["traced"]]
        peak_rss = max(rss[:2])
        detail = {
            "workload": self.workload,
            "seed": self.seed,
            "trace": int(self.trace),
            "size": self.prepared.size,
            "gen_s": self.gen_s,
            "environment": environment(),
            "pass_walls": [[p["wall"], p["traced"]] for p in passes],
            "reference_s": summary([c["reference"] for p in passes for c in p["commands"]], "s"),
            **info,
            "wall_s": {
                "setup_s": summary(setup_walls, "s"),
                "pass_s": summary([p["wall"] for p in passes if not p["traced"]], "s"),
            },
            "end_to_end": {
                "setup_s": summary(setup_samples, "s"),
                "pass_s": summary(untraced, "s"),
                **{name: summary(v, "s") for name, v in by_command.items()},
                "peak_rss_mb": {"value": peak_rss, "unit": "MB", "n": len(rss[:2]), "per_pass": rss},
            },
        }
        if not self.trace:
            metrics = {
                "setup_s": (statistics.median(setup_samples), "s"),
                "pass_s": (statistics.median(untraced), "s"),
                "peak_rss_mb": (peak_rss, "MB"),
            }
        else:
            layers, unstable = tracer.median_metrics(result["layers"])
            traced = [p["scaled"] for p in passes if p["traced"]]
            layers["cli.import_s"] = result["import_s"]
            if train_self:
                layers["detector.train_baseline.s"] = statistics.median(train_self)
            layers["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced) - 1.0
            detail["counts_not_repeating"] = unstable
            detail["traced_pass_s"] = summary(traced, "s")
            if unstable:
                self.failures.append(f"per-pass counts differ between passes: {unstable}")
            metrics = {name: (layers[name], unit) for name, unit in tracer.METRICS}
        return detail, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark the crimecast pipeline.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    needed = [SRC / "crimecast" / "cli.py", GAZETTEER]
    if args.workload == "fixture-cold":
        needed += [FIXTURES / "config.json", GOLDEN / "report.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"error: not a crimecast checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    PYCACHE.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    detail, metrics = run.execute()
    failed = len(run.failures)
    detail["failed_ops_ratio"] = failed / run.attempted
    detail["failures"] = run.failures
    (RESULTS / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(detail, indent=2) + "\n")
    shutil.rmtree(run.work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6f} {unit}")
    for name, stats in detail["end_to_end"].items():
        if name not in metrics:
            print(f"{name:36s} {stats['value']:14.6f} {stats['unit']}  (n={stats['n']})")
    for name, stats in detail["wall_s"].items():
        print(f"{'wall.' + name:36s} {stats['value']:14.6f} {stats['unit']}  (unscaled, n={stats['n']})")
    print(f"{'failed_ops_ratio':36s} {detail['failed_ops_ratio']:14.6f} 1")
    if "golden_drift_files" in detail:
        print(f"{'golden_drift_files':36s} {detail['golden_drift_files']:14d} count")
    for line in run.failures[:20]:
        print(f"FAILED {line}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
