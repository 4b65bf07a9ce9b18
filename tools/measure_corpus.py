#!/usr/bin/env python3
"""Wall time, CPU time and peak RSS of the corpus commands on a world of
about 10⁶ articles, one fresh process per command, and the seconds of each
stage of a labeling pass over the world, in process.

    python3 tools/measure_corpus.py SRC WORK [--seed 1] [--news-rate 380]

SRC is the `src/` directory of the checkout under test; crimecast is
imported from there. The world is the benchmark's corpus-50state world
(`bench/run.py`, `prepare_corpus`) with ten times its news rate
(`worldgen.gazetteer_world(..., news_rate=380)`): 50 states, 52 quarters,
about 992k articles without a state or a label, and the baseline detector.
`--news-rate` scales it (38 is the benchmark's world). It is built in
WORK/world unless it is there already, so that two checkouts can be
measured on the same files; after building it, the script starts again in
a fresh process. A one-article `detect` trains the detector model first, as
the benchmark's set-up does.

Then `detect`, `signals` and `evaluate-detector` (on the labels `detect`
wrote) each run as `python -c ... crimecast.cli.main(argv)` with one BLAS
thread. The script prints one line per command: its name, exit code, wall
seconds, CPU seconds (user plus system) and peak RSS in MB. CPU time and RSS
come from the `wait4` rusage of the command's process, which covers the
workers it forked and reaped: the CPU seconds are their sum, the RSS the
largest peak of any one of them (at least the size of this script's
process, from which each command starts).

After the commands, the script labels the world's articles in its own
process, serially, as `signals` does with the trained model and the
config's gazetteer, in 5 passes that share one model and one token index,
and prints each stage's median seconds over the passes: `read_articles`,
the token ids of each batch, the scoring and the state resolution. A
checkout without the batch token path (`geo.token_batches`) prints that it
has none. Last come the SHA-256 of every file the commands wrote under
WORK/out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NEWS_RATE = 380.0
CHILD = "import sys; from crimecast.cli import main; sys.exit(main(sys.argv[1:]))"
PASSES = 5  # labeling passes; one pass alone is not comparable between checkouts on a host whose speed shifts


def _spawn(argv: list[str], env: dict[str, str]) -> tuple[int, float, float, float]:
    """Run `crimecast.cli.main(argv)` in a fresh interpreter; return its exit
    code, wall seconds, CPU seconds and peak RSS in MB."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", CHILD, *argv], env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def _stages(world: Path, gazetteer_path: str) -> str:
    """The median seconds of each stage over PASSES serial labeling passes
    over the world's articles, with its model and gazetteer, as one line."""
    from crimecast import detector, geo, signals

    if not hasattr(geo, "token_batches"):
        return "stages: this checkout has no batch token path"
    model = detector.BaselineModel.from_json(world / "model.json")
    index = geo.token_index(model.vocabulary, geo.load_gazetteer(gazetteer_path))
    passes = []
    for _ in range(PASSES):
        seconds = dict.fromkeys(("read", "token_ids", "scoring", "resolution"), 0.0)
        clock = time.perf_counter()
        for chunk in signals.read_articles(world / "articles.jsonl"):
            seconds["read"] += time.perf_counter() - clock
            for batch in geo._batches(chunk.texts()):
                start = time.perf_counter()
                ids, starts, lengths = geo._token_ids(batch, index)
                scored = time.perf_counter()
                detector._logits(model.bias, index.weights[ids], starts, lengths)
                resolved = time.perf_counter()
                geo._resolve(index, ids, starts)
                done = time.perf_counter()
                seconds["token_ids"] += scored - start
                seconds["scoring"] += resolved - scored
                seconds["resolution"] += done - resolved
            clock = time.perf_counter()
        passes.append(seconds)
    medians = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    return "stages " + " ".join(f"{name}_s {value:.3f}" for name, value in medians.items())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="the src/ directory to import crimecast from")
    parser.add_argument("work", type=Path, help="directory for the world and the outputs")
    parser.add_argument("--seed", type=int, default=1, help="world seed")
    parser.add_argument("--news-rate", type=float, default=NEWS_RATE, help="news rate of the world it builds")
    args = parser.parse_args()
    work = args.work.resolve()
    world = work / "world"
    sys.path.insert(0, str(ROOT / "bench"))
    sys.dont_write_bytecode = True
    import run  # the benchmark's builders; sets one BLAS thread before numpy loads
    import worldgen

    config = world / "config.json"
    if not config.exists():
        spec = worldgen.gazetteer_world(run.GAZETTEER, 50, seed=args.seed, news_rate=args.news_rate,
                                        unknown_rate=10.0, predicted_labels=False, n_train=2000)
        n_articles = worldgen.write_world(spec, world, work / "truth.csv")
        run._write_config(config, run._world_config(
            world, fit_start="2007Q1", fit_end="2018Q4", holdout_start="2019Q1", holdout_end="2019Q4",
            detector_source="baseline"))
        print(f"built {world} ({n_articles} articles)", flush=True)
        # A child's ru_maxrss starts at the size of the process it was forked
        # from, which building the world grew; measure from a fresh one.
        os.execv(sys.executable, [sys.executable, *sys.argv])

    env = {**os.environ, "PYTHONPATH": str(args.src.resolve()), "PYTHONDONTWRITEBYTECODE": "1"}
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    (world / "model.json").unlink(missing_ok=True)
    tiny = work / "setup_articles.jsonl"
    with (world / "articles.jsonl").open() as fh:
        tiny.write_text(fh.readline())
    code, *_ = _spawn(["detect", "--config", str(config), "--articles", str(tiny),
                         "--output-dir", str(work / "setup_out")], env)
    if code != 0:
        print(f"set-up detect exited {code}")
        return 1

    commands = {
        "detect": [],
        "signals": [],
        "evaluate-detector": ["--articles", str(out / "detect" / "articles_labeled.jsonl")],
    }
    for name, extra in commands.items():
        argv = [name, "--config", str(config), "--output-dir", str(out / name), *extra]
        code, wall, cpu, rss = _spawn(argv, env)
        print(f"{name} exit {code} wall_s {wall:.2f} cpu_s {cpu:.2f} peak_rss_mb {rss:.1f}", flush=True)
    # After the commands: importing crimecast here would raise the RSS that
    # each command starts from.
    sys.path.insert(0, str(args.src.resolve()))
    print(_stages(world, json.loads(config.read_text())["gazetteer"]))
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        with path.open("rb") as fh:
            print(f"{path.relative_to(out)} {hashlib.file_digest(fh, 'sha256').hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
