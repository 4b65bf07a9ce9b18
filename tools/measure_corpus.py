#!/usr/bin/env python3
"""Wall time, CPU time and peak RSS of the corpus commands on a world of
about 10⁶ articles, one fresh process per command.

    python3 tools/measure_corpus.py SRC WORK [--seed 1]

SRC is the `src/` directory of the checkout under test; crimecast is
imported from there. The world is the benchmark's corpus-50state world
(`bench/run.py`, `prepare_corpus`) with ten times its news rate
(`worldgen.gazetteer_world(..., news_rate=380)`): 50 states, 52 quarters,
about 992k articles without a state or a label, and the baseline detector.
It is built in WORK/world unless it is there already, so that two checkouts
can be measured on the same files; after building it, the script starts
again in a fresh process. A one-article `detect` trains the
detector model first, as the benchmark's set-up does.

Then `detect`, `signals` and `evaluate-detector` (on the labels `detect`
wrote) each run as `python -c ... crimecast.cli.main(argv)` with one BLAS
thread. The script prints one line per command: its name, exit code, wall
seconds, CPU seconds (user plus system) and peak RSS in MB, then the SHA-256
of every file the commands wrote under WORK/out. CPU time and RSS come from
the `wait4` rusage of the command's process, which covers the workers it
forked and reaped: the CPU seconds are their sum, the RSS the largest peak
of any one of them (at least the size of this script's process, from which
each command starts).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NEWS_RATE = 380.0
CHILD = "import sys; from crimecast.cli import main; sys.exit(main(sys.argv[1:]))"


def _spawn(argv: list[str], env: dict[str, str]) -> tuple[int, float, float, float]:
    """Run `crimecast.cli.main(argv)` in a fresh interpreter; return its exit
    code, wall seconds, CPU seconds and peak RSS in MB."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", CHILD, *argv], env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="the src/ directory to import crimecast from")
    parser.add_argument("work", type=Path, help="directory for the world and the outputs")
    parser.add_argument("--seed", type=int, default=1, help="world seed")
    args = parser.parse_args()
    work = args.work.resolve()
    world = work / "world"
    sys.path.insert(0, str(ROOT / "bench"))
    sys.dont_write_bytecode = True
    import run  # the benchmark's builders; sets one BLAS thread before numpy loads
    import worldgen

    config = world / "config.json"
    if not config.exists():
        spec = worldgen.gazetteer_world(run.GAZETTEER, 50, seed=args.seed, news_rate=NEWS_RATE,
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
        print(f"{name} exit {code} wall_s {wall:.2f} cpu_s {cpu:.2f} peak_rss_mb {rss:.1f}")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        with path.open("rb") as fh:
            print(f"{path.relative_to(out)} {hashlib.file_digest(fh, 'sha256').hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
