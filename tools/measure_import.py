#!/usr/bin/env python3
"""Time `import crimecast.cli` after numpy, and a whole command, in fresh processes.

    python3 tools/measure_import.py SRC [--repeats 12]

SRC is the `src/` directory of the checkout under test; crimecast is
imported from there. Each of `--repeats` fresh processes imports numpy,
then times `import crimecast.cli` with `-X importtime` on. The bytecode goes
to a temporary cache (`PYTHONPYCACHEPREFIX`), so nothing is written into the
checkout. Warm runs find crimecast's bytecode cached; cold runs find it
removed before each run, as the benchmark's `setup_s` does, so every
crimecast module is compiled again. The script prints, for warm and then
cold, the median and quartiles of the import's wall time, then the median
self time of each module that the warm import loaded, largest first
(`importtime`'s own overhead is in every figure). Its last line is the
median and quartiles of the wall time of `--repeats` whole fresh processes
of `python -m crimecast.cli decompose` on the checkout's fixture config
(`tests/fixtures/config.json` beside SRC), from start to exit, writing to a
temporary directory, with the bytecode cached and `-X importtime` off.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

CHILD = """\
import sys, time
import numpy
print("-- crimecast --", file=sys.stderr, flush=True)
start = time.perf_counter()
import crimecast.cli
print(time.perf_counter() - start)
"""


def _run(env: dict[str, str]) -> tuple[float, dict[str, float]]:
    """The import's wall seconds and each module's self seconds."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    own = done.stderr.split("-- crimecast --\n", 1)[1]
    selves = {}
    for line in own.splitlines():
        if line.startswith("import time:") and "|" in line and "self" not in line:
            self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
            selves[name] = int(self_us) / 1e6
    return float(done.stdout), selves


def _command(env: dict[str, str], config: Path, out: str) -> float:
    """The wall seconds of one fresh `decompose` process, start to exit."""
    argv = [sys.executable, "-m", "crimecast.cli", "decompose", "--config", str(config), "--output-dir", out]
    start = time.perf_counter()
    subprocess.run(argv, env=env, capture_output=True, timeout=120, check=True)
    return time.perf_counter() - start


def _summary(label: str, times: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return (f"{label}: median {1e3 * median:.2f} ms [{1e3 * q1:.2f}, {1e3 * q3:.2f}] "
            f"over {len(times)} fresh processes")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="the src/ directory to import crimecast from")
    parser.add_argument("--repeats", type=int, default=12, help="fresh processes for each of warm and cold")
    args = parser.parse_args()
    src = args.src.resolve()
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=cache)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        own_cache = Path(cache).joinpath(*src.parts[1:])
        _run(env)  # fill the cache: numpy's, the standard library's and crimecast's bytecode
        warm = [_run(env) for _ in range(args.repeats)]
        cold = []
        for _ in range(args.repeats):
            shutil.rmtree(own_cache, ignore_errors=True)
            cold.append(_run(env)[0])
        config = src.parent / "tests" / "fixtures" / "config.json"
        out = os.path.join(cache, "out")
        _command(env, config, out)  # compile crimecast's bytecode again
        command = [_command(env, config, out) for _ in range(args.repeats)]
    print(_summary("warm import crimecast.cli after numpy", [wall for wall, _ in warm]))
    print(_summary("cold import crimecast.cli after numpy (crimecast's bytecode removed)", cold))
    selves = defaultdict(list)
    for _, modules in warm:
        for name, seconds in modules.items():
            selves[name].append(seconds)
    medians = sorted(((statistics.median(s), name) for name, s in selves.items()), reverse=True)
    print("warm self time by module: " + ", ".join(f"{name} {1e3 * s:.2f} ms" for s, name in medians))
    print(_summary("fresh process python -m crimecast.cli decompose (fixture config)", command))
    return 0


if __name__ == "__main__":
    sys.exit(main())
