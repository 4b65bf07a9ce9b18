#!/usr/bin/env python3
"""Time the three quarterly CSV readers on the models-50state world and on
the fixture world, and say which path of `read_quarterly_csv` answered.

    python3 tools/measure_csv.py SRC [--repeats 15] [--no-world]

SRC is the `src/` directory of the checkout under test; crimecast is
imported from there. The script builds the benchmark's models-50state world
in a temporary directory with `bench/run.py`'s builder (`prepare_models`),
then times `PanelDataset.from_csv` on `panel.csv`, `Dataset.from_csv` on
`covariates.csv` and `load_series_csv` on `fbi.csv` of that world and of
`tests/fixtures`, `--repeats` times each. It prints one line per file: the
median and quartiles of the wall time, and the path that read it, `C`
(numpy's C reader) or `csv` (the `csv.reader` loop; a checkout without the
C path always prints `csv`). `--no-world` times the fixture world alone.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _path_taken(series, read) -> str:
    """The path of `read_quarterly_csv` that answered `read()`."""
    plain = getattr(series, "_plain_columns", None)
    if plain is None:
        read()
        return "csv"
    answers = []

    def record(*args):
        answers.append(plain(*args))
        return answers[-1]

    series._plain_columns = record
    try:
        read()
    finally:
        series._plain_columns = plain
    return "csv" if answers[-1] is None else "C"


def _measure(series, readers, world: Path, label: str, repeats: int) -> None:
    for reader, name in readers:
        path = world / name
        taken = _path_taken(series, lambda: reader(path))
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            reader(path)
            times.append(time.perf_counter() - start)
        q1, median, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
        print(f"{label} {name} {reader.__qualname__}: median {1e3 * median:.2f} ms "
              f"[{1e3 * q1:.2f}, {1e3 * q3:.2f}] over {len(times)} repeats, path {taken}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="the src/ directory to import crimecast from")
    parser.add_argument("--repeats", type=int, default=15, help="timed reads of each file")
    parser.add_argument("--no-world", action="store_true", help="time the fixture world alone")
    args = parser.parse_args()
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "bench")]
    sys.dont_write_bytecode = True  # write nothing into either checkout
    import run  # the benchmark's builders; sets one BLAS thread before numpy loads

    from crimecast import series
    from crimecast.regression import Dataset

    readers = [(series.PanelDataset.from_csv, "panel.csv"), (Dataset.from_csv, "covariates.csv"),
               (series.load_series_csv, "fbi.csv")]
    if not args.no_world:
        with tempfile.TemporaryDirectory() as tmp:
            run.prepare_models(1, Path(tmp))
            _measure(series, readers, Path(tmp) / "world", "models-50state", args.repeats)
    _measure(series, readers, ROOT / "tests" / "fixtures", "fixture", args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
