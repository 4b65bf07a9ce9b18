#!/usr/bin/env python3
"""Time the ARIMA order searches of one models-50state pass, and digest every
grid candidate's fit, so that two checkouts can be compared fit for fit.

    python3 tools/measure_arima.py SRC [--repeats 15] [--seeds 100] [--no-world]

SRC is the `src/` directory of the checkout under test; crimecast is
imported from there. The script builds the benchmark's models-50state world
in a temporary directory with `bench/run.py`'s builder (`prepare_models`)
and runs the pass's commands once through `crimecast.cli.main`, recording
the series and grid bounds of each `select_orders` call: 8 searches, one per
`diagnose` and one per `fit-forecast` at each of the 4 origins. It then
times those 8 searches in this process, `--repeats` times over, and prints
the median and quartiles of their summed wall time, then the log line of
each search: the orders it chose and the candidates it dropped. A search
takes a plain array; the first quarter of that series comes from the
command's config (the first quarter of `fbi_series` for `diagnose`,
`fit_start` for `fit-forecast`, one later once differenced).

Last it fits every grid candidate of those searches, and of the differenced
drift walks of acceptance criterion 4 (seeds 0..`--seeds`-1, grid 2 x 2), as
`select_orders` fits them, and prints one SHA-256 over every field of every
fit: `float.hex` of each float (residuals included), the flags, and the
exception of a candidate that raised, after the quarter of its first
residual: the series' first quarter plus the grid's `max_p`. Two checkouts
whose fits are bit for bit the same print the same digest. `--no-world`
skips the world and the timing and digests only the criterion-4 candidates.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import logging
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@contextlib.contextmanager
def _swapped(arima, replacement):
    """`replacement` bound in place of `arima.select_orders` in every loaded
    crimecast module that binds it by name, as the benchmark's tracer wraps
    a function; the bindings are restored on exit."""
    select = arima.select_orders
    owners = [module for name, module in sorted(sys.modules.items())
              if name.split(".")[0] == "crimecast" and vars(module).get("select_orders") is select]
    for module in owners:
        module.select_orders = replacement
    try:
        yield
    finally:
        for module in owners:
            module.select_orders = select


def _searches(run, arima, cli, load_series_csv, work: Path) -> list[tuple[str, object, object, int, int]]:
    """(command key, first quarter, series, max_p, max_q) of each order
    search of one pass."""
    prepared = run.prepare_models(1, work)
    searches = []
    select = arima.select_orders

    def record(series, max_p, max_q):
        searches.append((key, start, series, max_p, max_q))
        return select(series, max_p, max_q)

    with _swapped(arima, record):
        for command in prepared.commands:
            key = command.key
            config = cli.load_config(command.argv[2])
            # diagnose searches the whole national series, fit-forecast its fit
            # range; differenced, each starts one quarter later.
            first = config.fit_start if command.name == "fit-forecast" else load_series_csv(config.fbi_series)[0]
            start = first + 1
            argv = [arg.replace("{pass}", str(work / "pass")) for arg in command.argv]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"{key} exited {code}")
    return searches


class _Messages(logging.Handler):
    """Keeps the messages logged to it."""

    def __init__(self) -> None:
        super().__init__()
        self.lines: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.lines.append(record.getMessage())


def _fit_fields(arima, start, series, p: int, q: int, burn: int) -> str:
    try:
        fit = arima.fit_arima(series, arima.ArimaSpec(p, 0, q), _burn=burn)
    except (arima.InvalidArgumentError, arima.DegenerateInputError) as exc:  # skipped by `select_orders`
        return f"{p} {q} {type(exc).__name__} {exc}"
    floats = (fit.constant, *fit.ar_coeffs, *fit.ma_coeffs, fit.sigma2, fit.log_likelihood,
              fit.adj_r_squared, *fit.residuals)
    first = start + burn  # the quarter of the first residual: `burn` >= p conditions every candidate
    return f"{p} {q} {first} {fit.converged} {fit.ma_boundary} " + " ".join(map(float.hex, floats))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="the src/ directory to import crimecast from")
    parser.add_argument("--repeats", type=int, default=15, help="timed runs of the 8 searches")
    parser.add_argument("--seeds", type=int, default=100, help="criterion-4 seeds to digest")
    parser.add_argument("--no-world", action="store_true", help="digest only the criterion-4 candidates")
    args = parser.parse_args()
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "bench")]
    sys.dont_write_bytecode = True  # write nothing into either checkout
    import run  # the benchmark's builders; sets one BLAS thread before numpy loads

    import numpy as np
    from crimecast import arima, cli
    from crimecast.series import Quarter, difference, load_series_csv

    grids = []
    if not args.no_world:
        with tempfile.TemporaryDirectory() as tmp:
            searches = _searches(run, arima, cli, load_series_csv, Path(tmp))
        times = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            for _, _, series, max_p, max_q in searches:
                arima.select_orders(series, max_p, max_q)
            times.append(time.perf_counter() - start)
        if len(times) > 1:
            q1, median, q3 = statistics.quantiles(times, n=4)
            print(f"{len(searches)} searches: median {1e3 * median:.1f} ms [{1e3 * q1:.1f}, {1e3 * q3:.1f}] "
                  f"over {len(times)} repeats")
        messages = _Messages()
        arima.logger.addHandler(messages)
        arima.logger.setLevel(logging.INFO)
        for key, start, series, max_p, max_q in searches:
            arima.select_orders(series, max_p, max_q)
            print(f"{key}, {len(series)} quarters: {messages.lines.pop()}")
            grids.append((start, series, max_p, max_q))
        arima.logger.removeHandler(messages)
    zero = 0
    for seed in range(args.seeds):
        y = 1400.0 + np.cumsum(np.random.default_rng(seed).normal(8.0, 60.0, 48))
        series = difference(y)
        spec = arima.select_orders(series, 2, 2)
        zero += (spec.p, spec.q) == (0, 0)
        grids.append((Quarter(2007, 2), series, 2, 2))  # the walk starts in 2007Q1
    print(f"criterion 4: (0,0) in {zero}/{args.seeds} seeds")
    digest = hashlib.sha256()
    n = 0
    for start, series, max_p, max_q in grids:
        for p in range(max_p + 1):
            for q in range(max_q + 1):
                digest.update((_fit_fields(arima, start, series, p, q, max_p) + "\n").encode())
                n += 1
    print(f"{n} candidates sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
