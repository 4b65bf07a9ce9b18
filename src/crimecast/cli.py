"""Batch command-line driver for the pipeline.

Subcommands: detect, signals, decompose, diagnose, fit-forecast,
evaluate-detector; `pipeline` holds the stages each one runs. Configuration
comes from a single JSON file with a few flag overrides; every command is
deterministic given the config and seed.
Exit codes: 0 success, 1 model/estimation failure, 2 input/config/output error.
`main` runs one command and returns its code; `console` is the entry of a
command process.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import warnings
from pathlib import Path
from typing import NoReturn, Sequence

from . import pipeline
from .arima import MAX_GRID_ORDER, ArimaSpec
from .exceptions import CrimecastError, InvalidArgumentError, UsageError, decode_utf8
from .pipeline import ARIMA_READINGS, NATIONAL_MODELS, PANEL_MODELS
from .record import Record
from .series import Quarter

EXIT_OK = 0
EXIT_MODEL_ERROR = 1
EXIT_INPUT_ERROR = 2


class PipelineConfig(Record):
    """The pipeline settings; a default here is the value of an absent or
    null config key."""

    output_dir: Path = Path("out")
    seed: int = 0
    articles: Path | None = None
    gazetteer: Path | None = None
    covariates: Path | None = None
    fbi_series: Path | None = None
    panel: Path | None = None
    fit_start: Quarter = Quarter(2007, 1)
    fit_end: Quarter = Quarter(2018, 4)
    holdout_start: Quarter = Quarter(2019, 1)
    holdout_end: Quarter = Quarter(2019, 4)
    models: tuple[int, ...] = NATIONAL_MODELS
    arima_order: str | tuple[int, int, int] = "drift"
    arima_max_p: int = 2
    arima_max_q: int = 2
    detector_source: str = "precomputed"
    detector_model: Path | None = None
    detector_train: Path | None = None

    def __post_init__(self) -> None:
        if self.holdout_start <= self.fit_end:
            raise UsageError("holdout range must start after the fit range ends")
        if self.fit_end < self.fit_start or self.holdout_end < self.holdout_start:
            raise UsageError("fit and holdout ranges must be nonempty")


# ------------------------------------------------------------------ config
# One converter per config key. A converter raises ValueError or TypeError on
# a bad value; `Path` marks a path, resolved against the config's directory.


def _int(value) -> int:
    """An int or an integral float; a bool, a string or a fraction is an
    error rather than a silent conversion."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _string(value) -> str:
    """A JSON string, or a default's Path or Quarter, as text; a number, a
    bool, an array or an object is an error rather than its `str()`."""
    if not isinstance(value, (str, Path, Quarter)):
        raise TypeError(f"must be a string, got {value!r}")
    return str(value)


def _quarter(value) -> Quarter:
    """A quarter label whose year is in 1..9999, as in the quarterly CSVs."""
    quarter = Quarter.parse(_string(value))
    if not 1 <= quarter.year <= 9999:
        raise ValueError(f"year must be in 1..9999, got {quarter.year}")
    return quarter


def _models(value) -> tuple[int, ...]:
    """A list of model ids, or the comma-separated string that `--models` passes."""
    if isinstance(value, str):
        value = [int(m) for m in value.replace(",", " ").split()]
    elif not isinstance(value, (list, tuple)):
        raise TypeError(f"must be a list of model ids or a comma-separated string, got {value!r}")
    models = tuple(_int(m) for m in value)
    unknown = [m for m in models if m not in NATIONAL_MODELS + PANEL_MODELS]
    if unknown:
        raise ValueError(f"unknown model ids {unknown}; expected 1..7")
    repeated = [m for i, m in enumerate(models) if m in models[:i]]
    if repeated:
        raise ValueError(f"repeated model id {repeated[0]}")
    return models


def _seed(value) -> int:
    seed = _int(value)
    if seed < 0:
        raise ValueError(f"must be nonnegative, got {seed}")
    return seed


def _arima_order(value) -> str | tuple[int, int, int]:
    if isinstance(value, str) and value in ARIMA_READINGS:
        return value
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ValueError("must be 'drift', 'ar1', 'auto' or [p, d, q]")
    order = tuple(_int(v) for v in value)
    ArimaSpec(*order)
    return order


def _grid_bound(value) -> int:
    bound = _int(value)
    if not 0 <= bound <= MAX_GRID_ORDER:
        raise ValueError(f"must be in 0..{MAX_GRID_ORDER}")
    return bound


def _detector_source(value) -> str:
    if value not in ("precomputed", "baseline"):
        raise ValueError("must be 'precomputed' or 'baseline'")
    return value


_CONVERTERS = {
    **dict.fromkeys(
        ("output_dir", "articles", "gazetteer", "covariates", "fbi_series", "panel", "detector_model", "detector_train"),
        Path,
    ),
    **dict.fromkeys(("fit_start", "fit_end", "holdout_start", "holdout_end"), _quarter),
    "seed": _seed,
    "models": _models,
    "arima_order": _arima_order,
    "arima_max_p": _grid_bound,
    "arima_max_q": _grid_bound,
    "detector_source": _detector_source,
}


def load_config(path: str | Path, overrides: dict | None = None) -> PipelineConfig:
    """Read the JSON config; relative paths resolve against the config file.
    An unknown key or a bad value is a UsageError naming the key."""
    path = Path(path)
    try:
        raw = json.loads(decode_utf8(path.read_bytes(), path))
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except InvalidArgumentError as exc:
        raise UsageError(str(exc)) from exc
    except (ValueError, RecursionError) as exc:  # json's: a JSONDecodeError, too deep, an int too long
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"config {path} must be a JSON object")
    raw.update({k: v for k, v in (overrides or {}).items() if v is not None})
    unknown = sorted(set(raw) - set(_CONVERTERS))
    if unknown:
        raise UsageError(f"config {path}: unknown key {', '.join(map(repr, unknown))}")
    values = {}
    for name in PipelineConfig._fields:
        value = PipelineConfig._defaults[name] if raw.get(name) is None else raw[name]
        convert = _CONVERTERS[name]
        try:
            if value is not None:
                value = (path.parent / _string(value)).resolve() if convert is Path else convert(value)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"config key {name!r}: {exc}") from exc
        values[name] = value
    return PipelineConfig(**values)


# Input paths that a flag can override; they resolve against the working
# directory, where config-file paths resolve against the config's directory.
_PATH_FLAGS = ("articles", "fbi_series", "covariates", "panel", "gazetteer")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crimecast",
        description="Quarterly crime-trend forecasting with news-derived event signals.",
    )
    parser.add_argument("command", choices=pipeline.COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON pipeline config")
    parser.add_argument("--output-dir", default=None, help="override the output directory")
    parser.add_argument("--models", default=None, help="comma-separated model ids, e.g. 1,2,4")
    for key in _PATH_FLAGS:
        parser.add_argument("--" + key.replace("_", "-"), dest=key, default=None)
    return parser


def _make_output_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {path}: {exc.strerror or exc}") from exc


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a library warning as one stderr line that names no source line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {"models": args.models}
    for key in ("output_dir", *_PATH_FLAGS):
        value = getattr(args, key)
        overrides[key] = None if value is None else str(Path(value).resolve())
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            config = load_config(args.config, overrides)
            _make_output_dir(config.output_dir)
            pipeline.COMMANDS[args.command](config)
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        except CrimecastError as exc:
            print(f"model error: {exc}", file=sys.stderr)
            return EXIT_MODEL_ERROR
        except OSError as exc:  # the reads raise UsageError, so this is an output
            path = exc.filename2 or exc.filename or "output"
            print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    return EXIT_OK


def console() -> NoReturn:
    """Run `main` on the process's argv and exit with its code.

    Before it exits, the process freezes every object the collector tracks,
    so the interpreter's final collections skip them rather than walk all
    that numpy and crimecast imported. The exit is otherwise the normal one:
    atexit handlers run, stdout and stderr are flushed, and modules are torn
    down. Only a process that ends here may freeze: `main` in a longer-lived
    process keeps its collector, so the cyclic garbage of each call is
    freed."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console()
