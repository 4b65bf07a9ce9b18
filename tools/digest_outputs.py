#!/usr/bin/env python3
"""Digest every command's exit code, stdout and output files, so that two
commits can be compared output for output.

    python3 tools/digest_outputs.py SRC WORK SEED [--fixture-only]

SRC is the `src/` directory of the checkout under test; crimecast is
imported from there. WORK must be empty or absent. The script builds the
benchmark's three worlds in WORK with the builders of `bench/run.py`
(`WORKLOADS`, world seed SEED) and runs each world's set-up and command
list. It then runs the six commands on the `tests/fixtures` world under five
configs: `arima_order` drift (the fixture's own config), ar1, auto (max p
and q 3) and [1, 1, 1], and `detector_source` baseline. `--fixture-only`
runs the fixture configs alone.

Every command runs in this process through `crimecast.cli.main`. The script
prints one line per command,
`<command key> exit <code> stdout <sha256> stderr <sha256>`, then one line
per file under WORK, `<path relative to WORK> <sha256>`, the inputs it wrote
included. Config files are left out, as they hold absolute paths. Run it at
two commits with the same SEED and diff the printed lines.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
COMMANDS = ("detect", "signals", "decompose", "diagnose", "fit-forecast", "evaluate-detector")
FIXTURE_VARIANTS = {
    "drift": {},
    "ar1": {"arima_order": "ar1"},
    "auto": {"arima_order": "auto", "arima_max_p": 3, "arima_max_q": 3},
    "111": {"arima_order": [1, 1, 1]},
    "baseline": {"detector_source": "baseline"},
}
FIXTURE_PATHS = ("articles", "gazetteer", "covariates", "fbi_series", "panel", "detector_train")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(main, key: str, argv: list[str]) -> None:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    print(f"{key} exit {code} stdout {_sha256(stdout.getvalue().encode())} stderr {_sha256(stderr.getvalue().encode())}")


def _bench_worlds(main, run, work: Path, seed: int) -> None:
    for workload, (_, prepare) in run.WORKLOADS.items():
        (work / workload).mkdir()
        prepared = prepare(seed, work / workload)
        if prepared.setup_argv:
            _run(main, f"{workload}/setup", list(prepared.setup_argv))
        pass_dir = str(work / workload / "pass")
        for command in prepared.commands:
            _run(main, f"{workload}/{command.key}", [arg.replace("{pass}", pass_dir) for arg in command.argv])


def _fixture_variants(main, work: Path) -> None:
    base = json.loads((FIXTURES / "config.json").read_text())
    for key in FIXTURE_PATHS:
        base[key] = str((FIXTURES / base[key]).resolve())
    for variant, changes in FIXTURE_VARIANTS.items():
        out = work / f"fixture-{variant}"
        out.mkdir(parents=True)
        config = out / "config.json"
        raw = {**base, **changes, "output_dir": str(out / "out"), "detector_model": str(out / "model.json")}
        config.write_text(json.dumps(raw, indent=2) + "\n")
        for i, name in enumerate(COMMANDS, start=1):
            key = f"{i}_{name}"
            argv = [name, "--config", str(config), "--output-dir", str(out / key)]
            if name == "fit-forecast":
                argv += ["--models", "1,2,3,4,5,6,7"]
            _run(main, f"fixture-{variant}/{key}", argv)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="the src/ directory to import crimecast from")
    parser.add_argument("work", type=Path, help="an empty or absent directory for worlds and outputs")
    parser.add_argument("seed", type=int, help="world seed of the benchmark builders")
    parser.add_argument("--fixture-only", action="store_true", help="run only the fixture configs")
    args = parser.parse_args()
    work = args.work.resolve()
    if work.exists() and any(work.iterdir()):
        parser.error(f"{work} is not empty")
    work.mkdir(parents=True, exist_ok=True)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "bench")]
    sys.dont_write_bytecode = True  # write nothing into either checkout
    import run  # the benchmark's builders; sets one BLAS thread before numpy loads

    from crimecast.cli import main as cli_main

    if not args.fixture_only:
        _bench_worlds(cli_main, run, work, args.seed)
    _fixture_variants(cli_main, work)
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        if not path.name.startswith("config"):
            print(f"{path.relative_to(work)} {_sha256(path.read_bytes())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
