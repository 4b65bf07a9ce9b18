"""Child processes of the benchmark; `run.py` starts them, never a user.

    python bench/launch.py cli --report R.json [--trace] [--pass-id N] [-- ARGV...]

times `import crimecast.cli` in this fresh process and then, when ARGV is
given, `crimecast.cli.main(ARGV)`; with `--trace` every crimecast public
function is wrapped and the spans go into the report.

    python bench/launch.py passes --plan P.json --report R.json

imports crimecast.cli once and runs the plan's command list pass after pass
in process, untraced and then (when the plan asks) traced. It records each
command's wall time and exit code, the process's peak RSS after each pass,
the SHA-256 of every file each pass wrote, and the time of the reference
task (`reference.py`) run before the first command and after every command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing

REFERENCE = Path(__file__).resolve().parent / "reference.py"
# Median of time_reference() on the host where bench/baseline.json was
# recorded (2-vCPU Xeon VM at 2.1 GHz, Python 3.11.7, numpy 2.4.6, one BLAS
# thread). A wall time scaled by REFERENCE_S / time_reference() is in seconds
# of that host at its median speed.
REFERENCE_S = 0.22


def _run_main(cli, argv: list[str]) -> int | str:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return "exception"


def cmd_cli(args: argparse.Namespace) -> int:
    tracer = tracing.Tracer()
    tracer.pass_id = args.pass_id
    t0 = time.perf_counter()
    with tracer.span("cli.import"):
        import crimecast.cli as cli
    t1 = time.perf_counter()
    rc: int | str = 0
    if args.argv:
        if args.trace:
            tracer.install()
        with tracer.span("cli.main"):
            rc = _run_main(cli, args.argv)
    t2 = time.perf_counter()
    report = {"import_s": t1 - t0, "main_s": t2 - t1, "rc": rc}
    if args.trace:
        report.update(tracer.dump())
    Path(args.report).write_text(json.dumps(report))
    return 0


def want_pass(walls: list[float], start: float, phase: dict) -> bool:
    """True until the phase has its minimum passes and another pass of median
    length would end more than half a pass after the phase's seconds."""
    if len(walls) < phase["min_passes"]:
        return True
    return time.perf_counter() - start + statistics.median(walls) / 2 <= phase["seconds"]


def time_reference(env: dict[str, str]) -> float:
    """Wall time of the reference task (reference.py) as a fresh process. It
    gets the program's environment without PYTHONPATH, so it cannot see src/."""
    env = {k: v for k, v in env.items() if k != "PYTHONPATH"}
    start = time.perf_counter()
    subprocess.run([sys.executable, str(REFERENCE)], env=env, check=True)
    return time.perf_counter() - start


def tree_hashes(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def cmd_passes(args: argparse.Namespace) -> int:
    plan = json.loads(Path(args.plan).read_text())
    out = Path(plan["out"])
    t0 = time.perf_counter()
    import crimecast.cli as cli
    import_s = time.perf_counter() - t0

    tracer = tracing.Tracer()
    passes: list[dict] = []
    per_pass_layers: list[dict] = []
    reference = time_reference(dict(os.environ))
    for phase in plan["phases"]:
        traced = phase["traced"]
        if traced:
            tracer.install()
        walls: list[float] = []
        start = time.perf_counter()
        while want_pass(walls, start, phase):
            pass_id = len(passes)
            pass_dir = out / f"pass{pass_id}"
            tracer.pass_id = pass_id
            first_span = len(tracer.spans)
            commands = []
            for command in plan["commands"]:
                argv = [a.replace("{pass}", str(pass_dir)) for a in command["argv"]]
                c0 = time.perf_counter()
                if traced:
                    with tracer.span("cli.main"):
                        rc = _run_main(cli, argv)
                else:
                    rc = _run_main(cli, argv)
                wall = time.perf_counter() - c0
                after = time_reference(dict(os.environ))
                commands.append({"name": command["name"], "key": command["key"], "wall": wall,
                                 "reference": (reference + after) / 2, "rc": rc})
                reference = after
            wall = sum(c["wall"] for c in commands)
            walls.append(wall)
            record = {
                "id": pass_id,
                "traced": traced,
                "wall": wall,
                "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "commands": commands,
                "hashes": tree_hashes(pass_dir),
            }
            passes.append(record)
            if traced:
                spans = [s[:3] + [s[3] - first_span if s[3] >= 0 else -1] + s[4:]
                         for s in tracer.spans[first_span:]]
                counts = {k: v for (p, k), v in tracer.counts.items() if p == pass_id}
                per_pass_layers.append(tracing.layer_metrics(spans, counts, wall))
            if pass_id > 0:
                shutil.rmtree(pass_dir, ignore_errors=True)
        if traced:
            tracer.uninstall()
    report = {"import_s": import_s, "passes": passes, "layers": per_pass_layers}
    Path(args.report).write_text(json.dumps(report))
    if plan.get("spans"):
        Path(plan["spans"]).write_text(json.dumps(tracer.dump()))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    one = sub.add_parser("cli")
    one.add_argument("--report", required=True)
    one.add_argument("--trace", action="store_true")
    one.add_argument("--pass-id", type=int, default=0)
    one.add_argument("argv", nargs="*")
    many = sub.add_parser("passes")
    many.add_argument("--plan", required=True)
    many.add_argument("--report", required=True)
    args = parser.parse_args()
    return cmd_cli(args) if args.mode == "cli" else cmd_passes(args)


if __name__ == "__main__":
    sys.exit(main())
