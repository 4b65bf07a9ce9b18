"""tools/measure_import.py at two repeats: the warm and cold import lines,
a breakdown by module that holds crimecast's modules and no `dataclasses`,
and the wall times of a whole fresh `decompose` process and of a fresh
`fit-forecast --models 1` with an `auto` order search."""

import re
import subprocess
import sys
from pathlib import Path

import crimecast

TOOL = Path(__file__).resolve().parents[1] / "tools" / "measure_import.py"


def test_times_the_warm_and_cold_import_and_breaks_it_down():
    src = Path(crimecast.__file__).parents[1]
    argv = [sys.executable, str(TOOL), str(src), "--repeats", "2"]
    lines = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True).stdout.splitlines()
    assert len(lines) == 5
    number = r"\d+\.\d\d"
    timing = f": median {number} ms \\[{number}, {number}\\] over 2 fresh processes"
    assert re.fullmatch("warm import crimecast.cli after numpy" + timing, lines[0]), lines[0]
    assert re.fullmatch(r"cold import crimecast.cli after numpy \(crimecast's bytecode removed\)" + timing, lines[1]), lines[1]
    assert lines[2].startswith("warm self time by module: ")
    modules = dict(item.rsplit(" ", 2)[:2] for item in lines[2].split(": ", 1)[1].split(", "))
    assert {"crimecast.cli", "crimecast.record", "crimecast.series"} <= set(modules)
    assert "dataclasses" not in modules
    command = "fresh process python -m crimecast.cli decompose \\(fixture config\\)"
    assert re.fullmatch(command + timing, lines[3]), lines[3]
    search = r"fresh process python -m crimecast.cli fit-forecast --models 1 \(fixture config, arima_order auto, max p and q 3\)"
    assert re.fullmatch(search + timing, lines[4]), lines[4]
