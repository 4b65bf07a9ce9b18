"""tools/measure_csv.py on the fixture world alone: one timing line per
CSV input, each read by numpy's C reader."""

import re
import subprocess
import sys
from pathlib import Path

import crimecast

TOOL = Path(__file__).resolve().parents[1] / "tools" / "measure_csv.py"


def test_times_the_fixture_csvs_and_names_the_path():
    src = Path(crimecast.__file__).parents[1]
    argv = [sys.executable, str(TOOL), str(src), "--no-world", "--repeats", "2"]
    lines = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True).stdout.splitlines()
    readers = ["panel.csv PanelDataset.from_csv", "covariates.csv Dataset.from_csv", "fbi.csv load_series_csv"]
    assert len(lines) == len(readers)
    for line, reader in zip(lines, readers):
        number = r"\d+\.\d\d"
        assert re.fullmatch(f"fixture {reader}: median {number} ms \\[{number}, {number}\\] over 2 repeats, path C", line), line
