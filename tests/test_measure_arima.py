"""tools/measure_arima.py on a few criterion-4 seeds, without the
models-50state world: the (0,0) count and one digest over every grid
candidate."""

import re
import subprocess
import sys
from pathlib import Path

import crimecast

TOOL = Path(__file__).resolve().parents[1] / "tools" / "measure_arima.py"


def test_digests_the_criterion_4_candidates():
    src = Path(crimecast.__file__).parents[1]
    argv = [sys.executable, str(TOOL), str(src), "--no-world", "--seeds", "3"]
    lines = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True).stdout.splitlines()
    assert lines[0] == "criterion 4: (0,0) in 3/3 seeds"
    assert re.fullmatch("27 candidates sha256 [0-9a-f]{64}", lines[1])  # 3 seeds x a 3 x 3 grid
    assert len(lines) == 2
