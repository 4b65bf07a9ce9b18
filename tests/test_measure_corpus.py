"""tools/measure_corpus.py on a small world: one line per command, then one
line of stage seconds, then one digest per output file."""

import re
import subprocess
import sys
from pathlib import Path

import crimecast

TOOL = Path(__file__).resolve().parents[1] / "tools" / "measure_corpus.py"


def test_measures_the_commands_and_the_stages_of_a_small_world(tmp_path):
    src = Path(crimecast.__file__).parents[1]
    argv = [sys.executable, str(TOOL), str(src), str(tmp_path), "--news-rate", "0.5"]
    lines = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True).stdout.splitlines()
    assert re.fullmatch(r"built \S+ \(\d+ articles\)", lines[0]), lines[0]
    number = r"\d+\.\d+"
    for line, name in zip(lines[1:4], ["detect", "signals", "evaluate-detector"]):
        assert re.fullmatch(f"{name} exit 0 wall_s {number} cpu_s {number} peak_rss_mb {number}", line), line
    stages = " ".join(f"{stage}_s {number}" for stage in ("read", "token_ids", "scoring", "resolution"))
    assert re.fullmatch(f"stages {stages}", lines[4]), lines[4]
    outputs = ["detect/articles_labeled.jsonl", "detect/detection_summary.json",
               "evaluate-detector/detector_metrics.json", "signals/signals_by_state.csv", "signals/signals_national.csv"]
    assert [line.split()[0] for line in lines[5:]] == outputs
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines[5:])
