"""tools/measure_arima.py on a few criterion-4 seeds, without the
models-50state world: the (0,0) count and one digest over every grid
candidate; and the binding swap that records a pass's order searches."""

import importlib.util
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


def test_the_search_recorder_swaps_and_restores_every_binding():
    """The tool records the order searches by binding a recorder wherever a
    loaded crimecast module binds `select_orders`: in `arima` and in the
    module whose stages call it."""
    from crimecast import arima, pipeline

    spec = importlib.util.spec_from_file_location("measure_arima", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    select = arima.select_orders

    def recorder(series, max_p, max_q):
        return select(series, max_p, max_q)

    with tool._swapped(arima, recorder):
        assert arima.select_orders is recorder
        assert pipeline.select_orders is recorder
    assert arima.select_orders is select
    assert pipeline.select_orders is select
