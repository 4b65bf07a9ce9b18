"""The benchmark's reference task: a fixed piece of work that measures how
fast the host runs right now.

    python3 bench/reference.py

starts Python, imports numpy, parses and counts a fixed set of JSON records
and fits a fixed small least-squares problem many times, then exits: a cold
CLI command in small, in about 0.2 s. It uses nothing of crimecast, so no
change to the program moves its time.

The host this benchmark runs on changes speed in phases of seconds to
minutes, by more than the benchmark's bounds. So the benchmark times this
task before the first timed command and after every one
(`launch.time_reference`), and scales each command's wall time by
`launch.REFERENCE_S` over the mean of the task's two times around it. Over
300 s of in-process corpus-50state passes, the spread (IQR over median) of
the pass time in 30 s windows was 7.9% unscaled and 4.5% scaled; scaling by
an in-process call of `kernel()` instead gave 6.9%, and on models-50state
5.2% against 3.2% for this task.
"""

from __future__ import annotations

import json
import re

import numpy as np

RECORDS = 5000
FITS = 150
PATTERN = re.compile(r"city (\d+) in state (\d+)")


def kernel() -> tuple[int, float]:
    lines = [
        json.dumps({"id": f"a{i:06d}", "date": f"{2000 + i % 20}-{1 + i % 12:02d}-15",
                    "text": f"article {i} about city {i % 97} in state {i % 50}"})
        for i in range(RECORDS)
    ]
    counts: dict[tuple[str, str], int] = {}
    for line in lines:
        row = json.loads(line)
        match = PATTERN.search(row["text"])
        key = (match.group(2), row["date"][:4])
        counts[key] = counts.get(key, 0) + 1
    x = np.cos(np.arange(120 * 8, dtype=float)).reshape(120, 8)
    y = np.sin(np.arange(120, dtype=float))
    total = 0.0
    for k in range(FITS):
        beta = np.linalg.lstsq(x, y + k, rcond=None)[0]
        total += float(beta @ beta)
    return len(counts), total


if __name__ == "__main__":
    kernel()
