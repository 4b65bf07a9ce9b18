"""tools/digest_outputs.py on the fixture configs: the digests of the
fixture's own config match tests/golden."""

import hashlib
import subprocess
import sys
from pathlib import Path

import crimecast

from conftest import GOLDEN

TOOL = Path(__file__).resolve().parents[1] / "tools" / "digest_outputs.py"


def test_fixture_digests_match_the_goldens(tmp_path):
    src = Path(crimecast.__file__).parents[1]
    argv = [sys.executable, str(TOOL), str(src), str(tmp_path / "work"), "1", "--fixture-only"]
    lines = subprocess.run(argv, capture_output=True, text=True, timeout=300, check=True).stdout.splitlines()
    commands = [line.split() for line in lines if " exit " in line]
    files = dict(line.split() for line in lines if " exit " not in line)
    assert len(commands) == 30  # six commands under each of five configs
    assert [code for key, _, code, *_ in commands if key.startswith("fixture-drift/")] == ["0"] * 6
    for golden in sorted(GOLDEN.iterdir()):
        [path] = [p for p in files if p.startswith("fixture-drift/") and p.endswith("/" + golden.name)]
        assert files[path] == hashlib.sha256(golden.read_bytes()).hexdigest(), path
