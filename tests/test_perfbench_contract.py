"""The benchmark harness still runs against the library.

`perfbench/` reads library names, cache counters and output digests; one
traced repetition of each benchmarked workload shows that none of them
was renamed or removed and that every output is unchanged.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("workload", ["oracles", "hecke", "duals", "extension"])
def test_traced_repetition_matches_recorded_digests(workload):
    recorded = json.loads((PERFBENCH / "digests.json").read_text())["ops"]
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), repr(time.monotonic()),
         workload, "0", "1", "1"],
        cwd=PERFBENCH.parent, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["ops"]
    for op in record["ops"]:
        assert op["problems"] == [], op
        if "digest" in op or op["key"] in recorded:
            assert op.get("digest") == recorded.get(op["key"]), op["key"]
    assert "layers" in record
