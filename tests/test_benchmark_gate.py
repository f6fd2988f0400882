"""The benchmark's own correctness gate, run as a test.

perfbench/run.py checks every command's exit code and output document
against its depth-first oracle, across processes, and with ``--trace 1``
also runs perfbench's traced copy of the pipeline and compares
``closure.paths`` with the oracle's count.  Each workload's whatif makes
one kind of change to the closure: hub21 closes a zone, mesh10 drops a
firewall and flat12 opens a zone.  A short traced run takes a few seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["hub21", "mesh10", "flat12"])
def test_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stderr
    assert result["attempted"] > 0
