"""Tiny end-to-end runs of every workload through the real command.

Each run starts a coordinator and daemons on loopback and exercises every
correctness and accounting check; a run that fails one exits non-zero.
"""

import json
import os
import subprocess
import sys

import pytest

import run

RUN = os.path.join(os.path.dirname(os.path.dirname(__file__)), "run.py")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "6", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 0
    names = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(names)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == names[name]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
