"""Two traced runs of one seed report identical counts.

Runs the benchmark itself from the repository root, so it takes about a
minute:  PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TIMED_UNITS = ("s", "1/s")


def traced(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ("sweep_visc_m64", "weakform_k24"))
def test_counts_repeat_exactly(workload):
    a, b = traced(workload, 11), traced(workload, 11)
    assert a["correct"] and b["correct"]
    counts = {k: v["value"] for k, v in a["metrics"].items() if v["unit"] not in TIMED_UNITS}
    assert counts == {k: b["metrics"][k]["value"] for k in counts}
    assert any(v > 0 for v in counts.values())
