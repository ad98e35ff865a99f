"""Self-test of the benchmark: two traced runs of each workload must repeat
their deterministic counts exactly, and every operation must pass.

    python3 -m pytest -q perfbench/tests/selftest.py

The file name keeps it out of the default test collection, because it
takes about three minutes on two cores.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "run.py"
ROOT = RUN.parents[1]
WORKLOADS = ["d6-hexagon", "hexagon-newton"]
DETERMINISTIC = [
    "o2gamma.orbit_types_mode1.calls",
    "o2gamma.class_product.calls",
    "o2gamma.mode1_candidates.classes",
    "basicdeg.omega.support",
    "verifier.newton.iterations",
]
# the layer each workload stresses: its count must be nonzero there
HEAVY = {
    "d6-hexagon": "o2gamma.mode1_candidates.classes",
    "hexagon-newton": "verifier.newton.iterations",
}


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = traced_run(workload, 7), traced_run(workload, 7)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    counts = {name: first["metrics"][name]["value"] for name in DETERMINISTIC}
    assert counts == {name: second["metrics"][name]["value"] for name in DETERMINISTIC}
    assert counts[HEAVY[workload]] > 0
