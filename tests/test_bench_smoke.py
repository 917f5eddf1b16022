"""The benchmark still runs: its workloads at their least work, no timing gate.

``bench/run.py`` checks every output it produces against an independent
dense posterior and the method's properties; this keeps the command and
those checks working as the program changes. ``grid3d-run`` is the one
workload whose n = 3 closed-form gradient solve meets that reference, and
``asktell-4d`` the one whose n = 4 closed-form solve does. The dense reference
has tests of its own under ``bench/``, run here as well. Two workloads also
run with ``--trace 1``, which checks that the program still reaches every
layer the benchmark times.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# workloads also run traced: a traced run is correct only when every layer
# its workload requires was reached
TRACED = ("asktell-4d", "synthetic1d-compare")


@pytest.mark.parametrize("workload", ["asktell-4d", "synthetic1d-compare", "grid3d-run"])
def test_bench_workload_runs_and_checks_out(workload):
    for trace in ("0", "1") if workload in TRACED else ("0",):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "0",
             "--seed", "1", "--trace", trace],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] is True, proc.stdout
        assert result["failed"] == 0, proc.stdout
        assert result["attempted"] > 0


def test_bench_reference_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "bench", "-q"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " passed" in proc.stdout.strip().splitlines()[-1], proc.stdout
