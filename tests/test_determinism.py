"""A run's trace does not depend on how many threads computed it.

Each config runs twice, each time in a fresh interpreter: once on one CPU
with one OpenBLAS thread (so the engine's candidate sweep has one worker),
and once at the defaults. Importing the engine pins OpenBLAS to one thread
on both sides, so the two runs differ only in the sweep's worker count. The
two ``trace.csv`` files must be equal byte for byte. Both configs have more
candidates than one sweep block, so the default run splits the sweep, and
on the grid the append GEMM's output rows, across the pool when the machine
has two or more CPUs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
CONFIG = REPO / "configs" / "griewank2d_jointpi.cfg"

# the affinity must be set before multibo (and numpy) is imported
RUN = """
import os, sys
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from multibo.harness import main
sys.exit(main(sys.argv[2:]))
"""

CANDIDATES = {
    "grid": "grid_step = 0.05",  # 201 x 201 = 40,401 grid candidates
    "random": "random_candidates = 40000",
}


def _run(mode, config, out):
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    if mode == "pinned":
        env["OPENBLAS_NUM_THREADS"] = "1"
    subprocess.run([sys.executable, "-c", RUN, mode, "run", str(config), "--out", str(out)],
                   env=env, check=True, capture_output=True, timeout=300)
    return (out / "trace.csv").read_bytes()


@pytest.mark.parametrize("candidates", CANDIDATES)
def test_trace_bytes_do_not_depend_on_the_thread_count(tmp_path, candidates):
    lines = [l for l in CONFIG.read_text().splitlines()
             if not l.startswith(("grid_step", "budget"))]
    config = tmp_path / "run.cfg"
    config.write_text("\n".join(lines + [CANDIDATES[candidates], "budget = 15"]) + "\n")
    pinned = _run("pinned", config, tmp_path / "pinned")
    default = _run("default", config, tmp_path / "default")
    assert pinned == default
