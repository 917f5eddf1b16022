"""Regenerate the selection fixtures: what the cheap bundled runs select.

Runs ``configs/griewank2d_jointpi.cfg``, ``shubert_jointei.cfg`` and
``tabulated_demo.cfg``, and ``compare`` on ``synthetic1d_compare.cfg`` at
seed 0, and freezes every column of each ``trace.csv`` except
``acquisition``, whose last bits move with the rounding of the acquisition
formulas. ``tests/test_selections.py`` checks that the runs still select
the same points.

Run from the repository root:  python tests/make_selection_fixtures.py
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from multibo import harness

REPO = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures" / "selections"

# output directory name -> harness command line, run from the repository root
RUNS = {
    "griewank2d_jointpi": ["run", "configs/griewank2d_jointpi.cfg"],
    "shubert_jointei": ["run", "configs/shubert_jointei.cfg"],
    "tabulated_demo": ["run", "configs/tabulated_demo.cfg"],
    "compare0": ["compare", "configs/synthetic1d_compare.cfg", "--seed", "0"],
}


def selection_lines(trace_path) -> list[str]:
    """The rows of a ``trace.csv``, header included, without its comment
    lines and its ``acquisition`` column."""
    lines = Path(trace_path).read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    col = rows[0].index("acquisition")
    return [",".join(row[:col] + row[col + 1:]) for row in rows]


def run_all(out_root) -> dict[str, list[str]]:
    """Run ``RUNS`` under ``out_root``; fixture name -> selection lines, one
    per trace (``compare0_joint_pi`` for a multi-run command's runs)."""
    out_root = Path(out_root)
    for name, argv in RUNS.items():
        assert harness.main([*argv, "--out", str(out_root / name)]) == 0, name
    return {
        "_".join(path.parent.relative_to(out_root).parts): selection_lines(path)
        for path in sorted(out_root.rglob("trace.csv"))
    }


def main():
    os.chdir(REPO)
    FIXTURES.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        selections = run_all(tmp)
    for name, lines in selections.items():
        (FIXTURES / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(selections)} fixtures to {FIXTURES}")


if __name__ == "__main__":
    main()
