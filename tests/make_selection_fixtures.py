"""Regenerate the selection fixtures: what the cheap bundled runs select.

Runs ``configs/griewank2d_jointpi.cfg``, ``shubert_jointei.cfg`` and
``tabulated_demo.cfg``, and ``compare`` on ``synthetic1d_compare.cfg`` at
seed 0, and freezes every column of each ``trace.csv`` except
``acquisition``, whose last bits move with the rounding of the acquisition
formulas. Those runs fit in one sweep block, so two 40,000-candidate
variants of ``griewank2d_jointpi.cfg`` (``LARGE``, the grid and random
variants of ``tests/test_determinism.py`` at budget 15) are frozen too:
their sweeps span several blocks and take the engine's pruned acquisition
path. No bundled config is 4-D, so one ask/tell loop on 4-D Griewank
(``ASKTELL_4D``) is frozen beside them: each round's chosen index, point
and value, again without the acquisition. ``tests/test_selections.py``
checks that the runs still select the same points.

Run from the repository root:  python tests/make_selection_fixtures.py
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

from multibo import gp, harness, objectives, optimizer
from multibo.acquisition import AcquisitionConfig
from multibo.kernels import SquaredExponential
from test_determinism import CANDIDATES, CONFIG

REPO = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures" / "selections"

# output directory name -> harness command line, run from the repository root
RUNS = {
    "griewank2d_jointpi": ["run", "configs/griewank2d_jointpi.cfg"],
    "shubert_jointei": ["run", "configs/shubert_jointei.cfg"],
    "tabulated_demo": ["run", "configs/tabulated_demo.cfg"],
    "compare0": ["compare", "configs/synthetic1d_compare.cfg", "--seed", "0"],
}

# output directory name -> the config line that gives CONFIG its 40,000 candidates
LARGE = {f"griewank2d_jointpi_40k_{kind}": line for kind, line in CANDIDATES.items()}


def large_config(line, path) -> Path:
    """CONFIG at budget 15 with ``line`` for its candidates, written to ``path``."""
    kept = [l for l in CONFIG.read_text().splitlines() if not l.startswith(("grid_step", "budget"))]
    path.write_text("\n".join(kept + [line, "budget = 15"]) + "\n")
    return path

# ask/tell on 4-D Griewank with the priors and settings of the benchmark's
# ``asktell-4d`` workload, over one seeded uniform point in each of
# 10 x 10 x 5 x 5 = 2,500 cells of the box
ASKTELL_4D = dict(
    cells=(10, 10, 5, 5),
    seed=0,
    config=optimizer.OptimizerConfig(
        bounds=((-5.0, 5.0), (-5.0, 5.0), (-1.0, 1.0), (-1.0, 1.0)),
        kernel=SquaredExponential(alpha=10.0, length_scale=1.0),
        acquisition=AcquisitionConfig("joint_ei", threshold=1.8, epsilon=0.3),
        budget=20, min_distance=0.3, random_candidates=2500, prior_mean=2.0,
        prior_points=np.array([(3.05, 0.12, -0.08, 0.05), (-3.22, 0.15, 0.11, -0.06),
                               (0.11, 4.32, 0.07, 0.04), (-0.14, -4.28, -0.12, 0.09)]),
    ),
)


def asktell_lines() -> list[str]:
    """``ASKTELL_4D``'s ``budget`` rounds of ``gp.fit`` and
    ``optimizer.propose_next``, one line per round: the chosen index, point
    and objective value."""
    cfg = ASKTELL_4D["config"]
    objective = objectives.make_benchmark("griewank", dimension=4).objective
    cells = np.asarray(ASKTELL_4D["cells"])
    bounds = np.asarray(cfg.bounds)
    lattice = np.stack(np.meshgrid(*map(np.arange, cells), indexing="ij"), -1).reshape(-1, 4)
    u = np.random.default_rng(ASKTELL_4D["seed"]).random(lattice.shape)
    cands = bounds[:, 0] + (lattice + u) / cells * (bounds[:, 1] - bounds[:, 0])
    X = list(cfg.prior_points)
    y = [float(objective(p)) for p in X]
    lines = ["round,index,x1,x2,x3,x4,value"]
    for r in range(1, cfg.budget + 1):
        state = gp.fit(np.asarray(X), np.asarray(y), cfg.prior_mean, cfg.kernel,
                       cfg.jitter_schedule)
        point, idx, _ = optimizer.propose_next(state, cands, np.asarray(X), cfg)
        X.append(point)
        y.append(float(objective(point)))
        lines.append(",".join([str(r), str(idx), *map(repr, point.tolist()), repr(y[-1])]))
    return lines


def selection_lines(trace_path) -> list[str]:
    """The rows of a ``trace.csv``, header included, without its comment
    lines and its ``acquisition`` column."""
    lines = Path(trace_path).read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    col = rows[0].index("acquisition")
    return [",".join(row[:col] + row[col + 1:]) for row in rows]


def run_all(out_root) -> dict[str, list[str]]:
    """Run ``RUNS`` under ``out_root``; fixture name -> selection lines, one
    per trace (``compare0_joint_pi`` for a multi-run command's runs), plus
    ``asktell_griewank4d`` for the ask/tell loop."""
    out_root = Path(out_root)
    runs = dict(RUNS)
    for name, line in LARGE.items():
        runs[name] = ["run", str(large_config(line, out_root / f"{name}.cfg"))]
    for name, argv in runs.items():
        assert harness.main([*argv, "--out", str(out_root / name)]) == 0, name
    selections = {
        "_".join(path.parent.relative_to(out_root).parts): selection_lines(path)
        for path in sorted(out_root.rglob("trace.csv"))
    }
    selections["asktell_griewank4d"] = asktell_lines()
    return selections


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
