"""Trace-level evaluation metrics.

The central quantity is the running average distance: the prefix mean, over
the optimizer-selected points of the first ``n`` steps, of each point's
distance to its nearest registered optimum. Prior-design evaluations are
excluded; only step-indexed selections count.

``metric_report`` computes every figure that ``summary.json`` and
``report.csv`` give for a trace, from anything with ``.steps``: a
``RunTrace`` or a ``TraceFile``. All figures read one matrix of distances
from the selected points to the optima, so first hits, located truths and
per-step distances agree on what lies within the hit radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoGroundTruth
from .objectives import BenchmarkSpec


@dataclass(frozen=True)
class MetricReport:
    """Distances per step, prefix means at checkpoints, and first-hit steps
    (by truth index, best optimum first). A flagged selected step whose
    nearest truth lies within the hit radius locates that truth; any other
    flagged step counts as off-truth."""

    per_step_distances: tuple[float, ...]
    checkpoint_averages: dict[int, float]
    first_hits: dict[int, int | None]
    distinct_found: int
    final_average_distance: float | None
    located_truths: frozenset[int]
    flags_off_truth: int


def _selected(trace, spec: BenchmarkSpec):
    """The selected steps and their distances to every registered optimum,
    one row per step."""
    if not spec.has_truth:
        raise NoGroundTruth(f"benchmark {spec.name!r} has no registered optima")
    steps = [s for s in trace.steps if s.kind == "bo"]
    points = np.array([s.point for s in steps], dtype=float).reshape(-1, spec.ground_truth.shape[1])
    return steps, np.linalg.norm(points[:, None, :] - spec.ground_truth, axis=-1)


def metric_report(trace, spec: BenchmarkSpec, checkpoints, radius: float) -> MetricReport:
    """Every trace figure: distances, checkpoint averages, first hits, and
    the truths the flagged steps located."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    steps, dist = _selected(trace, spec)
    dists = dist.min(axis=1).tolist()
    within = dist <= radius
    hits = {i: steps[int(np.argmax(col))].step if col.any() else None
            for i, col in enumerate(within.T)}
    located, off_truth = set(), 0
    for s, row, close in zip(steps, dist, within):
        if s.flagged:
            nearest = int(np.argmin(row))
            if close[nearest]:
                located.add(nearest)
            else:
                off_truth += 1
    return MetricReport(
        per_step_distances=tuple(dists),
        checkpoint_averages={
            int(c): float(np.mean(dists[: int(c)])) for c in checkpoints if 1 <= c <= len(dists)
        },
        first_hits=hits,
        distinct_found=sum(1 for v in hits.values() if v is not None),
        final_average_distance=float(np.mean(dists)) if dists else None,
        located_truths=frozenset(located),
        flags_off_truth=off_truth,
    )
