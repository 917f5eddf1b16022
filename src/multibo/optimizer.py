"""Sequential optimization loop with a minimum sampling distance.

Each iteration scores every feasible candidate with the configured
acquisition, observes the objective at the argmax (ties resolve to the
lowest candidate index), refits the posterior, and decides whether the new
observation "locates" an optimum. Candidates closer than ``min_distance``
to any already-sampled point are never proposed; when none remain the run
terminates early rather than relaxing the constraint: at a fit as after a
tell, each history point clears the mask near it (``_exclude_near``).
``run`` and ``propose_next`` share one select step, ``Session.ask``.

A step is flagged as a located optimum when the conditions its acquisition
family actually reasons about hold at the sampled point: families using the
value posterior require the observed value to reach the improvement
threshold, and families using the gradient band require the posterior-mean
gradient norm to fall within the band half-width. That gradient mean is the
evaluator's own, at the sampled candidate after the observation is added.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import numerics
from .acquisition import AcquisitionConfig
from .engine import CandidateEvaluator
from .errors import ConfigError, Exhausted, GridTooLarge, NonFinite
from .gp import GPState
from .kernels import Kernel
from .objectives import nearest_distance

MAX_CANDIDATES = 10_000_000


def min_pairwise_distance(points) -> float:
    """Smallest distance between two rows of ``points``; infinite below two rows."""
    pts = np.asarray(points)
    if pts.shape[0] < 2:
        return float("inf")
    deltas = pts[:, None, :] - pts[None, :, :]
    dist = np.linalg.norm(deltas, axis=-1)
    np.fill_diagonal(dist, np.inf)
    return float(dist.min())


@dataclass(frozen=True)
class OptimizerConfig:
    """Run settings: domain, candidate generation, constraint, and model."""

    bounds: np.ndarray
    kernel: Kernel
    acquisition: AcquisitionConfig
    budget: int
    min_distance: float = 0.0
    grid_step: float | None = None
    grid_counts: tuple[int, ...] | None = None
    random_candidates: int | None = None
    prior_points: np.ndarray | None = None
    n_priors: int = 3
    prior_mean: float = 0.0
    seed: int = 0
    jitter_schedule: tuple[float, ...] = numerics.DEFAULT_JITTER_SCHEDULE

    def __post_init__(self):
        bounds = np.atleast_2d(np.asarray(self.bounds, dtype=float))
        if bounds.ndim != 2 or bounds.shape[1] != 2 or bounds.shape[0] == 0:
            raise ConfigError("bounds must be a nonempty stack of [low, high] pairs")
        if np.any(bounds[:, 0] >= bounds[:, 1]):
            raise ConfigError("every bound must satisfy low < high")
        object.__setattr__(self, "bounds", bounds)
        if self.budget < 0:
            raise ConfigError("budget must be nonnegative")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if not (np.isfinite(self.min_distance) and self.min_distance >= 0):
            raise ConfigError(f"min_distance must be finite and nonnegative, got {self.min_distance}")
        if not np.isfinite(self.prior_mean):
            raise ConfigError(f"prior_mean must be finite, got {self.prior_mean}")
        jitters = np.asarray(self.jitter_schedule, dtype=float)
        if jitters.size == 0 or not (np.all(np.isfinite(jitters)) and np.all(jitters >= 0)):
            raise ConfigError("jitter_schedule must be a nonempty list of finite nonnegative "
                              f"jitters, got {list(self.jitter_schedule)}")
        modes = [
            self.grid_step is not None,
            self.grid_counts is not None,
            self.random_candidates is not None,
        ]
        if sum(modes) != 1:
            raise ConfigError(
                "exactly one of grid_step, grid_counts, random_candidates must be set"
            )
        if self.grid_counts is not None and len(self.grid_counts) != bounds.shape[0]:
            raise ConfigError("grid_counts must give one resolution per dimension")
        if self.grid_step is not None and not self.grid_step > 0:
            raise ConfigError(f"grid_step must be positive, got {self.grid_step}")
        if self.grid_counts is not None and min(self.grid_counts) < 1:
            raise ConfigError(f"grid_counts must all be at least 1, got {list(self.grid_counts)}")
        if self.random_candidates is not None and self.random_candidates < 1:
            raise ConfigError(f"random_candidates must be at least 1, got {self.random_candidates}")
        if self.prior_points is not None:
            pts = np.atleast_2d(np.asarray(self.prior_points, dtype=float))
            if pts.shape[1] != bounds.shape[0]:
                raise ConfigError("prior_points dimension does not match bounds")
            if np.any(pts < bounds[:, 0]) or np.any(pts > bounds[:, 1]):
                raise ConfigError("prior_points must lie within bounds")
            if not _spaced(pts, self.min_distance):
                raise ConfigError("prior_points violate the minimum sampling distance")
            object.__setattr__(self, "prior_points", pts)
        elif self.n_priors < 1:
            raise ConfigError("n_priors must be at least 1")

    @property
    def dim(self) -> int:
        return self.bounds.shape[0]


@dataclass(frozen=True)
class StepRecord:
    """One evaluated point: priors carry step 0, selections count from 1."""

    step: int
    kind: str  # "prior" | "bo"
    point: np.ndarray
    value: float
    acquisition: float | None
    flagged: bool
    distance: float | None


@dataclass(frozen=True)
class RunTrace:
    """Ordered evaluation record plus final-state summary."""

    steps: tuple[StepRecord, ...]
    config: OptimizerConfig
    termination: str
    n_samples: int
    jitter: float

    def points(self, kind: str | None = None) -> np.ndarray:
        rows = [s.point for s in self.steps if kind is None or s.kind == kind]
        return np.asarray(rows) if rows else np.empty((0, self.config.dim))

    def bo_steps(self) -> tuple[StepRecord, ...]:
        return tuple(s for s in self.steps if s.kind == "bo")

    def flagged(self) -> tuple[StepRecord, ...]:
        return tuple(s for s in self.steps if s.flagged)

    def min_pairwise_distance(self) -> float:
        return min_pairwise_distance(self.points())


def grid_axes(cfg: OptimizerConfig) -> list[np.ndarray] | None:
    """The axes of the candidate grid, or ``None`` for random candidates."""
    if cfg.random_candidates is not None:
        return None
    if cfg.grid_step is not None:
        counts = [int(round((hi - lo) / cfg.grid_step)) + 1 for lo, hi in cfg.bounds]
    else:
        counts = list(cfg.grid_counts)
    total = int(np.prod(counts))
    if total > MAX_CANDIDATES:
        raise GridTooLarge(f"grid of {total} points exceeds cap {MAX_CANDIDATES}")
    return [np.linspace(lo, hi, c) for (lo, hi), c in zip(cfg.bounds, counts)]


def generate_candidates(cfg: OptimizerConfig, seed: int | None = None) -> np.ndarray:
    """Candidate stack: a deterministic full grid over ``grid_axes`` in C
    order (last axis fastest), or seeded uniform points."""
    axes = grid_axes(cfg)
    if axes is None:
        if cfg.random_candidates > MAX_CANDIDATES:
            raise GridTooLarge(f"{cfg.random_candidates} candidates exceeds cap")
        rng = np.random.default_rng(cfg.seed if seed is None else seed)
        u = rng.random((cfg.random_candidates, cfg.dim))
        return cfg.bounds[:, 0] + u * (cfg.bounds[:, 1] - cfg.bounds[:, 0])
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


# distances exactly at the minimum must stay feasible despite round-off
# (grid step equal to min_distance is the common configuration)
_DIST_RTOL = 1e-9


def _feasible_mask(candidates: np.ndarray, points: np.ndarray, d: float) -> np.ndarray:
    """True where a candidate is at least ``d`` from every row of ``points``.
    Each squared distance is summed from zero coordinate by coordinate, in
    the order of scipy's ``cdist(..., "sqeuclidean")``, so the rule gives
    its bits without loading ``scipy.spatial``."""
    mask = np.ones(candidates.shape[0], dtype=bool)
    if d <= 0:
        return mask
    cut = d * d * (1.0 - _DIST_RTOL)
    for p in points:
        sq = np.zeros(candidates.shape[0])
        for c, x in enumerate(p):
            diff = candidates[:, c] - x
            diff *= diff
            sq += diff
        mask &= sq >= cut
    return mask


def _exclude_near(mask: np.ndarray, candidates: np.ndarray, axes, point: np.ndarray, d: float):
    """Clear ``mask`` where ``point`` makes a candidate infeasible, by the rule
    of ``_feasible_mask``. For random candidates (``axes`` None) the rule runs
    over all of them; on a grid with axes ``axes``, over the index box within
    ``d`` of ``point`` along every axis only, through views of ``mask`` and
    ``candidates`` shaped as the grid. That box holds every candidate the
    rule can reject: rounding is monotone, so a candidate at least ``d`` away
    along one axis has a computed squared distance of at least d^2, above
    the rule's cut."""
    shape, box = (len(candidates),), (slice(None),)
    if axes is not None:
        shape = tuple(len(a) for a in axes)
        box = tuple(slice(a.searchsorted(p - d, "left"), a.searchsorted(p + d, "right"))
                    for a, p in zip(axes, point))
    near = mask.reshape(shape)[box]
    inside = candidates.reshape(*shape, -1)[box].reshape(-1, candidates.shape[1])
    near &= _feasible_mask(inside, point[None, :], d).reshape(near.shape)


def _spaced(points: np.ndarray, d: float) -> bool:
    """True when the rows of ``points`` lie pairwise at least ``d`` apart,
    by the rule of ``_feasible_mask``."""
    return all(_feasible_mask(points[i:i + 1], points[:i], d)[0] for i in range(1, len(points)))


class Session:
    """Ask/tell over a fixed candidate stack: one ``CandidateEvaluator``, the
    feasibility mask and the select step.

    ``fit`` conditions the posterior on samples and excludes each history
    point from an all-True mask; ``ask`` scores every candidate and returns
    the index and acquisition of the feasible maximum (ties to the lowest
    index), or raises ``Exhausted``, or ``NonFinite`` when that acquisition
    is NaN; ``tell`` adds one observation through the evaluator's rank-1
    update, growing its capacity when it is full, and excludes the new
    point. The session keeps ``candidates`` itself, not a copy.
    """

    def __init__(self, kernel, candidates, prior_mean, min_distance, capacity,
                 jitter_schedule, axes=None):
        self.candidates = candidates
        self.min_distance = min_distance
        self.axes = axes
        self.evaluator = CandidateEvaluator(kernel, candidates, prior_mean, capacity=capacity,
                                            jitter_schedule=jitter_schedule, axes=axes)
        self.mask = None

    def fit(self, X, f, history):
        self.evaluator.fit(X, f)
        self.mask = np.ones(len(self.candidates), dtype=bool)
        for p in history:
            self.exclude(p)

    def ask(self, acq_cfg: AcquisitionConfig) -> tuple[int, float]:
        if not self.mask.any():
            raise Exhausted("no candidate satisfies the minimum sampling distance")
        acq = self.evaluator.acquisition_values(acq_cfg, self.mask)
        idx = int(np.argmax(acq))  # the first NaN, if there is one
        if np.isnan(acq[idx]):
            raise NonFinite(f"the acquisition is NaN at candidate {idx}")
        return idx, float(acq[idx])

    def tell(self, x, y):
        self.evaluator.append(x, y)
        self.exclude(x)

    def exclude(self, point):
        """Clear the mask near ``point`` without observing it."""
        _exclude_near(self.mask, self.candidates, self.axes, point, self.min_distance)


# the session and history of the last propose_next call, taken out under the
# lock so that two concurrent calls never share an evaluator
_last = None
_last_lock = threading.Lock()


def _resume(last, state: GPState, candidates, history, cfg: OptimizerConfig):
    """The session of ``last`` brought up to ``state`` and ``history``, or
    ``None`` when it cannot be: the kernel, prior mean, jitter, minimum
    distance or candidates differ, or the samples or the history do not
    extend the session's."""
    if last is None:
        return None
    session, seen = last
    ev = session.evaluator
    old = ev.state()
    k, h = old.n_samples, len(seen)
    if not (old.kernel == state.kernel and old.prior_mean == state.prior_mean
            and old.factor.jitter == state.factor.jitter
            and session.min_distance == cfg.min_distance
            and state.n_samples >= k and len(history) >= h
            and np.array_equal(session.candidates, candidates)
            and np.array_equal(state.inputs[:k], old.inputs)
            and np.array_equal(state.values[:k], old.values)
            and np.array_equal(history[:h], seen)):
        return None
    for x, y in zip(state.inputs[k:], state.values[k:]):
        ev.append(x, y)
    for p in history[h:]:
        session.exclude(p)
    return session


def propose_next(state: GPState, candidates, history, cfg: OptimizerConfig):
    """Feasible candidate with maximal acquisition; lowest index wins ties.

    Returns ``(point, index, acquisition_value)``. Raises ``Exhausted`` when
    no candidate is at least ``min_distance`` away from every history point.

    The posterior is the evaluator's, fitted to ``state.inputs`` and
    ``state.values`` at ``state.factor.jitter``. The last call's session is
    reused when the kernel, prior mean, jitter, ``cfg.min_distance`` and
    candidate values match it, ``state.inputs``/``state.values`` extend its
    samples and ``history`` extends its history: the new samples are told to
    it in O(N k) each instead of a refit at O(N k^2). Otherwise a fresh
    session is fitted on a copy of the candidates, so later edits to the
    caller's array are seen as a change.
    """
    global _last
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    history = np.atleast_2d(np.asarray(history, dtype=float)) if len(history) else np.empty((0, cfg.dim))
    with _last_lock:
        last, _last = _last, None
    session = _resume(last, state, candidates, history, cfg)
    if session is None:
        session = Session(state.kernel, candidates.copy(), state.prior_mean, cfg.min_distance,
                          capacity=state.n_samples, jitter_schedule=(state.factor.jitter,))
        session.fit(state.inputs, state.values, history)
    idx, value = session.ask(cfg.acquisition)
    with _last_lock:
        _last = (session, history.copy())
    return candidates[idx], idx, value


def _draw_priors(cfg: OptimizerConfig, rng: np.random.Generator) -> np.ndarray:
    if cfg.prior_points is not None:
        return cfg.prior_points
    pts: list[np.ndarray] = []
    for _ in range(100_000):
        if len(pts) == cfg.n_priors:
            break
        u = rng.random(cfg.dim)
        p = cfg.bounds[:, 0] + u * (cfg.bounds[:, 1] - cfg.bounds[:, 0])
        if _feasible_mask(p[None, :], np.reshape(pts, (-1, cfg.dim)), cfg.min_distance)[0]:
            pts.append(p)
    if len(pts) < cfg.n_priors:
        raise ConfigError(
            "could not place prior points at the requested minimum distance"
        )
    return np.asarray(pts)


def _observe(objective, point: np.ndarray) -> float:
    value = float(objective(point))
    if not np.isfinite(value):
        raise NonFinite(f"objective returned {value} at {point.tolist()}")
    return value


def run(objective, cfg: OptimizerConfig, truths=None) -> RunTrace:
    """Execute the full loop: priors, fit, then ``budget`` propose/observe/refit
    rounds. ``truths`` (optional row stack) enables distance-to-optimum logging."""
    seeds = np.random.SeedSequence(cfg.seed).spawn(2)
    prior_rng = np.random.default_rng(seeds[0])
    cand_seed = seeds[1].generate_state(1)[0]
    candidates = generate_candidates(cfg, seed=int(cand_seed))
    axes = grid_axes(cfg)
    priors = _draw_priors(cfg, prior_rng)
    truths = None if truths is None else np.atleast_2d(np.asarray(truths, dtype=float))

    def truth_distance(p):
        if truths is None or truths.shape[0] == 0:
            return None
        return nearest_distance(truths, p)

    # allocated before the first objective call, so a grid too large for
    # memory fails before any evaluation is spent
    session = Session(cfg.kernel, candidates, cfg.prior_mean, cfg.min_distance,
                      capacity=priors.shape[0] + cfg.budget,
                      jitter_schedule=cfg.jitter_schedule, axes=axes)
    evaluator = session.evaluator
    acq_cfg = cfg.acquisition
    records = []
    prior_values = []
    for p in priors:
        v = _observe(objective, p)
        prior_values.append(v)
        records.append(StepRecord(
            step=0, kind="prior", point=p.copy(), value=v,
            acquisition=None, flagged=False, distance=truth_distance(p),
        ))

    session.fit(priors, prior_values, priors)

    termination = "budget"
    for t in range(1, cfg.budget + 1):
        try:
            idx, acq = session.ask(acq_cfg)
        except Exhausted:
            termination = "exhausted"
            break
        point = candidates[idx].copy()
        value = _observe(objective, point)
        session.tell(point, value)

        flag = True
        if acq_cfg.uses_value:
            flag = flag and value >= acq_cfg.threshold
        if acq_cfg.uses_band:
            grad = evaluator.gradient_mean_at(idx)
            flag = flag and float(np.linalg.norm(grad)) <= acq_cfg.epsilon
        records.append(StepRecord(
            step=t, kind="bo", point=point, value=value,
            acquisition=acq, flagged=bool(flag),
            distance=truth_distance(point),
        ))

    return RunTrace(
        steps=tuple(records),
        config=cfg,
        termination=termination,
        n_samples=evaluator.n_samples,
        jitter=evaluator.jitter,
    )
