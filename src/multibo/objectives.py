"""Benchmark objectives with verified ground-truth optima.

All objectives are vectorized: they accept arrays of shape (..., n) and
return values of shape (...). Every benchmark is *maximized*.

Ground-truth registries are built at construction: analytic stationary
points (or grid-scan candidates) are polished by a bounded local search and
then certified as local maxima by comparing against axis neighbors at a
small offset. An objective whose optima cannot be certified refuses to
register them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridTooLarge, OutOfBounds, ParseError

MAX_GRID_POINTS = 100_000_000

CERTIFICATE_OFFSET = 1e-3


# -- analytic benchmark functions -------------------------------------------


def griewank(x) -> np.ndarray | float:
    """Griewank function 1 + sum(x_i^2)/4000 - prod(cos(x_i / sqrt(i))), i from 1."""
    x = np.asarray(x, dtype=float)
    scale = np.sqrt(np.arange(1, x.shape[-1] + 1, dtype=float))
    out = 1.0 + np.sum(x * x, axis=-1) / 4000.0 - np.prod(np.cos(x / scale), axis=-1)
    return float(out) if out.ndim == 0 else out


def shubert(x) -> np.ndarray | float:
    """Shubert function: product over both coordinates of sum_{i=1..5} i cos((i+1) x + i)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 2:
        raise ValueError("shubert is defined for 2-dimensional inputs")
    i = np.arange(1.0, 6.0)
    terms = i * np.cos((i + 1.0) * x[..., None] + i)
    factors = np.sum(terms, axis=-1)
    out = factors[..., 0] * factors[..., 1]
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SyntheticBumps:
    """1-D sum of Gaussian bumps a * exp(-(x - c)^2 / (2 w^2)) on [0, 1].

    The default spec has four well-separated interior bumps with distinct
    heights (so the maxima rank unambiguously) plus one wide bump centered
    beyond the right edge. The last one contributes a high-valued rising
    ramp with no interior stationary point: a trap for acquisition rules
    that chase value alone, and the reason purely value-driven baselines
    lag on this benchmark.
    """

    bumps: tuple[tuple[float, float, float], ...] = (
        (0.85, 0.08, 0.06),
        (0.72, 0.30, 0.06),
        (0.60, 0.52, 0.06),
        (0.40, 0.70, 0.06),
        (1.30, 1.25, 0.28),
    )

    def __post_init__(self):
        if not self.bumps:
            raise ValueError("bump list must be nonempty")
        for a, c, w in self.bumps:
            if not (a > 0 and w > 0):
                raise ValueError(f"bump ({a}, {c}, {w}) needs positive height and width")

    def __call__(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        if x.ndim and x.shape[-1] == 1:
            x = x[..., 0]
        out = np.zeros_like(x, dtype=float)
        for a, c, w in self.bumps:
            out = out + a * np.exp(-((x - c) ** 2) / (2.0 * w * w))
        return float(out) if out.ndim == 0 else out

    def derivative(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        if x.ndim and x.shape[-1] == 1:
            x = x[..., 0]
        out = np.zeros_like(x, dtype=float)
        for a, c, w in self.bumps:
            out = out - a * (x - c) / (w * w) * np.exp(-((x - c) ** 2) / (2.0 * w * w))
        return float(out) if out.ndim == 0 else out

    def local_maxima(self, scan_step: float = 1e-5) -> np.ndarray:
        """Interior local maxima on [0, 1] via derivative sign changes.

        Scans the analytic derivative on a uniform grid and bisects each
        positive-to-negative crossing.
        """
        grid = np.arange(0.0, 1.0 + scan_step / 2, scan_step)
        d = self.derivative(grid)
        crossings = np.flatnonzero((d[:-1] > 0) & (d[1:] <= 0))
        maxima = []
        for j in crossings:
            lo, hi = grid[j], grid[j + 1]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if self.derivative(mid) > 0:
                    lo = mid
                else:
                    hi = mid
            maxima.append(0.5 * (lo + hi))
        return np.asarray(maxima)


# -- tabulated surfaces -------------------------------------------------------


@dataclass(frozen=True)
class TabulatedSurface:
    """Grid-tabulated objective evaluated by nearest grid point (ties toward
    the lower coordinate)."""

    axis_names: tuple[str, ...]
    axes: tuple[np.ndarray, ...]
    table: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def bounds(self) -> np.ndarray:
        return np.array([[ax[0], ax[-1]] for ax in self.axes])

    def __call__(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        scalar_in = x.ndim == 1
        pts = np.atleast_2d(x)
        idx = []
        for d, ax in enumerate(self.axes):
            coord = pts[:, d]
            if np.any(coord < ax[0]) or np.any(coord > ax[-1]):
                raise OutOfBounds(
                    f"axis {self.axis_names[d]!r} query outside [{ax[0]}, {ax[-1]}]"
                )
            mids = 0.5 * (ax[:-1] + ax[1:])
            idx.append(np.searchsorted(mids, coord, side="left"))
        out = self.table[tuple(idx)]
        return float(out[0]) if scalar_in else out.reshape(x.shape[:-1])

    def grid_maxima(self) -> tuple[np.ndarray, np.ndarray]:
        """Lattice points whose value strictly exceeds all axis neighbors."""
        return _strict_local_maxima(self.table, self.axes)

    def write(self, path):
        """Emit the surface in the interchange CSV format (one row per grid point)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join([*self.axis_names, "value"]) + "\n")
            for flat_idx in np.ndindex(self.table.shape):
                coords = [repr(float(self.axes[d][i])) for d, i in enumerate(flat_idx)]
                fh.write(",".join([*coords, repr(float(self.table[flat_idx]))]) + "\n")


def load_tabulated(path) -> TabulatedSurface:
    """Read a tabulated surface from CSV: header names the axes then ``value``,
    one row per grid point, rows in any order; the grid must be complete."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file", line=1)
    header = [h.strip() for h in lines[0].split(",")]
    if len(header) < 2 or header[-1] != "value":
        raise ParseError("header must name at least one axis and end with 'value'", line=1)
    names = tuple(header[:-1])
    ndim = len(names)
    rows = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != ndim + 1:
            raise ParseError(f"expected {ndim + 1} fields, got {len(parts)}", line=lineno)
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        if not all(np.isfinite(rows[-1])):
            raise ParseError("non-finite entry", line=lineno)
    if not rows:
        raise ParseError("no data rows", line=2)
    data = np.asarray(rows)
    axes = tuple(np.unique(data[:, d]) for d in range(ndim))
    expected = int(np.prod([len(ax) for ax in axes]))
    if len(rows) != expected:
        raise ParseError(
            f"incomplete grid: {len(rows)} rows but axes imply {expected}", line=1
        )
    table = np.full([len(ax) for ax in axes], np.nan)
    for row in data:
        idx = tuple(int(np.searchsorted(axes[d], row[d])) for d in range(ndim))
        table[idx] = row[-1]
    if np.any(np.isnan(table)):
        raise ParseError("duplicate rows leave grid cells unfilled", line=1)
    return TabulatedSurface(axis_names=names, axes=axes, table=table)


# -- ground-truth registry ----------------------------------------------------


@dataclass(frozen=True)
class BenchmarkSpec:
    """Objective plus domain and its certified ground-truth maxima."""

    name: str
    dimension: int
    bounds: np.ndarray
    objective: object
    ground_truth: np.ndarray
    truth_values: np.ndarray

    @property
    def has_truth(self) -> bool:
        return self.ground_truth.shape[0] > 0


def nearest_distance(points: np.ndarray, x) -> float:
    """Euclidean distance from ``x`` to the nearest row of ``points``."""
    x = np.asarray(x, dtype=float).ravel()
    return float(np.min(np.linalg.norm(points - x, axis=1)))


def grid_local_maxima(objective, bounds, resolution) -> tuple[np.ndarray, np.ndarray]:
    """All interior grid points strictly greater than every axis neighbor.

    ``resolution`` is the grid step per dimension. The full lattice is
    evaluated at once, so the point count is capped.
    """
    bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
    axes = [
        np.linspace(lo, hi, int(round((hi - lo) / resolution)) + 1)
        for lo, hi in bounds
    ]
    total = int(np.prod([len(ax) for ax in axes]))
    if total > MAX_GRID_POINTS:
        raise GridTooLarge(f"{total} grid points exceeds cap {MAX_GRID_POINTS}")
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return _strict_local_maxima(np.asarray(objective(mesh)), axes)


def _strict_local_maxima(values, axes) -> tuple[np.ndarray, np.ndarray]:
    """Points and values of the lattice ``values`` (over ``axes``) that are
    off every edge and strictly greater than both neighbors on every axis."""
    mask = np.ones(values.shape, dtype=bool)
    for d in range(values.ndim):
        edge = [slice(None)] * values.ndim
        edge[d] = [0, -1]
        interior = np.ones(values.shape, dtype=bool)
        interior[tuple(edge)] = False
        above = (values > np.roll(values, 1, axis=d)) & (values > np.roll(values, -1, axis=d))
        mask &= interior & above
    where = np.argwhere(mask)
    pts = np.column_stack([axes[d][where[:, d]] for d in range(values.ndim)])
    return pts, values[mask]


def _polish_maximum(objective, x0, bounds) -> np.ndarray:
    # imported here: only the Griewank and Shubert registries polish, and
    # scipy.optimize adds ~12 MB and ~0.15 s to every process that loads it
    from scipy.optimize import minimize

    res = minimize(
        lambda p: -float(objective(p)),
        np.asarray(x0, dtype=float),
        method="Nelder-Mead",
        bounds=[(lo, hi) for lo, hi in bounds],
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000},
    )
    return np.asarray(res.x)


def _certify_maxima(objective, points, bounds, offset=CERTIFICATE_OFFSET):
    """Check each point dominates its 2n axis neighbors at ``offset``."""
    bounds = np.asarray(bounds, dtype=float)
    for p in points:
        fp = float(objective(p))
        for d in range(len(p)):
            for sign in (-1.0, 1.0):
                q = p.copy()
                q[d] = np.clip(q[d] + sign * offset, bounds[d, 0], bounds[d, 1])
                if fp < float(objective(q)):
                    raise ValueError(
                        f"registered optimum {p} fails the local-maximum certificate"
                    )


def _spec(name, dimension, bounds, objective, truths) -> BenchmarkSpec:
    bounds = np.asarray(bounds, dtype=float)
    truths = np.atleast_2d(np.asarray(truths, dtype=float)) if len(truths) else np.empty((0, dimension))
    values = np.asarray([float(objective(t)) for t in truths])
    order = np.argsort(-values) if len(values) else np.array([], dtype=int)
    truths, values = truths[order], values[order]
    _certify_maxima(objective, truths, bounds)
    return BenchmarkSpec(
        name=name,
        dimension=dimension,
        bounds=bounds,
        objective=objective,
        ground_truth=truths,
        truth_values=values,
    )


@lru_cache(maxsize=None)
def _griewank_benchmark(dimension: int) -> BenchmarkSpec:
    bounds = [(-5.0, 5.0)] * dimension
    # stationary seeds of the cosine product, nudged by the quadratic term
    seeds = []
    for sign in (1.0, -1.0):
        s1 = np.zeros(dimension)
        s1[0] = sign * np.pi
        seeds.append(s1)
        s2 = np.zeros(dimension)
        s2[1] = sign * np.sqrt(2.0) * np.pi
        seeds.append(s2)
    truths = [_polish_maximum(griewank, s, bounds) for s in seeds]
    return _spec(f"griewank{dimension}d", dimension, bounds, griewank, truths)


@lru_cache(maxsize=None)
def _shubert_benchmark() -> BenchmarkSpec:
    bounds = [(-2.0, 0.0), (-2.0, 0.0)]
    pts, _ = grid_local_maxima(shubert, bounds, resolution=0.005)
    truths = [_polish_maximum(shubert, p, bounds) for p in pts]
    return _spec("shubert", 2, bounds, shubert, truths)


def synthetic_benchmark(bumps=None) -> BenchmarkSpec:
    return _synthetic_benchmark(None if bumps is None else tuple(map(tuple, bumps)))


@lru_cache(maxsize=None)
def _synthetic_benchmark(bumps) -> BenchmarkSpec:
    fn = SyntheticBumps() if bumps is None else SyntheticBumps(bumps)
    maxima = fn.local_maxima()
    truths = [np.array([m]) for m in maxima]
    return _spec("synthetic1d", 1, [(0.0, 1.0)], fn, truths)


def tabulated_benchmark(path) -> BenchmarkSpec:
    surface = load_tabulated(path)
    pts, _ = surface.grid_maxima()
    return _spec("tabulated", surface.dim, surface.bounds, surface, pts)


def make_benchmark(name: str, dimension: int | None = None, bumps=None, path=None) -> BenchmarkSpec:
    """Construct a benchmark by name: griewank (2-D or 3-D), shubert,
    synthetic1d, or tabulated (requires ``path``)."""
    if name == "griewank":
        return _griewank_benchmark(dimension or 2)
    if name == "shubert":
        return _shubert_benchmark()
    if name == "synthetic1d":
        return synthetic_benchmark(bumps)
    if name == "tabulated":
        if path is None:
            raise ValueError("tabulated benchmark requires a file path")
        return tabulated_benchmark(path)
    raise ValueError(f"unknown benchmark {name!r}")
