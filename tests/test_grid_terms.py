"""The grid representation of the cross terms and the box update of the mask.

On a tensor grid of candidates a separable kernel's cross terms are kept as
per-axis factors instead of a dense cache, and a new sample clears the
feasibility mask only inside the index box within ``min_distance`` of it,
as each history point does when a session's fit builds the mask.
These tests pin both against the dense paths they replace, the memory the
grid representation saves, the grid GEMM's rows computed per sweep block
on the pool against the full products one after another, and the sweep's
blocks of whole grid rows.
"""

import tracemalloc
from concurrent.futures import Future
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multibo import engine, optimizer
from multibo.acquisition import (
    FAMILIES, AcquisitionConfig, condition_on_zero_gradient, packed_pairs,
)
from multibo.engine import CandidateEvaluator
from multibo.kernels import Polynomial, SquaredExponential
from multibo.optimizer import OptimizerConfig, _exclude_near, _feasible_mask

RTOL = 1e-12
ATOL = 1e-14
# The two representations round the kernel values and order the GEMM's sums
# differently; the posterior carries that at about eps cond(K) times the
# scale of the data and of the posterior (as in tests/test_engine_scalar.py),
# and an acquisition divides it by the posterior std it standardises with.
COND_ATOL = np.finfo(float).eps


@st.composite
def grids(draw, max_count):
    """An ``OptimizerConfig`` over a grid given by ``grid_step`` or by
    ``grid_counts``, single-point axes included."""
    n = draw(st.integers(1, 4))
    counts = draw(st.lists(st.integers(1, max_count(n)), min_size=n, max_size=n))
    lows = draw(st.lists(st.floats(-1.0, 0.0), min_size=n, max_size=n))
    if draw(st.booleans()):
        step = draw(st.floats(0.1, 0.5))
        # a width of step / 3 rounds to a single grid point
        widths = [(c - 1) * step if c > 1 else step / 3 for c in counts]
        mode = {"grid_step": step}
    else:
        widths = draw(st.lists(st.floats(0.2, 2.0), min_size=n, max_size=n))
        mode = {"grid_counts": tuple(counts)}
    return OptimizerConfig(
        bounds=[(lo, lo + w) for lo, w in zip(lows, widths)],
        kernel=SquaredExponential(1.0, 1.0),
        acquisition=AcquisitionConfig("joint_ei", 0.2, 0.3),
        budget=1, **mode,
    )


def _outputs(kernel, cands, axes, X, f, duplicate):
    """Fit on two samples, append the rest (and a duplicate), read every output."""
    ev = CandidateEvaluator(kernel, cands, 0.25, capacity=len(X) + 1, axes=axes)
    ev.fit(X[:2], f[:2])
    for x, y in zip(X[2:], f[2:]):
        ev.append(x, y)
    if duplicate:
        jitter = ev.jitter
        with mock.patch.object(ev, "fit", wraps=ev.fit) as refit:
            ev.append(X[0], f[0])
        # an exact duplicate refits, unless a jitter already separates it
        assert refit.called or jitter > 0
    out = {"mean": ev.posterior_mean().copy(), "cov": ev._scov.copy()}
    for family in FAMILIES:
        out[family] = ev.acquisition_values(AcquisitionConfig(family, 0.2, 0.3)).copy()
    return ev, out


@settings(max_examples=150, deadline=None)
@given(
    cfg=grids(lambda n: (9, 8, 6, 5)[n - 1]),
    seed=st.integers(0, 2**32 - 1),
    n_samples=st.integers(2, 6),
    duplicate=st.booleans(),
)
def test_grid_and_dense_evaluators_agree(cfg, seed, n_samples, duplicate):
    rng = np.random.default_rng(seed)
    axes = optimizer.grid_axes(cfg)
    cands = optimizer.generate_candidates(cfg)
    n = cfg.dim
    lo, hi = cfg.bounds[:, 0], cfg.bounds[:, 1]
    X = lo + rng.random((n_samples, n)) * (hi - lo)
    # some samples on distinct grid points, the rest off the grid
    on_grid = np.flatnonzero(rng.random(n_samples) < 0.5)[:len(cands)]
    X[on_grid] = cands[rng.choice(len(cands), len(on_grid), replace=False)]
    f = rng.standard_normal(n_samples)
    kernel = SquaredExponential(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.3, 1.0)))
    cond = np.linalg.cond(kernel.eval_matrix(X, X))
    assume(np.isfinite(cond))
    grid_ev, grid = _outputs(kernel, cands, axes, X, f, duplicate)
    dense_ev, dense = _outputs(kernel, cands, None, X, f, duplicate)
    head = len(cands) // len(axes[-1])
    assert isinstance(grid_ev._terms, engine._GridCross) == (head + len(axes[-1]) < len(cands))
    assert isinstance(dense_ev._terms, engine._DenseCross)
    scale = max(1.0, *(np.abs(a).max() for a in (f, dense["mean"], dense["cov"])))
    atol = ATOL + COND_ATOL * cond * scale
    for key in ("mean", "cov"):
        np.testing.assert_allclose(grid[key], dense[key], rtol=RTOL, atol=atol, err_msg=key)
    acq_atol = atol * (1.0 + 1.0 / _smallest_std(dense["mean"], dense["cov"]))
    for family in FAMILIES:
        np.testing.assert_array_less(np.abs(grid[family] - dense[family]),
                                     RTOL * np.abs(dense[family]) + acq_atol, err_msg=family)


def _smallest_std(mean, cov):
    """Per candidate, the smallest posterior std an acquisition standardises
    with: the value's, the value's given a zero gradient, or a gradient
    component's (a tiny floor where one vanishes)."""
    n = mean.shape[1] - 1
    pairs = packed_pairs(n)
    _, cond_var = condition_on_zero_gradient(mean.T, cov)
    variances = [cov[0], cond_var] + [cov[pairs.index((d, d))] for d in range(1, n + 1)]
    return np.sqrt(np.maximum(np.minimum.reduce(variances), 1e-300))


def _box_updated_mask(cands, axes, points, d):
    mask = np.ones(len(cands), dtype=bool)
    for p in points:
        _exclude_near(mask, cands, axes, p, d)
    return mask


@settings(max_examples=150, deadline=None)
@given(
    cfg=grids(lambda n: (40, 15, 8, 5)[n - 1]),
    seed=st.integers(0, 2**32 - 1),
    n_points=st.integers(1, 6),
    spacing=st.sampled_from(["zero", "multiple", "any"]),
    multiple=st.integers(1, 3),
)
def test_box_updated_mask_equals_the_full_rule(cfg, seed, n_points, spacing, multiple):
    rng = np.random.default_rng(seed)
    axes = optimizer.grid_axes(cfg)
    cands = optimizer.generate_candidates(cfg)
    steps = [a[1] - a[0] for a in axes if len(a) > 1]
    if spacing == "zero":
        d = 0.0
    elif spacing == "multiple":
        # an exact multiple of the step puts grid neighbours at distance d
        d = multiple * (cfg.grid_step or (steps[0] if steps else 0.1))
    else:
        d = float(rng.uniform(0.0, 1.0))
    # grid candidates, as the optimizer samples, and one off-grid point
    points = cands[rng.integers(0, len(cands), n_points)]
    points[-1] += rng.uniform(-0.05, 0.05, cfg.dim) if rng.random() < 0.5 else 0.0
    got = _box_updated_mask(cands, axes, points, d)
    np.testing.assert_array_equal(got, _feasible_mask(cands, points, d))
    # random candidates take the full-width rule
    np.testing.assert_array_equal(_box_updated_mask(cands, None, points, d), got)


@pytest.mark.parametrize("history", ["empty", "on the grid", "one off the grid"])
@pytest.mark.parametrize("d", [0.0, 0.1, 0.27])  # 0.1 is the grid step
@pytest.mark.parametrize("grid", [True, False])
def test_fit_mask_equals_the_full_rule(grid, d, history):
    mode = {"grid_step": 0.1} if grid else {"random_candidates": 150}
    cfg = OptimizerConfig(bounds=[(0.0, 1.0), (0.0, 1.0)], kernel=SquaredExponential(1.0, 0.5),
                          acquisition=AcquisitionConfig("joint_ei", 0.2, 0.3), budget=1, **mode)
    cands = optimizer.generate_candidates(cfg)
    axes = optimizer.grid_axes(cfg)
    rng = np.random.default_rng(5)
    points = cands[rng.choice(len(cands), 4, replace=False)]
    if history == "empty":
        points = points[:0]
    elif history == "one off the grid":
        points[-1] = [0.433, 0.561]
    session = optimizer.Session(cfg.kernel, cands, 0.0, d, capacity=2,
                                jitter_schedule=(0.0,), axes=axes)
    session.fit(cands[[3, 70]], np.array([0.4, -0.2]), points)
    np.testing.assert_array_equal(session.mask, _feasible_mask(cands, points, d))
    assert session.mask.all() == (d == 0.0 or history == "empty")


def _evaluator_bytes(ev):
    arrays = [v for v in vars(ev).values() if isinstance(v, np.ndarray)]
    # the dense form's GEMM output is the one array its cross terms own
    if isinstance(ev._terms, engine._DenseCross):
        arrays.append(ev._terms.raw)
    return sum(a.nbytes for a in arrays)


def test_grid_run_memory_does_not_grow_with_capacity_times_candidates():
    built = []

    def record(*args, **kwargs):
        built.append(CandidateEvaluator(*args, **kwargs))
        return built[-1]

    def run_bytes(budget):
        cfg = OptimizerConfig(
            bounds=[(-1.0, 1.0), (-1.0, 1.0)], kernel=SquaredExponential(1.0, 0.3),
            acquisition=AcquisitionConfig("joint_ei", 0.5, 0.1), budget=budget,
            min_distance=0.04, grid_counts=(51, 51), n_priors=3, seed=2,
        )
        with mock.patch.object(optimizer, "CandidateEvaluator", record):
            trace = optimizer.run(lambda x: float(np.cos(3 * x).sum()), cfg)
        assert len(trace.bo_steps()) == budget
        return _evaluator_bytes(built[-1])

    small, large = run_bytes(4), run_bytes(40)
    # a dense cache would add 8 bytes per candidate for each capacity step
    assert large - small < 8 * (40 - 4) * 51 * 51 / 10


@settings(max_examples=40, deadline=None)
@given(
    cfg=grids(lambda n: (9, 8, 6, 5)[n - 1]),
    polynomial=st.booleans(),
    grid=st.booleans(),
    capacity=st.integers(1, 12),
)
def test_bytes_needed_covers_the_allocated_arrays(cfg, polynomial, grid, capacity):
    axes = optimizer.grid_axes(cfg)
    cands = optimizer.generate_candidates(cfg)
    kernel = Polynomial(1.5) if polynomial else SquaredExponential(2.0, 0.6)
    ev = CandidateEvaluator(kernel, cands, 0.0, capacity=capacity, axes=axes if grid else None)
    rng = np.random.default_rng(capacity)
    ev.fit(cands[rng.integers(0, len(cands), 1)], [0.5])
    ev.acquisition_values(AcquisitionConfig("joint_ei", 0.2, 0.3))
    n_cand, n = cands.shape
    m = len(axes[-1])
    if isinstance(ev._terms, engine._GridCross):
        cross = capacity * (n_cand // m + m)
    else:
        cross = kernel.cross_rows * capacity * n_cand
    # the candidates are the caller's; the acquisition values are the one
    # full-width array the evaluator does not keep
    assert ev.cands is cands
    held = _evaluator_bytes(ev) - cands.nbytes + 8 * n_cand
    assert held <= ev._bytes_needed(capacity, cross)


@pytest.mark.parametrize("polynomial", [False, True], ids=["se", "polynomial"])
@pytest.mark.parametrize("grid", [False, True], ids=["dense", "grid"])
def test_bytes_needed_equals_the_arrays_at_capacity(polynomial, grid):
    # 30^3 = 27,000 grid candidates; a stationary kernel keeps one prior column
    axis = np.linspace(-1.0, 1.0, 30)
    axes = [axis] * 3
    cands = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3)
    kernel = Polynomial(1.5) if polynomial else SquaredExponential(2.0, 0.6)
    capacity = 6
    ev = CandidateEvaluator(kernel, cands, 0.0, capacity=capacity, axes=axes if grid else None)
    assert isinstance(ev._terms, engine._GridCross) == (grid and not polynomial)
    X = cands[np.random.default_rng(3).choice(len(cands), capacity, replace=False)]
    ev.fit(X, np.sin(X.sum(axis=1)))
    arrays = [ev._cross, ev._L, ev._X, ev._f, ev._z, ev._scov, ev._k0p, ev._mu]
    # the dense form keeps its GEMM output; the grid form computes it per block
    if grid and not polynomial:
        assert not hasattr(ev._terms, "raw")
    else:
        arrays.append(ev._terms.raw)
    # plus the acquisition values, the one full-width array it does not keep
    held = sum(a.nbytes for a in arrays) + 8 * len(cands)
    assert ev._bytes_needed(capacity, ev._cross.size) == held


def test_stationary_prior_block_is_computed_from_one_candidate():
    # a 59^3 = 205,379-point grid: the prior blocks of every candidate
    # would be 13 doubles each, the packed copy 10 more
    axis = np.linspace(-1.0, 1.0, 59)
    cands = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        ev = CandidateEvaluator(SquaredExponential(2.0, 0.6), cands, 0.0, capacity=2)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before >= _evaluator_bytes(ev) - cands.nbytes
    # nothing full-width is allocated beyond what the evaluator keeps
    assert peak - after < 2**20
    alpha, l2 = 2.0, 0.6**2
    want = [alpha, 0, 0, 0, alpha / l2, 0, 0, alpha / l2, 0, alpha / l2]
    np.testing.assert_array_equal(ev._k0p[:, 0], want)
    assert ev._k0p.shape == (10, 1)


@pytest.mark.parametrize("counts", [(250, 250), (40, 40, 40), (16, 16, 16, 16)],
                         ids=["n2", "n3", "n4"])
@mock.patch.object(engine, "_SWEEP", 20_000)
def test_pooled_grid_gemm_matches_the_one_thread_loop(counts):
    # each grid spans several sweep blocks, so the GEMM's rows run per block
    # on the pool; a capacity of 2 doubles twice on the way to k = 5
    n = len(counts)
    axes = [np.linspace(-2.0, 2.0, c) for c in counts]
    cands = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, n)
    assert len(cands) > 3 * engine._SWEEP
    rng = np.random.default_rng(n)
    X, f = rng.uniform(-2.0, 2.0, (5, n)), rng.standard_normal(5)
    ev = CandidateEvaluator(SquaredExponential(1.5, 0.7), cands, 0.0, capacity=2, axes=axes)
    assert isinstance(ev._terms, engine._GridCross)
    ev.fit(X[:1], f[:1])
    for k in range(1, 6):
        if k > 1:
            ev.append(X[k - 1], f[k - 1])
        w = rng.standard_normal(k)
        with mock.patch.object(engine, "_executor", wraps=engine._executor) as pool:
            got = np.concatenate(ev._sweep(ev._terms.dot(ev._X[:k], w)), axis=1)
        pool.assert_called()
        head, tail = ev._terms.head[:k].T, ev._terms.tail[:k]
        W = ev.kernel.dot_weights(ev._X[:k], w)
        want = np.empty((1 + n, len(cands)))
        for c in range(W.shape[1]):
            np.matmul(head, W[:, c, None] * tail, out=want[c].reshape(head.shape[0], -1))
        np.testing.assert_array_equal(got, want, err_msg=f"k = {k}")
    assert ev.capacity == 8


@pytest.mark.parametrize("rows, m", [(rows, m) for rows in (1, 2, 3, 5, 31, 640)
                                     for m in (1, 7, 101)]
                         + [(1, 50_000), (2, 50_000), (3, 50_000)])
@pytest.mark.parametrize("sweep", [3, 4_096, engine._SWEEP])
def test_sweep_blocks_are_whole_grid_rows(rows, m, sweep):
    # M = rows grid rows of m candidates; m = 50,000 puts a grid row beyond
    # the smaller sweep blocks
    with mock.patch.object(engine, "_SWEEP", sweep):
        blocks = engine._blocks(rows * m, m)
        dense = engine._blocks(rows * m, 1)
    assert blocks[0].start == 0 and blocks[-1].stop == rows * m
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    sizes = [b.stop - b.start for b in blocks]
    assert all(size % m == 0 for size in sizes)
    assert min(sizes) >= m * min(rows, 2)
    # grid rows only merge blocks the dense rule would form
    assert len(blocks) <= len(dense)
    if m == 1:
        assert blocks == dense


@pytest.mark.parametrize("counts", [(2, 9), (3, 9), (2, 3, 7)], ids=["M2", "M3", "M6"])
@mock.patch.object(engine, "_SWEEP", 4)
def test_grid_evaluator_sweeps_whole_grid_rows(counts):
    # sweep blocks of 4 candidates would cut every grid row of 7 or 9
    axes = [np.linspace(-1.0, 1.0, c) for c in counts]
    cands = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, len(counts))
    ev = CandidateEvaluator(SquaredExponential(1.0, 0.5), cands, 0.0, capacity=4, axes=axes)
    assert isinstance(ev._terms, engine._GridCross)
    assert ev._blocks() == engine._blocks(len(cands), counts[-1])
    seen = []
    ev._sweep(seen.append)
    assert seen == ev._blocks()


def run_now(fn, *args):
    """A serial stand-in for ``ThreadPoolExecutor.submit``."""
    done = Future()
    done.set_result(fn(*args))
    return done


def test_grid_append_allocates_no_full_width_gemm_output():
    # 40^3 = 64,000 candidates in sweep blocks of at most 4,096, run one
    # after another so that the peak does not grow with the worker count
    n, axis = 3, np.linspace(-1.0, 1.0, 40)
    axes = [axis] * n
    cands = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, n)
    full = 8 * (1 + n) * len(cands)
    rng = np.random.default_rng(0)
    X, f = rng.uniform(-1.0, 1.0, (3, n)), rng.standard_normal(3)
    with mock.patch.object(engine, "_SWEEP", 4_096), \
            mock.patch.object(engine, "_executor", lambda: SimpleNamespace(map=map, submit=run_now)):
        tracemalloc.start()
        try:
            ev = CandidateEvaluator(SquaredExponential(1.0, 0.5), cands, 0.0, capacity=3,
                                    axes=axes)
            ev.fit(X[:2], f[:2])
            # the posterior's own arrays: everything else traced is a buffer
            kept = sum(a.nbytes for a in (ev._cross, ev._L, ev._X, ev._f, ev._z,
                                          ev._scov, ev._k0p, ev._mu))
            tracemalloc.reset_peak()
            ev.append(X[2], f[2])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert isinstance(ev._terms, engine._GridCross)
    # beyond the posterior, the evaluator and its append hold per-block buffers only
    assert peak - kept < full / 2
