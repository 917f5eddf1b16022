"""The blocked candidate sweep, capacity, the memory preflight and the
feasibility mask."""

import multiprocessing
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multibo import engine, objectives, optimizer
from multibo.acquisition import AcquisitionConfig, packed_pairs
from multibo.engine import CandidateEvaluator
from multibo.errors import GridTooLarge, MultiboError
from multibo.kernels import Polynomial, SquaredExponential
from test_acquisition import diagonal_fallback

FAMILIES = ("joint_pi", "joint_ei", "vanilla_pi", "vanilla_ei", "derivative_only")
_DEFAULT_CHUNK = engine._CHUNK
_rebuild_scov = CandidateEvaluator._rebuild_scov


def _rebuild_in_default_blocks(evaluator):
    # the rebuild of the covariances and the mean in a (re)fit blocks its
    # triangular solves by _CHUNK too, and their rounding depends on the
    # block bounds; holding it at the default isolates the sweep
    with mock.patch.object(engine, "_CHUNK", _DEFAULT_CHUNK):
        _rebuild_scov(evaluator)


def _evaluate(kernel, cands, X, f, duplicate, chunk, axes=None):
    """Fit on two samples, append the rest (and a duplicate), then read every
    output; the evaluator's sweeps run in blocks of ``chunk`` rows. ``axes``
    are the grid axes of the candidates, if they form one."""
    with mock.patch.object(engine, "_CHUNK", chunk), \
            mock.patch.object(CandidateEvaluator, "_rebuild_scov", _rebuild_in_default_blocks):
        ev = CandidateEvaluator(kernel, cands, 0.25, capacity=len(X) + 1, axes=axes)
        try:
            ev.fit(X[:2], f[:2])
            for x, y in zip(X[2:], f[2:]):
                ev.append(x, y)
            if duplicate:
                ev.append(X[0], f[0])  # exact duplicate: takes the refit path
        except MultiboError as exc:
            return type(exc)
        out = {"mean": ev.posterior_mean().copy()}
        out["cov"] = np.array([ev.joint_cov(i) for i in range(len(cands))])
        for family in FAMILIES:
            out[family] = ev.acquisition_values(AcquisitionConfig(family, 0.2, 0.3)).copy()
        return out


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 4),
    polynomial=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    n_cands=st.integers(2, 30),
    n_samples=st.integers(2, 6),
    on_samples=st.integers(0, 3),
    duplicate=st.booleans(),
    chunk=st.integers(1, 7),
    grid=st.booleans(),
)
def test_blocked_sweep_matches_single_block(n, polynomial, seed, n_cands, n_samples,
                                            on_samples, duplicate, chunk, grid):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (n_samples, n))
    f = rng.standard_normal(n_samples)
    axes = None
    if grid:
        # a tensor grid of about n_cands points, blocks cutting across its rows
        axes = [np.sort(rng.uniform(-1.0, 1.0, c)) for c in rng.integers(1, 5, n)]
        cands = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, n)
        placed = min(on_samples, n_samples, len(cands))
        X[:placed] = cands[:placed]  # samples sitting on candidates
    else:
        cands = rng.uniform(-1.0, 1.0, (n_cands, n))
        placed = min(on_samples, n_samples, n_cands)
        cands[:placed] = X[:placed]  # candidates sitting on samples
    kernel = Polynomial(1.5) if polynomial else SquaredExponential(2.0, 0.6)
    single = _evaluate(kernel, cands, X, f, duplicate, _DEFAULT_CHUNK, axes)
    blocked = _evaluate(kernel, cands, X, f, duplicate, chunk, axes)
    if not isinstance(single, dict):
        assert blocked is single
        return
    for key, want in single.items():
        np.testing.assert_allclose(blocked[key], want, rtol=1e-12, atol=0.0, err_msg=key)


def test_sweep_with_more_workers_than_cores_matches_single_block():
    rng = np.random.default_rng(5)
    X, f = rng.uniform(-1.0, 1.0, (8, 3)), rng.standard_normal(8)
    axes = [np.linspace(-1.0, 1.0, c) for c in (4, 5, 6)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3)
    # random candidates keep the dense cache; the grid takes per-axis factors
    for cands, grid_axes in ((rng.uniform(-1.0, 1.0, (200, 3)), None), (grid, axes)):
        want = _evaluate(SquaredExponential(2.0, 0.6), cands, X, f, False, _DEFAULT_CHUNK, grid_axes)
        interval = sys.getswitchinterval()
        with ThreadPoolExecutor(8) as pool, mock.patch.object(engine, "_pool", pool):
            sys.setswitchinterval(1e-6)
            try:
                got = _evaluate(SquaredExponential(2.0, 0.6), cands, X, f, False, 3, grid_axes)
            finally:
                sys.setswitchinterval(interval)
        for key in want:
            np.testing.assert_array_equal(got[key], want[key], err_msg=key)


def _evaluate_in_child(conn, *args):
    conn.send(_evaluate(*args))
    conn.close()


def test_a_forked_child_gets_a_fresh_pool():
    rng = np.random.default_rng(6)
    args = (SquaredExponential(2.0, 0.6), rng.uniform(-1.0, 1.0, (20, 2)),
            rng.uniform(-1.0, 1.0, (4, 2)), rng.standard_normal(4), False, 3)
    want = _evaluate(*args)  # the parent's pool exists from here on
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_evaluate_in_child, args=(send, *args))
    child.start()
    try:
        assert receive.poll(60), "the child's sweep never finished"
        got = receive.recv()
        for key in want:
            np.testing.assert_array_equal(got[key], want[key], err_msg=key)
    finally:
        child.kill()
        child.join(10)
    assert not child.is_alive()


def test_n4_gradient_solve_does_not_depend_on_the_block_size():
    rng = np.random.default_rng(3)
    cands = rng.uniform(-1.0, 1.0, (12, 4))
    ev = CandidateEvaluator(SquaredExponential(2.0, 0.6), cands, 0.0, capacity=5)
    ev.fit(rng.uniform(-1.0, 1.0, (5, 4)), rng.standard_normal(5))
    # an exactly singular gradient block at candidate 0, which takes the
    # diagonal fallback while the other candidates are solved exactly
    pairs = packed_pairs(4)
    for i in range(4):
        for j in range(i, 4):
            ev._scov[pairs.index((1 + i, 1 + j)), 0] = \
                1.0 if (i == j or (i, j) == (0, 1)) else 0.0
    cfg = AcquisitionConfig("joint_ei", 0.2, 0.3)
    want = ev.acquisition_values(cfg).copy()
    with mock.patch.object(engine, "_CHUNK", 3):
        got = ev.acquisition_values(cfg)
    np.testing.assert_array_equal(got, want)
    _, _, fallback = diagonal_fallback(ev.posterior_mean()[0], ev.joint_cov(0), cfg)
    assert want[0] == pytest.approx(fallback, rel=1e-12)


def _filled(kernel, cands, X, f, capacity, fitted):
    """An evaluator at ``capacity`` fitted on the first ``fitted`` samples
    and told the rest one by one."""
    ev = CandidateEvaluator(kernel, cands, 0.25, capacity=capacity)
    ev.fit(X[:fitted], f[:fitted])
    for x, y in zip(X[fitted:], f[fitted:]):
        ev.append(x, y)
    return ev


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kernel", [SquaredExponential(2.0, 0.6), Polynomial(1.3)],
                         ids=["se", "quadratic"])
def test_outputs_do_not_depend_on_the_capacity(kernel, n):
    # the factor fills its capacity exactly at k = 6 and is half full at 12,
    # by a fit of all six samples and by appends after a fit of two
    rng = np.random.default_rng(n)
    cands = rng.uniform(-1.0, 1.0, (15, n))
    X, f = rng.uniform(-1.0, 1.0, (6, n)), rng.standard_normal(6)
    for fitted in (6, 2):
        full, half = (_filled(kernel, cands, X, f, capacity, fitted) for capacity in (6, 12))
        np.testing.assert_array_equal(full.state().alpha_vec, half.state().alpha_vec)
        np.testing.assert_array_equal(full.posterior_mean(), half.posterior_mean())
        np.testing.assert_array_equal(full._scov, half._scov)
        for family in FAMILIES:
            cfg = AcquisitionConfig(family, 0.2, 0.3)
            np.testing.assert_array_equal(full.acquisition_values(cfg),
                                          half.acquisition_values(cfg), err_msg=family)


def test_evaluator_refuses_a_capacity_beyond_physical_memory():
    # the estimate is ~8e24 bytes; nothing that large is ever allocated
    with pytest.raises(GridTooLarge, match=r"need about \d+ bytes; .* has \d+ bytes"):
        CandidateEvaluator(SquaredExponential(1.0, 1.0), np.zeros((10, 2)), 0.0,
                           capacity=10**12)


def test_feasible_mask_matches_pairwise_distances():
    rng = np.random.default_rng(4)
    # grid step equal to the minimum distance: neighbours sit exactly at d
    axis = np.linspace(0.0, 1.0, 11)
    cands = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
    points = np.vstack([cands[rng.integers(0, len(cands), 5)], rng.uniform(0, 1, (3, 2))])
    dist = np.linalg.norm(cands[:, None, :] - points[None, :, :], axis=-1)
    want = np.all(dist >= 0.1 * (1.0 - 1e-9), axis=1)
    with mock.patch.object(optimizer, "_CHUNK", 17):
        got = optimizer._feasible_mask(cands, points, 0.1)
    np.testing.assert_array_equal(got, want)
    assert optimizer._feasible_mask(cands, points, 0.0).all()
    assert optimizer._feasible_mask(cands, np.empty((0, 2)), 0.1).all()


def test_synthetic_benchmark_is_built_once_per_bump_list():
    assert objectives.make_benchmark("synthetic1d") is objectives.make_benchmark("synthetic1d")
    listed = objectives.synthetic_benchmark([[0.9, 0.4, 0.05], [0.5, 0.8, 0.05]])
    tupled = objectives.synthetic_benchmark(((0.9, 0.4, 0.05), (0.5, 0.8, 0.05)))
    assert listed is tupled
    assert len(listed.ground_truth) == 2
