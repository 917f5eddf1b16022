"""The blocked candidate sweep, the pruned masked acquisition, the BLAS
thread pin, the pipelined rebuild, capacity, the memory preflight, the
feasibility mask and what ``import multibo`` loads."""

import ctypes.util
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist

from multibo import acquisition, engine, objectives, optimizer
from multibo.acquisition import AcquisitionConfig, packed_pairs
from multibo.engine import CandidateEvaluator
from multibo.errors import GridTooLarge, MultiboError, NonFinite
from multibo.kernels import Polynomial, SquaredExponential
from test_acquisition import diagonal_fallback
from test_grid_terms import run_now

FAMILIES = ("joint_pi", "joint_ei", "vanilla_pi", "vanilla_ei", "derivative_only")
_DEFAULT_SWEEP = engine._SWEEP


def _evaluate(kernel, cands, X, f, duplicate, chunk, axes=None):
    """Fit on two samples, append the rest (and a duplicate), then read every
    output; the evaluator's sweeps run in blocks of ``chunk`` rows. ``axes``
    are the grid axes of the candidates, if they form one."""
    with mock.patch.object(engine, "_SWEEP", chunk):
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
    single = _evaluate(kernel, cands, X, f, duplicate, _DEFAULT_SWEEP, axes)
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
        want = _evaluate(SquaredExponential(2.0, 0.6), cands, X, f, False, _DEFAULT_SWEEP, grid_axes)
        interval = sys.getswitchinterval()
        with ThreadPoolExecutor(8) as pool, mock.patch.object(engine, "_pool", pool):
            sys.setswitchinterval(1e-6)
            try:
                got = _evaluate(SquaredExponential(2.0, 0.6), cands, X, f, False, 3, grid_axes)
            finally:
                sys.setswitchinterval(interval)
        for key in want:
            np.testing.assert_array_equal(got[key], want[key], err_msg=key)


def _masked_full(ev, cfg, mask):
    return np.where(mask, ev.acquisition_values(cfg), -np.inf)


def _assert_pruned_matches(got, full, mask):
    """``got`` from the pruned path: the argmax and its value are the full
    sweep's, every other value it keeps is exact, and the rest are -inf."""
    best = int(np.argmax(full))
    assert int(np.argmax(got)) == best
    np.testing.assert_array_equal(got[best], full[best])
    kept = got > -np.inf
    assert not kept[~mask].any()
    np.testing.assert_array_equal(got[kept], full[kept])


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 4),
    grid=st.booleans(),
    family=st.sampled_from(("joint_pi", "joint_ei", "derivative_only")),
    seed=st.integers(0, 2**32 - 1),
    chunks=st.lists(st.integers(2, 12), min_size=2, max_size=2),
    density=st.floats(0.05, 1.0),
    tie=st.booleans(),
    single=st.booleans(),
    gather=st.integers(1, 8),
)
def test_pruned_acquisition_matches_the_full_sweep(n, grid, family, seed, chunks, density,
                                                   tie, single, gather):
    rng = np.random.default_rng(seed)
    X, f = rng.uniform(-1.0, 1.0, (6, n)), rng.standard_normal(6)
    axes = None
    if grid:
        axes = [np.sort(rng.uniform(-1.0, 1.0, math.ceil(40 ** (1 / n)))) for _ in range(n)]
        cands = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, n)
    else:
        cands = rng.uniform(-1.0, 1.0, (40, n))
    N = len(cands)
    ev = CandidateEvaluator(SquaredExponential(2.0, 0.6), cands, 0.25, capacity=6, axes=axes)
    ev.fit(X[:2], f[:2])
    for x, y in zip(X[2:], f[2:]):
        ev.append(x, y)
    mask = rng.random(N) < density
    if single or not mask.any():
        mask[:] = False
        mask[rng.integers(N)] = True
    cfg = AcquisitionConfig(family, 0.2, 0.3)
    if tie and mask.sum() > 1:
        # an exact tie at the maximum: another feasible candidate takes the
        # winner's posterior, and the lower index must win
        best = int(np.argmax(_masked_full(ev, cfg, mask)))
        other = int(rng.choice(np.flatnonzero(mask & (np.arange(N) != best))))
        ev._mu[:, other], ev._scov[:, other] = ev._mu[:, best], ev._scov[:, best]
        assert int(np.argmax(_masked_full(ev, cfg, mask))) == min(best, other)
    full = _masked_full(ev, cfg, mask)
    results = []
    for chunk in chunks:
        # survivors and exact factors are gathered in sub-blocks of ``gather``
        with mock.patch.object(engine, "_SWEEP", chunk), \
                mock.patch.object(acquisition, "GATHER", gather):
            got = ev.acquisition_values(cfg, mask)
        _assert_pruned_matches(got, full, mask)
        results.append(got)
    # which candidates are pruned depends on the blocks, not on the workers
    interval = sys.getswitchinterval()
    with ThreadPoolExecutor(8) as pool, mock.patch.object(engine, "_pool", pool), \
            mock.patch.object(engine, "_SWEEP", chunks[-1]):
        sys.setswitchinterval(1e-6)
        try:
            crowded = ev.acquisition_values(cfg, mask)
        finally:
            sys.setswitchinterval(interval)
    np.testing.assert_array_equal(crowded, results[-1])


def test_pruned_acquisition_reads_minus_inf_without_a_feasible_candidate():
    rng = np.random.default_rng(9)
    ev = CandidateEvaluator(SquaredExponential(2.0, 0.6), rng.uniform(-1.0, 1.0, (30, 2)), 0.0,
                            capacity=3)
    ev.fit(rng.uniform(-1.0, 1.0, (3, 2)), rng.standard_normal(3))
    with mock.patch.object(engine, "_SWEEP", 4):
        got = ev.acquisition_values(AcquisitionConfig("joint_ei", 0.2, 0.3), np.zeros(30, bool))
    assert (got == -np.inf).all()


# where the NaN goes, per family: the value mean (row 0 of the mean), a
# gradient mean, or the packed S_xy entry of the first gradient component,
# which the band does not read; derivative_only reads the gradient mean alone
NAN_AT = [(family, name, row) for family, gradient_row in
          (("joint_ei", 1), ("joint_pi", 1), ("derivative_only", 2))
          for name, row in (("_mu", 0), ("_mu", gradient_row), ("_scov", 1))]


@pytest.mark.parametrize("chunk", [_DEFAULT_SWEEP, 7], ids=["full", "pruned"])
@pytest.mark.parametrize("family, name, row", NAN_AT, ids=[
    f"{family}-{row}" if name == "_mu" else f"{family}-packed{row}" for family, name, row in NAN_AT])
def test_ask_names_a_nan_acquisition(chunk, family, name, row):
    rng = np.random.default_rng(8)
    cands = rng.uniform(-1.0, 1.0, (40, 2))
    X = rng.uniform(-1.0, 1.0, (4, 2))
    cfg = AcquisitionConfig(family, 0.2, 0.3)
    with mock.patch.object(engine, "_SWEEP", chunk):
        session = optimizer.Session(SquaredExponential(2.0, 0.6), cands, 0.25, 0.0,
                                    capacity=4, jitter_schedule=(0.0,))
        session.fit(X, rng.standard_normal(4), X)
        getattr(session.evaluator, name)[row, 23] = np.nan
        full = session.evaluator.acquisition_values(cfg)
        reads = family != "derivative_only" or (name, row) == ("_mu", 2)
        assert np.isnan(full[23]) == reads
        if reads:
            with pytest.raises(NonFinite, match="NaN at candidate 23"):
                session.ask(cfg)
        else:
            assert session.ask(cfg) == (int(np.argmax(full)), full.max())


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


# the thread count of every OpenBLAS loaded after ``import multibo``
BLAS_THREADS = """
import ctypes, json
import multibo
with open("/proc/self/maps", encoding="utf-8") as fh:
    paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
counts = {}
for path in paths:
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads"):
        getter = getattr(ctypes.CDLL(path), symbol, None)
        if getter is not None:
            getter.restype = ctypes.c_int
            counts[path] = getter()
            break
print(json.dumps(counts))
"""


def test_importing_multibo_pins_every_openblas_to_one_thread():
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", BLAS_THREADS], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    counts = json.loads(proc.stdout)
    if not counts:
        pytest.skip("no OpenBLAS with a thread-count getter is loaded")
    assert counts == {path: 1 for path in counts}


# import multibo, a budget-2 compare and building the Griewank (2-5 D) and
# Shubert registries load neither module; prints each registry's maxima count
SCIPY_UNUSED = """
import sys
from pathlib import Path
import multibo
from multibo import harness
unused = ("scipy.optimize", "scipy.spatial")
assert not [m for m in unused if m in sys.modules], "loaded by import multibo"
cfg = Path(sys.argv[1])
lines = [line for line in cfg.read_text().splitlines() if not line.startswith("budget")]
cfg = Path(sys.argv[2]) / "compare.cfg"
cfg.write_text("\\n".join(lines + ["budget = 2"]) + "\\n")
assert harness.main(["compare", str(cfg), "--out", sys.argv[2] + "/out"]) == 0
assert not [m for m in unused if m in sys.modules], "loaded by multibo compare"
specs = [multibo.make_benchmark("griewank", dimension=d) for d in (2, 3, 4, 5)]
specs.append(multibo.make_benchmark("shubert"))
assert not [m for m in unused if m in sys.modules], "loaded by a registry"
print(*[len(spec.ground_truth) for spec in specs])
"""


def test_no_run_or_registry_loads_scipy_optimize_or_spatial(tmp_path):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cfg = Path(__file__).resolve().parent.parent / "configs" / "synthetic1d_compare.cfg"
    proc = subprocess.run([sys.executable, "-c", SCIPY_UNUSED, str(cfg), str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # the registries certified their maxima without a local search
    assert proc.stdout.strip().splitlines()[-1] == "4 4 4 4 5"


def test_the_blas_pin_leaves_libraries_without_a_setter_alone(capfd):
    # the C maths library exports no OpenBLAS setter
    engine._pin_blas([ctypes.util.find_library("m")])
    engine._pin_blas([])
    assert capfd.readouterr() == ("", "")


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
    with mock.patch.object(engine, "_SWEEP", 3):
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


@pytest.mark.parametrize("k, capacity", [(1, 1), (1, 4), (6, 6), (6, 9)])
def test_triangular_solves_match_scipy(k, capacity):
    # the factor's slice is C-contiguous at capacity and strided below it
    rng = np.random.default_rng(k + capacity)
    full = np.zeros((capacity, capacity))
    full[:k, :k] = np.tril(rng.uniform(0.5, 1.5, (k, k)))
    L, b = full[:k, :k], rng.standard_normal(k)
    np.testing.assert_array_equal(engine._trtrs(L.T, b, lower=0, trans=1),
                                  solve_triangular(L, b, lower=True))
    F = np.asfortranarray(L)
    np.testing.assert_array_equal(engine._trtrs(F, b, lower=1, trans=1),
                                  solve_triangular(F, b, lower=True, trans="T"))
    # a rebuild chunk's right-hand sides: the rows of (rows, 1 + n, k) kernel rows
    rhs = rng.standard_normal((7, 3, k)).reshape(-1, k).T
    np.testing.assert_array_equal(engine._trtrs(L.T, rhs, lower=0, trans=1),
                                  solve_triangular(L, rhs, lower=True))
    full[k - 1, k - 1] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        engine._trtrs(L.T, b, lower=0, trans=1)


@pytest.mark.parametrize("x, y", [((np.nan, 0.1), 0.5), ((0.2, np.inf), 0.5), ((0.2, 0.1), np.nan),
                                  ((0.2, 0.1), -np.inf)])
def test_append_rejects_a_non_finite_point_or_value(x, y):
    rng = np.random.default_rng(2)
    ev = CandidateEvaluator(SquaredExponential(2.0, 0.6), rng.uniform(-1.0, 1.0, (30, 2)), 0.0,
                            capacity=3)
    ev.fit(rng.uniform(-1.0, 1.0, (3, 2)), rng.standard_normal(3))
    mean, scov = ev.posterior_mean().copy(), ev._scov.copy()
    with pytest.raises(ValueError, match="finite"):
        ev.append(np.array(x), y)
    # nothing changed, not even the capacity
    assert (ev.n_samples, ev.capacity) == (3, 3)
    np.testing.assert_array_equal(ev.posterior_mean(), mean)
    np.testing.assert_array_equal(ev._scov, scov)
    if not np.isfinite(y):
        with pytest.raises(ValueError, match="finite"):
            ev.fit(np.array([x, (0.5, 0.5)]), [0.1, y])


def test_prior_blocks_are_packed_block_by_block():
    # the quadratic kernel's prior blocks differ by candidate; built for
    # every candidate at once, they would be a transient of (1 + n)^2
    # doubles per candidate, which the memory preflight does not count
    n = 3
    cands = np.random.default_rng(7).uniform(-1.0, 1.0, (4 * engine._CHUNK, n))
    tracemalloc.start()
    try:
        ev = CandidateEvaluator(Polynomial(1.3), cands, 0.0, capacity=2)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block's dense blocks, and the kernel's temporaries for them
    assert peak - kept <= 2 * engine._CHUNK * (1 + n) ** 2 * 8
    k0 = Polynomial(1.3).joint_blocks_batch(cands)
    np.testing.assert_array_equal(ev._k0p, [k0[:, i, j] for i, j in packed_pairs(n)])


def _recording(cls, name, calls):
    """``cls.name`` wrapped to log the calling thread's id under ``name``."""
    original = getattr(cls, name)

    def record(*args, **kwargs):
        calls.append((name, threading.get_ident()))
        return original(*args, **kwargs)

    return record


@pytest.mark.parametrize("axes_count", [None, 41], ids=["dense", "grid"])
@mock.patch.object(engine, "_CHUNK", 100)
def test_a_multi_chunk_fit_calls_the_kernel_matrices_from_the_calling_thread(axes_count):
    # 41^2 = 1,681 or 1,700 random candidates: 17 chunks of at most 100,
    # conditioned by more workers than cores, which hand over the GIL often
    n, rng = 2, np.random.default_rng(11)
    axes = None if axes_count is None else [np.linspace(-1.0, 1.0, axes_count)] * n
    cands = (rng.uniform(-1.0, 1.0, (1_700, n)) if axes is None
             else np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, n))
    X, f = rng.uniform(-1.0, 1.0, (6, n)), rng.standard_normal(6)
    kernel = SquaredExponential(1.2, 0.4)
    serial = CandidateEvaluator(kernel, cands, 0.1, capacity=6, axes=axes)
    with mock.patch.object(engine, "_executor", lambda: SimpleNamespace(map=map, submit=run_now)):
        serial.fit(X, f)
    calls = []
    interval = sys.getswitchinterval()
    with ThreadPoolExecutor(8) as pool, mock.patch.object(engine, "_pool", pool), \
            mock.patch.object(engine, "_workers", lambda: 8), \
            mock.patch.object(SquaredExponential, "eval_matrix",
                              _recording(SquaredExponential, "eval_matrix", calls)), \
            mock.patch.object(SquaredExponential, "grad_tensor",
                              _recording(SquaredExponential, "grad_tensor", calls)), \
            mock.patch.object(engine, "_trtrs", _recording(engine, "_trtrs", calls)):
        ev = CandidateEvaluator(kernel, cands, 0.1, capacity=6, axes=axes)
        sys.setswitchinterval(1e-6)
        try:
            ev.fit(X, f)
        finally:
            sys.setswitchinterval(interval)
    here = threading.get_ident()
    assert [name for name, _ in calls].count("grad_tensor") == 17
    assert all(thread == here for name, thread in calls if name != "_trtrs")
    # the 17 chunks' solves ran on the pool, z's on this thread, and gave the
    # serial loop's bits
    solves = [thread for name, thread in calls if name == "_trtrs"]
    assert (len(solves), solves.count(here)) == (18, 1)
    np.testing.assert_array_equal(ev._scov, serial._scov)
    np.testing.assert_array_equal(ev._mu, serial._mu)


def _slow_solve(*args, _trtrs=engine._trtrs, **kwargs):
    # the pool falls behind the thread that builds the chunks
    time.sleep(0.02)
    return _trtrs(*args, **kwargs)


@mock.patch.object(engine, "_CHUNK", 2_000)
@mock.patch.object(engine, "_trtrs", _slow_solve)
def test_a_multi_chunk_refit_keeps_at_most_one_chunk_per_worker_alive():
    n, k = 3, 40
    rng = np.random.default_rng(12)
    X, f = rng.uniform(-1.0, 1.0, (k, n)), rng.standard_normal(k)

    def transient(n_cand):
        ev = CandidateEvaluator(SquaredExponential(1.0, 0.5), rng.uniform(-1.0, 1.0, (n_cand, n)),
                                0.0, capacity=k)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            ev.fit(X, f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - before

    one = transient(engine._CHUNK)
    # a chunk's kernel rows and their solve, the bulk of its transient
    assert one >= 2 * engine._CHUNK * (1 + n) * k * 8
    assert transient(8 * engine._CHUNK) <= engine._workers() * one


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
    got = optimizer._feasible_mask(cands, points, 0.1)
    np.testing.assert_array_equal(got, want)
    assert optimizer._feasible_mask(cands, points, 0.0).all()
    assert optimizer._feasible_mask(cands, np.empty((0, 2)), 0.1).all()


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 5), m=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
       d=st.sampled_from([0.005, 0.1, 0.25, 0.3, 1.0]) | st.floats(1e-3, 2.0))
def test_feasible_mask_matches_cdist_bit_for_bit(n, m, seed, d):
    rng = np.random.default_rng(seed)
    # grid points at spacing exactly d, history on and off the grid
    grid = rng.uniform(-1.0, 1.0, n) + d * rng.integers(-3, 4, (200, n))
    points = np.where(rng.random((m, 1)) < 0.5, grid[rng.integers(0, len(grid), m)],
                      rng.uniform(-1.0, 1.0, (m, n)))
    # candidates exactly d from a point along one axis, and on the rule's
    # cut along a random direction, where the order of the sum decides
    shifted = points.copy()
    shifted[np.arange(m), rng.integers(0, n, m)] += d
    u = rng.standard_normal((m, n))
    on_cut = points + u / np.linalg.norm(u, axis=1, keepdims=True) * d * math.sqrt(1.0 - 1e-9)
    cands = np.vstack([grid, points, shifted, on_cut, rng.uniform(-1.0, 1.0, (100, n))])
    want = np.all(cdist(cands, points, "sqeuclidean") >= d * d * (1.0 - optimizer._DIST_RTOL),
                  axis=1)
    np.testing.assert_array_equal(optimizer._feasible_mask(cands, points, d), want)


def test_synthetic_benchmark_is_built_once_per_bump_list():
    assert objectives.make_benchmark("synthetic1d") is objectives.make_benchmark("synthetic1d")
    listed = objectives.synthetic_benchmark([[0.9, 0.4, 0.05], [0.5, 0.8, 0.05]])
    tupled = objectives.synthetic_benchmark(((0.9, 0.4, 0.05), (0.5, 0.8, 0.05)))
    assert listed is tupled
    assert len(listed.ground_truth) == 2
