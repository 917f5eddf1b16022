"""Incremental asks: ``propose_next`` on a growing history against fresh fits.

``propose_next`` keeps the last call's ``Session`` and tells it the new
samples when the next call extends it. Every answer must be the one a fresh
``CandidateEvaluator.fit`` on the same state gives: the same index (up to a
near tie) and an acquisition within the engine-vs-scalar tolerance of
``test_engine_scalar``. A call that changes the kernel, jitter, prior mean,
candidates or ``min_distance``, or whose samples or history do not extend
the last ones, starts a fresh session and gets the fresh fit's answer
exactly.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multibo import gp, optimizer
from multibo.acquisition import AcquisitionConfig
from multibo.engine import CandidateEvaluator
from multibo.errors import Exhausted
from multibo.kernels import Polynomial, SquaredExponential
from multibo.optimizer import OptimizerConfig, _feasible_mask, propose_next
from test_engine_scalar import ATOL, COND_ATOL, RTOL, SINGULAR_RTOL


@pytest.fixture(autouse=True)
def no_last_session(monkeypatch):
    monkeypatch.setattr(optimizer, "_last", None)


def _config(n, kernel, min_distance=0.05, family="joint_ei"):
    return OptimizerConfig(
        bounds=[(-1.0, 1.0)] * n, kernel=kernel,
        acquisition=AcquisitionConfig(family, 0.3, 0.4), budget=1,
        min_distance=min_distance, random_candidates=1,
    )


def _objective(x):
    return float(np.sum(np.sin(3.0 * x)) + 0.5 * np.cos(2.0 * x[0]))


def _fresh(state, cands, history, cfg):
    """Acquisition of a fresh fit on ``state``, -inf where infeasible."""
    ev = CandidateEvaluator(state.kernel, cands, state.prior_mean, capacity=state.n_samples,
                            jitter_schedule=(state.factor.jitter,))
    ev.fit(state.inputs, state.values)
    feasible = _feasible_mask(cands, history, cfg.min_distance)
    return np.where(feasible, ev.acquisition_values(cfg.acquisition), -np.inf)


def _tolerance(state, x, ref):
    """The engine-vs-scalar tolerance of ``test_engine_scalar`` at point ``x``."""
    cond_atol = COND_ATOL * np.linalg.cond(state.factor.lower) ** 2 * max(1.0, np.abs(state.values).max())
    tol = ATOL + cond_atol + RTOL * abs(ref)
    syy = gp.joint_posterior(state, x).sigma_yy
    eig = np.linalg.eigvalsh(syy)
    if eig[0] <= SINGULAR_RTOL * max(1.0, eig[-1]):
        tol += cond_atol * np.linalg.cond(syy)
    return tol


def _check_against_fresh(state, cands, history, cfg):
    """``propose_next`` against a fresh fit; returns the chosen index."""
    fresh = _fresh(state, cands, history, cfg)
    if not np.isfinite(fresh).any():
        with pytest.raises(Exhausted):
            propose_next(state, cands, history, cfg)
        return None
    point, idx, value = propose_next(state, cands, history, cfg)
    best = int(np.argmax(fresh))
    tol = max(_tolerance(state, cands[idx], fresh[idx]), _tolerance(state, cands[best], fresh[best]))
    assert np.array_equal(point, cands[idx])
    assert abs(value - fresh[idx]) <= tol, (value, fresh[idx], tol)
    # the same index, unless the two candidates tie within the tolerance
    assert idx == best or abs(fresh[idx] - fresh[best]) <= tol, (idx, best, fresh[idx], fresh[best])
    return idx


def _grow(kernel, cfg, cands, X, rounds, schedule):
    """Ask ``rounds`` times on a growing history, checking every ask."""
    y = [_objective(x) for x in X]
    for _ in range(rounds):
        state = gp.fit(np.asarray(X), np.asarray(y), 0.4, kernel, schedule)
        idx = _check_against_fresh(state, cands, np.asarray(X), cfg)
        if idx is None:
            return
        X.append(cands[idx].copy())
        y.append(_objective(cands[idx]))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), quadratic=st.booleans(), seed=st.integers(0, 2**16),
       family=st.sampled_from(["joint_ei", "joint_pi", "vanilla_ei", "derivative_only"]))
def test_incremental_asks_match_a_fresh_fit(n, quadratic, seed, family):
    rng = np.random.default_rng(seed)
    if quadratic:
        # the designs of test_engine_scalar, where its tolerance holds: above
        # n (n - 1) / 2 samples the posterior gradient block of the
        # homogeneous quadratic kernel is rank-deficient by construction
        n = max(n, 3)
        kernel = Polynomial(float(rng.uniform(0.5, 2.0)))
        rounds = n * (n - 1) // 2 - 1
    else:
        kernel = SquaredExponential(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.3, 1.0)))
        rounds = 9
    cands = rng.uniform(-1.0, 1.0, (40, n))
    X = list(rng.uniform(-1.0, 1.0, (2, n)))
    # two priors, then asks on 2, 3, ... samples: the session's capacity
    # doubles from 2 to 16 on the longest histories
    _grow(kernel, _config(n, kernel, family=family), cands, X, rounds, (0.0, 1e-10, 1e-8, 1e-6))


def test_asks_reuse_one_session_and_grow_it():
    kernel = SquaredExponential(1.5, 0.5)
    cfg = _config(3, kernel)
    rng = np.random.default_rng(5)
    cands = rng.uniform(-1.0, 1.0, (60, 3))
    X = list(rng.uniform(-1.0, 1.0, (3, 3)))
    _grow(kernel, cfg, cands, X, 1, (0.0,))
    session = optimizer._last[0]
    assert session.evaluator.capacity == 3
    _grow(kernel, cfg, cands, X, 6, (0.0,))
    assert optimizer._last[0] is session
    assert session.evaluator.n_samples == 9
    assert session.evaluator.capacity == 12


def test_near_duplicate_sample_takes_the_refit_fallback(monkeypatch):
    kernel = SquaredExponential(1.0, 0.5)
    cfg = _config(2, kernel, min_distance=0.0)
    rng = np.random.default_rng(7)
    cands = rng.uniform(-1.0, 1.0, (50, 2))
    X = rng.uniform(-1.0, 1.0, (4, 2))
    y = [_objective(x) for x in X]
    # a jitter below the append's breakdown floor, so the near-duplicate
    # refits inside the reused session instead of moving gp.fit's jitter
    schedule = (1e-14,)
    state = gp.fit(X, y, 0.4, kernel, schedule)
    propose_next(state, cands, X, cfg)
    session = optimizer._last[0]
    fits = []
    fit = CandidateEvaluator.fit
    monkeypatch.setattr(CandidateEvaluator, "fit", lambda ev, *a: fits.append(ev) or fit(ev, *a))
    X2 = np.vstack([X, X[1] + 1e-9])
    state2 = gp.fit(X2, y + [y[1]], 0.4, kernel, schedule)
    assert state2.factor.jitter == 1e-14
    _check_against_fresh(state2, cands, X2, cfg)
    assert optimizer._last[0] is session
    assert any(ev is session.evaluator for ev in fits)


def _session_after(change):
    """The session ``propose_next`` used after one call with a base state and
    one with ``change`` applied, and whether the second call's answer is the
    fresh fit's exactly."""
    kernel = SquaredExponential(1.2, 0.6)
    rng = np.random.default_rng(11)
    cands = rng.uniform(-1.0, 1.0, (50, 2))
    X = rng.uniform(-1.0, 1.0, (4, 2))
    y = np.array([_objective(x) for x in X])
    args = dict(kernel=kernel, cands=cands, X=X, y=y, history=X, prior_mean=0.4,
                schedule=(0.0,), cfg=_config(2, kernel))

    def call(a):
        state = gp.fit(a["X"], a["y"], a["prior_mean"], a["kernel"], a["schedule"])
        got = propose_next(state, a["cands"], a["history"], a["cfg"])
        fresh = _fresh(state, a["cands"], a["history"], a["cfg"])
        idx = int(np.argmax(fresh))
        return optimizer._last[0], got[1] == idx and got[2] == fresh[idx]

    first, _ = call(args)
    change(args)
    second, exact = call(args)
    return first is second, exact


@pytest.mark.parametrize("name,change", [
    ("kernel", lambda a: a.update(kernel=SquaredExponential(1.2, 0.61))),
    ("jitter", lambda a: a.update(schedule=(1e-8,))),
    ("prior mean", lambda a: a.update(prior_mean=0.5)),
    ("candidates", lambda a: a.update(cands=a["cands"] + 1e-3)),
    ("candidates edited in place", lambda a: a["cands"].__setitem__((7, 0), 0.25)),
    ("min_distance", lambda a: a.update(cfg=_config(2, a["kernel"], min_distance=0.1))),
    ("samples", lambda a: a.update(X=a["X"][::-1].copy(), y=a["y"][::-1].copy())),
    ("sample inputs", lambda a: a.update(X=a["X"] + 1e-9)),
    ("sample values", lambda a: a.update(y=a["y"] + 1e-9)),
    ("shorter history", lambda a: a.update(history=a["X"][1:])),
    ("other history", lambda a: a.update(history=a["X"] + 0.01)),
])
def test_a_changed_call_gets_a_fresh_session(name, change):
    reused, exact = _session_after(change)
    assert not reused, name
    assert exact, name


def test_an_extending_call_reuses_the_session():
    def extend(a):
        x = np.array([0.9, -0.9])
        a.update(X=np.vstack([a["X"], x]), y=np.append(a["y"], _objective(x)))
        a.update(history=np.vstack([a["X"], [[-0.9, 0.9]]]))

    reused, _ = _session_after(extend)
    assert reused


def test_a_call_takes_its_session_out_of_the_slot(monkeypatch):
    # while one call tells the session its new samples, another finds no session
    kernel = SquaredExponential(1.5, 0.5)
    cfg = _config(2, kernel)
    rng = np.random.default_rng(3)
    cands = rng.uniform(-1.0, 1.0, (30, 2))
    X = list(rng.uniform(-1.0, 1.0, (3, 2)))
    _grow(kernel, cfg, cands, X, 1, (0.0,))
    session = optimizer._last[0]
    slot = []
    append = CandidateEvaluator.append
    monkeypatch.setattr(CandidateEvaluator, "append",
                        lambda ev, *a: slot.append(optimizer._last) or append(ev, *a))
    _grow(kernel, cfg, cands, X, 1, (0.0,))
    assert slot == [None]
    assert optimizer._last[0] is session


def test_concurrent_asks_never_share_a_session():
    # every thread asks along the same growing history, so each call could
    # resume the session another thread is telling
    kernel = SquaredExponential(1.5, 0.5)
    cfg = _config(2, kernel)
    rng = np.random.default_rng(99)
    cands = rng.uniform(-1.0, 1.0, (80, 2))
    X = list(rng.uniform(-1.0, 1.0, (2, 2)))
    y = [_objective(x) for x in X]
    states, expected = [], []
    for _ in range(6):
        state = gp.fit(np.asarray(X), np.asarray(y), 0.4, kernel, (0.0,))
        idx = int(np.argmax(_fresh(state, cands, np.asarray(X), cfg)))
        states.append((state, np.asarray(X)))
        expected.append(idx)
        X.append(cands[idx])
        y.append(_objective(cands[idx]))
    got = [[] for _ in range(6)]

    def work(j):
        for _ in range(4):
            for state, history in states:
                got[j].append(propose_next(state, cands, history, cfg)[1])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(j,)) for j in range(len(got))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [expected * 4] * len(got)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), quadratic=st.booleans(), grid=st.booleans(),
       k=st.integers(3, 11), seed=st.integers(0, 2**16))
def test_growth_keeps_the_posterior(n, quadratic, grid, k, seed):
    """An evaluator grown from capacity 1 ends bit-identical to one allocated
    for every sample, also when the last append fills the grown capacity
    (k = 4 or 8)."""
    rng = np.random.default_rng(seed)
    kernel = Polynomial(1.3) if quadratic else SquaredExponential(1.4, 0.6)
    axes = [np.linspace(-1.0, 1.0, 5)] * n if grid else None
    cands = optimizer.generate_candidates(OptimizerConfig(
        bounds=[(-1.0, 1.0)] * n, kernel=kernel, acquisition=AcquisitionConfig("joint_ei", 0.0, 0.1),
        budget=1, grid_counts=(5,) * n)) if grid else rng.uniform(-1.0, 1.0, (40, n))
    X = rng.uniform(-1.0, 1.0, (k, n))
    f = rng.standard_normal(k)
    evs = []
    for capacity in (1, k + 1):
        ev = CandidateEvaluator(kernel, cands, 0.1, capacity=capacity,
                                jitter_schedule=(1e-6,), axes=axes)
        ev.fit(X[:1], f[:1])
        for x, y in zip(X[1:], f[1:]):
            ev.append(x, y)
        evs.append(ev)
    grown, allocated = evs
    assert grown.capacity == (16 if k > 8 else 8 if k > 4 else 4)
    np.testing.assert_array_equal(grown.posterior_mean(), allocated.posterior_mean())
    for i in range(0, len(cands), 7):
        np.testing.assert_array_equal(grown.joint_cov(i), allocated.joint_cov(i))
    np.testing.assert_array_equal(grown.state().factor.lower, allocated.state().factor.lower)
