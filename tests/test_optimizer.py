import numpy as np
import pytest

from multibo.acquisition import AcquisitionConfig
from multibo.engine import CandidateEvaluator
from multibo.errors import ConfigError, Exhausted, GridTooLarge, NonFinite
from multibo.kernels import SquaredExponential
from multibo.objectives import SyntheticBumps, griewank
from multibo.optimizer import (
    OptimizerConfig, _feasible_mask, generate_candidates, propose_next, run,
)
from multibo import acquisition, engine, gp


def base_config(**over):
    settings = dict(
        bounds=[(0.0, 1.0)],
        kernel=SquaredExponential(1.0, 0.1),
        acquisition=AcquisitionConfig("joint_ei", 0.3, 0.1),
        budget=10,
        min_distance=0.01,
        grid_counts=(50,),
        n_priors=3,
        seed=11,
    )
    settings.update(over)
    return OptimizerConfig(**settings)


def test_config_validation():
    with pytest.raises(ConfigError):
        base_config(bounds=[(1.0, 0.0)])
    with pytest.raises(ConfigError):
        base_config(budget=-1)
    with pytest.raises(ConfigError):
        base_config(grid_counts=None)  # no candidate mode at all
    with pytest.raises(ConfigError):
        base_config(grid_step=0.1)  # two candidate modes
    with pytest.raises(ConfigError):
        base_config(prior_points=[[2.0]])  # outside bounds
    with pytest.raises(ConfigError):
        base_config(prior_points=[[0.5], [0.5001]], min_distance=0.01)


def test_prior_points_follow_the_candidate_distance_rule():
    # 0.3 - 0.2 rounds below 0.1, yet the candidate mask calls it feasible
    pts = np.array([[0.2], [0.3]])
    assert _feasible_mask(pts[1:], pts[:1], 0.1)[0]
    cfg = base_config(prior_points=pts, min_distance=0.1, budget=1)
    assert np.array_equal(run(lambda x: float(x[0]), cfg).points("prior"), pts)


def test_config_rejects_empty_candidate_sets():
    for over in ({"grid_step": 0.0}, {"grid_step": -0.1}, {"random_candidates": 0}):
        with pytest.raises(ConfigError):
            base_config(grid_counts=None, **over)
    with pytest.raises(ConfigError):
        base_config(grid_counts=(0,))
    with pytest.raises(ConfigError):
        base_config(bounds=[(0.0, 1.0), (0.0, 1.0)], grid_counts=(5, 0))


def test_generate_candidates_grid_count():
    cfg = base_config(grid_counts=(200,))
    cands = generate_candidates(cfg)
    assert cands.shape == (200, 1)
    assert cands[0, 0] == 0.0 and cands[-1, 0] == 1.0
    assert np.all(np.diff(cands[:, 0]) > 0)


def test_generate_candidates_grid_step():
    cfg = OptimizerConfig(
        bounds=[(-5.0, 5.0), (-5.0, 5.0)],
        kernel=SquaredExponential(10.0, 0.1),
        acquisition=AcquisitionConfig("joint_pi", 1.0, 0.1),
        budget=1,
        grid_step=0.1,
    )
    cands = generate_candidates(cfg)
    assert cands.shape == (101 * 101, 2)


def test_generate_candidates_random_deterministic():
    cfg = base_config(grid_counts=None, random_candidates=64)
    a = generate_candidates(cfg, seed=5)
    b = generate_candidates(cfg, seed=5)
    assert np.array_equal(a, b)
    assert np.all((a >= 0.0) & (a <= 1.0))


def test_generate_candidates_too_large():
    cfg = OptimizerConfig(
        bounds=[(-5.0, 5.0)] * 4,
        kernel=SquaredExponential(1.0, 1.0),
        acquisition=AcquisitionConfig("joint_pi", 0.0, 0.1),
        budget=1,
        grid_step=0.1,
    )
    with pytest.raises(GridTooLarge):
        generate_candidates(cfg)


def test_propose_next_single_feasible():
    cfg = base_config(min_distance=0.2)
    state = gp.fit([[0.1], [0.5], [0.9]], [0.5, 1.0, 0.2], 0.0, cfg.kernel)
    candidates = np.array([[0.3], [0.52]])
    point, idx, val = propose_next(state, candidates, state.inputs, cfg)
    assert idx == 0 and point[0] == 0.3


def test_propose_next_exhausted():
    cfg = base_config(min_distance=10.0)
    state = gp.fit([[0.5]], [1.0], 0.0, cfg.kernel)
    with pytest.raises(Exhausted):
        propose_next(state, np.array([[0.4], [0.6]]), state.inputs, cfg)


def test_propose_next_plain_argmax_when_d_zero():
    cfg = base_config(min_distance=0.0)
    state = gp.fit([[0.2], [0.8]], [1.0, 0.4], 0.0, cfg.kernel)
    cands = generate_candidates(cfg)
    point, idx, val = propose_next(state, cands, state.inputs, cfg)
    ref = [acquisition.evaluate(state, c, cfg.acquisition) for c in cands]
    assert idx == int(np.argmax(ref))


def test_propose_next_scores_the_state_at_its_jitter():
    cfg = base_config(min_distance=0.0)  # default schedule starts at jitter 0
    X, y = [[0.2], [0.25], [0.8]], [1.0, 0.9, 0.4]
    state = gp.fit(X, y, 0.0, cfg.kernel, jitter_schedule=(1e-6,))
    cands = generate_candidates(cfg)
    _, idx, val = propose_next(state, cands, state.inputs, cfg)
    scores = {}
    for jitter in (1e-6, 0.0):
        ev = CandidateEvaluator(cfg.kernel, cands, 0.0, capacity=3, jitter_schedule=(jitter,))
        ev.fit(X, y)
        scores[jitter] = ev.acquisition_values(cfg.acquisition)[idx]
    assert scores[1e-6] != scores[0.0]
    assert val == scores[1e-6]


def test_propose_next_tie_breaks_to_lowest_index():
    # symmetric posterior around 0: candidates at -1 and +1 score identically
    cfg = OptimizerConfig(
        bounds=[(-2.0, 2.0)],
        kernel=SquaredExponential(1.0, 0.5),
        acquisition=AcquisitionConfig("joint_pi", 0.5, 0.2),
        budget=1,
        min_distance=0.0,
        grid_counts=(3,),
    )
    state = gp.fit([[0.0]], [1.0], 0.0, cfg.kernel)
    cands = np.array([[-1.0], [1.0]])
    point, idx, val = propose_next(state, cands, state.inputs, cfg)
    a = acquisition.evaluate(state, cands[0], cfg.acquisition)
    b = acquisition.evaluate(state, cands[1], cfg.acquisition)
    assert a == b
    assert idx == 0


def test_run_budget_zero_only_priors():
    cfg = base_config(budget=0)
    trace = run(SyntheticBumps(), cfg)
    assert len(trace.steps) == 3
    assert all(s.kind == "prior" for s in trace.steps)
    assert trace.termination == "budget"


def test_run_trace_invariants():
    cfg = base_config(budget=12, min_distance=0.05, grid_counts=(100,), seed=3)
    fn = SyntheticBumps()
    trace = run(fn, cfg)
    pts = trace.points()
    assert np.all(pts >= 0.0) and np.all(pts <= 1.0)
    assert trace.min_pairwise_distance() >= 0.05
    bo = trace.bo_steps()
    assert [s.step for s in bo] == list(range(1, len(bo) + 1))
    for s in bo:
        assert s.value == pytest.approx(float(fn(s.point)), rel=1e-12)
        assert s.acquisition is not None and np.isfinite(s.acquisition) and s.acquisition >= 0


def test_run_deterministic():
    cfg = base_config(budget=8, seed=21)
    fn = SyntheticBumps()
    t1 = run(fn, cfg)
    t2 = run(fn, cfg)
    assert len(t1.steps) == len(t2.steps)
    for a, b in zip(t1.steps, t2.steps):
        assert a.step == b.step and a.kind == b.kind
        assert np.array_equal(a.point, b.point)
        assert a.value == b.value and a.acquisition == b.acquisition
        assert a.flagged == b.flagged and a.distance == b.distance


def test_run_seed_changes_priors():
    fn = SyntheticBumps()
    t1 = run(fn, base_config(seed=1))
    t2 = run(fn, base_config(seed=2))
    assert not np.array_equal(t1.points("prior"), t2.points("prior"))


def test_run_exhausted_terminates_early():
    cfg = base_config(budget=50, min_distance=0.3, grid_counts=(30,), n_priors=2, seed=4)
    trace = run(SyntheticBumps(), cfg)
    assert trace.termination == "exhausted"
    assert len(trace.bo_steps()) < 50
    assert trace.min_pairwise_distance() >= 0.3


def test_run_rejects_non_finite_objective():
    cfg = base_config(budget=2)
    with pytest.raises(NonFinite):
        run(lambda x: float("nan"), cfg)


def _reference_flags(trace, cfg):
    """Check each BO step's flag against the one rebuilt from the scalar
    ``gp.joint_posterior`` on the samples up to and including that step, and
    return how many steps were checked: a step whose gradient norm lies
    within 1e-8 relative of epsilon is skipped, as rounding may put it on
    either side."""
    acq = cfg.acquisition
    points = trace.points()
    values = np.array([s.value for s in trace.steps])
    n_priors = len(trace.points("prior"))
    checked = 0
    for t, s in enumerate(trace.bo_steps(), 1):
        flag = not acq.uses_value or s.value >= acq.threshold
        if acq.uses_band:
            k = n_priors + t
            state = gp.fit(points[:k], values[:k], cfg.prior_mean, cfg.kernel,
                           jitter_schedule=(trace.jitter,))
            norm = np.linalg.norm(gp.joint_posterior(state, s.point).mean[1:])
            if abs(norm - acq.epsilon) <= 1e-8 * acq.epsilon:
                continue
            flag = flag and norm <= acq.epsilon
        assert s.flagged == flag, (acq.family, s.step)
        checked += 1
    return checked


def test_run_flags_require_family_conditions():
    # derivative-only flags ignore the threshold; value families require it;
    # the band families flag on the posterior gradient mean at the new sample
    fn = SyntheticBumps()
    checked = {}
    for family, threshold, epsilon in [("derivative_only", 0.0, 0.25), ("vanilla_pi", 0.6, 0.1),
                                       ("joint_pi", 0.6, 0.25), ("joint_ei", 0.6, 0.25)]:
        cfg = base_config(budget=15, acquisition=AcquisitionConfig(family, threshold, epsilon),
                          grid_counts=(100,), seed=8)
        trace = run(fn, cfg)
        # no refit raised the jitter, so every step's posterior is at this one
        assert trace.jitter == cfg.jitter_schedule[0]
        assert any(s.flagged for s in trace.bo_steps())
        for s in trace.flagged():
            assert s.kind == "bo"
            if cfg.acquisition.uses_value:
                assert s.value >= threshold
        checked[family] = _reference_flags(trace, cfg)
    assert checked == dict.fromkeys(checked, 15)


def test_run_distance_column_against_truths():
    from multibo.objectives import make_benchmark, nearest_distance

    bench = make_benchmark("synthetic1d")
    cfg = base_config(budget=5, seed=9)
    trace = run(bench.objective, cfg, truths=bench.ground_truth)
    for s in trace.steps:
        assert s.distance == pytest.approx(nearest_distance(bench.ground_truth, s.point), rel=1e-12)


def test_flagged_points_pairwise_distance():
    bench_cfg = base_config(budget=15, min_distance=0.05, grid_counts=(100,), seed=10,
                            acquisition=AcquisitionConfig("joint_ei", 0.3, 0.1))
    trace = run(SyntheticBumps(), bench_cfg)
    flagged = trace.flagged()
    for i in range(len(flagged)):
        for j in range(i + 1, len(flagged)):
            assert np.linalg.norm(flagged[i].point - flagged[j].point) >= 0.05


def test_engine_matches_scalar_acquisitions():
    rng = np.random.default_rng(0)
    cands = rng.uniform(-2, 2, (40, 2))
    X = rng.uniform(-2, 2, (6, 2))
    f = rng.standard_normal(6)
    kern = SquaredExponential(2.0, 0.5)
    ev = CandidateEvaluator(kern, cands, prior_mean=0.3, capacity=10)
    ev.fit(X[:5], f[:5])
    ev.append(X[5], f[5])
    state = ev.state()
    for family in ("joint_pi", "joint_ei", "vanilla_pi", "vanilla_ei", "derivative_only"):
        cfg = AcquisitionConfig(family, 0.2, 0.15)
        batch = ev.acquisition_values(cfg)
        for i in range(0, 40, 7):
            ref = acquisition.evaluate(state, cands[i], cfg)
            assert batch[i] == pytest.approx(ref, rel=1e-8, abs=1e-12)


def test_engine_append_matches_full_fit():
    rng = np.random.default_rng(1)
    cands = rng.uniform(-1, 1, (30, 1))
    X = rng.uniform(-1, 1, (7, 1))
    f = rng.standard_normal(7)
    kern = SquaredExponential(1.5, 0.3)
    inc = CandidateEvaluator(kern, cands, 0.0, capacity=8)
    inc.fit(X[:3], f[:3])
    for i in range(3, 7):
        inc.append(X[i], f[i])
    full = CandidateEvaluator(kern, cands, 0.0, capacity=8)
    full.fit(X, f)
    assert np.allclose(inc.posterior_mean(), full.posterior_mean(), atol=1e-9)
    for i in range(0, 30, 5):
        assert np.allclose(inc.joint_cov(i), full.joint_cov(i), atol=1e-9)

    # the mean is summed over appends: 40 of them on a 2-D grid, whose
    # separable kernel keeps per-axis factors, still match a fresh fit
    axes = [np.linspace(-2.0, 0.0, 21)] * 2
    cands = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 2)
    rng = np.random.default_rng(3)
    X = cands[rng.choice(len(cands), 43, replace=False)]
    f = rng.standard_normal(43)
    kern = SquaredExponential(10.0, 0.3)
    inc = CandidateEvaluator(kern, cands, 0.5, capacity=4, axes=axes)
    assert isinstance(inc._terms, engine._GridCross)
    inc.fit(X[:3], f[:3])
    for x, y in zip(X[3:], f[3:]):
        inc.append(x, y)
    full = CandidateEvaluator(kern, cands, 0.5, capacity=43, axes=axes)
    full.fit(X, f)
    assert inc.jitter == full.jitter == 0.0
    np.testing.assert_allclose(inc.posterior_mean(), full.posterior_mean(), rtol=0, atol=1e-9)
    np.testing.assert_allclose(inc._scov, full._scov, rtol=0, atol=1e-9)


def test_engine_duplicate_append_triggers_refit_with_jitter():
    cands = np.array([[0.0], [0.5]])
    kern = SquaredExponential(1.0, 0.4)
    ev = CandidateEvaluator(kern, cands, 0.0, capacity=4)
    ev.fit(np.array([[0.2]]), [1.0])
    ev.append(np.array([0.2]), 1.0)  # exact duplicate
    assert ev.n_samples == 2
    assert ev.jitter > 0.0


def test_engine_gradient_mean_matches_joint_posterior():
    # the flag's gradient mean at every candidate, on both cross-term forms,
    # after a fit and several appends
    rng = np.random.default_rng(2)
    X = rng.uniform(-1, 1, (8, 2))
    f = rng.standard_normal(8)
    kern = SquaredExponential(1.0, 0.5)
    axes = (np.linspace(-1, 1, 6), np.linspace(-0.8, 0.9, 7))
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    for cands, grid_axes, form in [(grid, axes, engine._GridCross),
                                   (rng.uniform(-1, 1, (40, 2)), None, engine._DenseCross)]:
        ev = CandidateEvaluator(kern, cands, 0.2, capacity=8, axes=grid_axes)
        assert isinstance(ev._terms, form)
        ev.fit(X[:4], f[:4])
        for x, y in zip(X[4:], f[4:]):
            ev.append(x, y)
        state = ev.state()
        for i, x in enumerate(cands):
            g = ev.gradient_mean_at(i)
            j = gp.joint_posterior(state, x)
            assert np.allclose(g, j.mean[1:], rtol=1e-10)
