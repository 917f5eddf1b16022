"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-3 execute the bundled experiment configurations end to end and
check how many distinct ground-truth maxima the run flags (a maximum counts
as located when a flagged step lies within the stated radius of it).
Criterion 4 checks the joint-vs-vanilla orderings over ten seeds, criterion
5 the ablation contrasts, criterion 6 bundles the fast property checks, and
criterion 7 drives the sensitivity sweeps end to end.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from make_selection_fixtures import FIXTURES, GRID3D_FULL, selection_lines
from reports import read_report
from multibo import gp, harness, metrics, numerics, traceio
from multibo.acquisition import AcquisitionConfig, condition_value_on_gradient, score
from multibo.kernels import Polynomial, SquaredExponential
from multibo.objectives import make_benchmark
from multibo.optimizer import OptimizerConfig, run

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"

DIST_EPS = 1e-9  # grid coordinates are binary floats; distances match d to 1 ulp


def located_maxima(trace, truths, radius, min_value=None):
    """Distinct truth indices with a flagged step within ``radius`` (and at
    least ``min_value`` observed, when given)."""
    hit = {}
    for rec in trace.flagged():
        d = np.linalg.norm(truths - rec.point, axis=1)
        i = int(np.argmin(d))
        if d[i] <= radius and (min_value is None or rec.value >= min_value):
            hit.setdefault(i, rec.step)
    return hit


def execute(config_name, family=None):
    cfg = harness.parse_config(CONFIGS / config_name)
    bench = cfg.make_benchmark()
    trace = run(bench.objective, cfg.make_optimizer(family=family), truths=bench.ground_truth)
    return cfg, bench, trace


def test_criterion_1_griewank2d_two_optima():
    t0 = time.time()
    cfg, bench, trace = execute("griewank2d_jointpi.cfg")
    elapsed = time.time() - t0
    hit = located_maxima(trace, bench.ground_truth, radius=0.25)
    assert len(hit) >= 2, f"flagged {len(hit)} distinct maxima, need 2"
    assert elapsed < 30.0
    print(f"\nPASS criterion 1: Griewank 2D flags {len(hit)} distinct maxima "
          f"(steps {sorted(hit.values())}) in {elapsed:.1f} s")


def test_criterion_2_shubert_three_optima():
    t0 = time.time()
    cfg, bench, trace = execute("shubert_jointei.cfg")
    elapsed = time.time() - t0
    hit = located_maxima(trace, bench.ground_truth, radius=0.25)
    assert len(hit) >= 3, f"flagged {len(hit)} distinct maxima, need 3"
    assert elapsed < 60.0
    print(f"\nPASS criterion 2: Shubert flags {len(hit)} distinct maxima "
          f"(steps {sorted(hit.values())}) in {elapsed:.1f} s")


def test_criterion_3_griewank3d_scalability(tmp_path):
    t0 = time.time()
    cfg, bench, trace = execute("griewank3d_jointei.cfg")
    elapsed = time.time() - t0
    # every point of the run is the frozen one
    traceio.write_trace(tmp_path / "trace.csv", trace, {})
    frozen = (FIXTURES / f"{GRID3D_FULL}.csv").read_text(encoding="utf-8").splitlines()
    assert selection_lines(tmp_path / "trace.csv") == frozen
    # flagged values >= 1.98 with +-0.03 tolerance
    hit = located_maxima(trace, bench.ground_truth, radius=0.25, min_value=1.95)
    assert len(hit) >= 3, f"located {len(hit)} of 4 maxima, need 3"
    assert elapsed < 600.0
    print(f"\nPASS criterion 3: Griewank 3D locates {len(hit)} of 4 maxima "
          f"(steps {sorted(hit.values())}) in {elapsed:.0f} s")


def test_criterion_4_baseline_orderings():
    cfg = harness.parse_config(CONFIGS / "synthetic1d_compare.cfg")
    bench = cfg.make_benchmark()
    assert cfg.budget == 100 and cfg.grid_count == (200,)
    families = ("joint_pi", "joint_ei", "vanilla_pi", "vanilla_ei")
    avg90 = {f: [] for f in families}
    hit3 = {f: [] for f in families}
    never = cfg.budget + 900
    for seed in range(10):
        for family in families:
            trace = run(bench.objective, cfg.make_optimizer(family=family, seed=seed),
                        truths=bench.ground_truth)
            report = metrics.metric_report(trace, bench, (30, 60, 90), cfg.hit_radius)
            avg90[family].append(report.checkpoint_averages[90])
            hit = report.first_hits.get(2)
            hit3[family].append(hit if hit is not None else never)
    med = {f: float(np.median(avg90[f])) for f in families}
    med_hit = {f: float(np.median(hit3[f])) for f in families}
    assert med["joint_ei"] < med["vanilla_ei"]
    assert med["joint_pi"] < med["vanilla_pi"]
    assert med_hit["joint_ei"] < med_hit["vanilla_ei"]
    assert med_hit["joint_pi"] < med_hit["vanilla_pi"]
    print("\nPASS criterion 4: median avg-distance@90 "
          f"joint EI {med['joint_ei']:.3f} < vanilla EI {med['vanilla_ei']:.3f}, "
          f"joint PI {med['joint_pi']:.3f} < vanilla PI {med['vanilla_pi']:.3f}; "
          f"median first-hit of 3rd maximum {med_hit['joint_ei']:.0f}/{med_hit['joint_pi']:.0f} "
          f"vs {med_hit['vanilla_ei']:.0f}/{med_hit['vanilla_pi']:.0f}")


def test_criterion_5_ablation_contrasts():
    cfg = harness.parse_config(CONFIGS / "synthetic1d_ablate.cfg")
    bench = cfg.make_benchmark()
    truths = bench.ground_truth
    results = {}
    for family in ("joint_ei", "vanilla_ei", "derivative_only"):
        trace = run(bench.objective, cfg.make_optimizer(family=family), truths=truths)
        near, far = set(), 0
        for rec in trace.flagged():
            d = np.linalg.norm(truths - rec.point, axis=1)
            if d.min() <= 0.1:
                near.add(int(np.argmin(d)))
            else:
                far += 1
        results[family] = (near, far)
    joint_near, joint_far = results["joint_ei"]
    post_near, _ = results["vanilla_ei"]
    _, deriv_far = results["derivative_only"]
    assert joint_far == 0, "joint variant flagged a point away from every true maximum"
    assert deriv_far >= 1, "derivative-only variant flagged no off-maximum point"
    missed = joint_near - post_near
    assert len(missed) >= 1, "posterior-only variant found every maximum the joint found"
    print(f"\nPASS criterion 5: joint flags maxima {sorted(joint_near)} (0 off-truth); "
          f"posterior-only misses {sorted(missed)}; derivative-only makes {deriv_far} "
          f"off-maximum flags")


def test_criterion_6_property_suite():
    t0 = time.time()
    rng = np.random.default_rng(2024)

    # kernel derivatives vs finite differences, 100 cases per kernel
    import test_kernels as tk

    for make in (lambda: SquaredExponential(float(rng.uniform(0.5, 5)), float(rng.uniform(0.3, 2))),
                 lambda: Polynomial(float(rng.uniform(0.5, 3)))):
        for _ in range(100):
            kern = make()
            n = int(rng.integers(1, 4))
            x, y = rng.uniform(-2, 2, n), rng.uniform(-2, 2, n)
            fd = tk.central_diff_grad(kern, x, y)
            grad = kern.grad_tensor(y[None, :], x[None, :])[0, 0]
            assert np.linalg.norm(grad - fd) <= 1e-4 * max(np.linalg.norm(fd), 1e-6)
            block, bd = kern.joint_blocks_batch(y[None, :])[0], tk.fd_joint_block(kern, y)
            assert np.linalg.norm(block[1:, 1:] - bd[1:, 1:]) <= 1e-3 * max(np.linalg.norm(bd[1:, 1:]), 1e-6)
            assert np.linalg.norm(block[0] - bd[0]) <= 1e-4 * np.linalg.norm(bd)

    # joint posterior interpolation and prior recovery
    for _ in range(10):
        n = int(rng.integers(1, 3))
        state = gp.fit(rng.uniform(-2, 2, (5, n)), rng.standard_normal(5), 0.25,
                       SquaredExponential(1.5, 0.5))
        i = int(rng.integers(5))
        j = gp.joint_posterior(state, state.inputs[i])
        assert abs(j.mu_x - state.values[i]) <= 1e-5
        assert j.sigma_xx <= 1e-5 * 1.5
        far = gp.joint_posterior(state, np.full(n, 40.0))
        assert abs(far.mu_x - 0.25) <= 1e-9 and np.all(np.abs(far.mu_y) <= 1e-9)

    # conditioning against the generic Gaussian oracle, 100 cases, n <= 5
    for _ in range(100):
        n = int(rng.integers(1, 6))
        a = rng.standard_normal((1 + n, 1 + n))
        cov = a @ a.T + 0.3 * np.eye(1 + n)
        jg = gp.JointGaussian(rng.standard_normal(1 + n), cov)
        g = rng.standard_normal(n)
        cond = condition_value_on_gradient(jg, g)
        ref_mean, ref_var = oracles.conditional_oracle(jg, g)
        assert abs(cond.mean - ref_mean) <= 1e-10 * max(1.0, abs(ref_mean))
        assert abs(cond.variance - ref_var) <= 1e-10 * max(1.0, abs(ref_var))

    # joint PI / EI against the frozen Monte-Carlo fixtures
    import test_acquisition as ta

    fixtures = ta.load_fixtures()
    assert len(fixtures) == 20
    for row in fixtures:
        pi = score(row["j"], AcquisitionConfig("joint_pi", row["threshold"], row["epsilon"]))
        assert abs(pi - row["pi_mc"]) <= 0.01
        ei = score(row["j"], AcquisitionConfig("joint_ei", row["threshold"], row["epsilon"]))
        cond = condition_value_on_gradient(row["j"], np.zeros(row["j"].dim))
        assert abs(ei - row["ei_mc"]) <= max(0.02 * cond.std, 4 * row["ei_se"])

    # optimizer trace invariants: bounds, pairwise distance, determinism
    opt_cfg = OptimizerConfig(
        bounds=[(0.0, 1.0)], kernel=SquaredExponential(1.0, 0.06),
        acquisition=AcquisitionConfig("joint_ei", 0.45, 1.0),
        budget=15, min_distance=0.03, grid_counts=(120,), n_priors=3, seed=5,
    )
    bench = make_benchmark("synthetic1d")
    t1 = run(bench.objective, opt_cfg, truths=bench.ground_truth)
    t2 = run(bench.objective, opt_cfg, truths=bench.ground_truth)
    pts = t1.points()
    assert np.all(pts >= 0.0) and np.all(pts <= 1.0)
    assert t1.min_pairwise_distance() >= 0.03 * (1 - DIST_EPS)
    assert all(np.array_equal(a.point, b.point) and a.value == b.value
               and a.acquisition == b.acquisition for a, b in zip(t1.steps, t2.steps))

    # q-function symmetry and monotonicity
    z = np.linspace(-8, 8, 801)
    q = numerics._q(z)
    assert np.max(np.abs(q + numerics._q(-z) - 1.0)) < 1e-12
    assert np.all(np.diff(q) < 0)

    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(f"\nPASS criterion 6: property suite in {elapsed:.1f} s")


def test_criterion_7_sensitivity_sweeps(tmp_path):
    base = CONFIGS / "shubert_sweep.cfg"
    out_d = tmp_path / "sweep_d"
    rc = harness.cmd_sweep(base, "min_distance", [0.05, 0.8], out=str(out_d))
    assert rc == 0
    for d in (0.05, 0.8):
        tf = traceio.read_trace(out_d / f"min_distance={d:g}" / "trace.csv")
        pts = np.array([s.point for s in tf.steps])
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        np.fill_diagonal(dist, np.inf)
        assert dist.min() >= d * (1 - DIST_EPS)
    out_a = tmp_path / "sweep_alpha"
    assert harness.cmd_sweep(base, "alpha", [10.0, 30.0], out=str(out_a)) == 0
    assert (out_a / "report.csv").exists()
    out_t = tmp_path / "sweep_threshold"
    assert harness.cmd_sweep(base, "threshold", [0.0, 40.0, 80.0], out=str(out_t)) == 0
    header, rows, _ = read_report(out_t / "report.csv")
    assert len(rows) == 3
    print("\nPASS criterion 7: alpha/threshold/min-distance sweeps ran end to end; "
          "d-sweep traces respect their minimum pairwise distance")
