"""Tests of the benchmark's dense reference.

Run from the repository root:  python3 -m pytest bench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).resolve().parent)]

import oracles  # noqa: E402
import reference  # noqa: E402
from multibo.gp import JointGaussian  # noqa: E402
from multibo.objectives import griewank, make_benchmark  # noqa: E402

ALPHA, ELL = 1.7, 0.6


def random_fit(seed, n, k=6):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, (k, n))
    return rng, X, 1.5 * rng.standard_normal(k)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_interpolates_observations(n):
    _, X, f = random_fit(n, n)
    mean, cov = reference.joint_posterior(X, f, 0.3, ALPHA, ELL, 0.0, X)
    assert np.allclose(mean[:, 0], f, atol=1e-8)
    assert np.all(np.abs(cov[:, 0, 0]) <= 1e-8 * ALPHA)


@pytest.mark.parametrize("n", [1, 3])
def test_gradient_mean_matches_finite_difference(n):
    rng, X, f = random_fit(10 + n, n)
    q = rng.uniform(-2, 2, (1, n))
    h = 1e-5
    mean, _ = reference.joint_posterior(X, f, 0.3, ALPHA, ELL, 1e-10, q)
    for i in range(n):
        step = np.zeros((1, n))
        step[0, i] = h
        up, _ = reference.joint_posterior(X, f, 0.3, ALPHA, ELL, 1e-10, q + step)
        dn, _ = reference.joint_posterior(X, f, 0.3, ALPHA, ELL, 1e-10, q - step)
        fd = (up[0, 0] - dn[0, 0]) / (2 * h)
        assert fd == pytest.approx(mean[0, 1 + i], rel=1e-6, abs=1e-8)


def test_conditioning_matches_dense_inverse():
    rng, X, f = random_fit(20, 3)
    mean, cov = reference.joint_posterior(X, f, 0.0, ALPHA, ELL, 0.0, rng.uniform(-2, 2, (4, 3)))
    cmean, cvar = reference.condition_on_zero_gradient(mean, cov)
    for m in range(4):
        want_mean, want_var = oracles.conditional_oracle(JointGaussian(mean[m], cov[m]), np.zeros(3))
        assert cmean[m] == pytest.approx(want_mean, rel=1e-9, abs=1e-12)
        assert cvar[m] == pytest.approx(max(want_var, 0.0), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_joint_pi_matches_monte_carlo(seed):
    """In the narrow-band regime joint PI approximates
    P(value > threshold and |grad_i| < epsilon for all i); the repository's
    acceptance suite holds the program to the same 0.01."""
    n = 1 + seed % 3
    rng, X, f = random_fit(30 + seed, n)
    mean, cov = reference.joint_posterior(X, f, 0.0, ALPHA, ELL, 0.0, rng.uniform(-2, 2, (1, n)))
    s_min = float(np.sqrt(np.diag(cov[0])[1:]).min())
    epsilon = 0.1 * s_min
    threshold = float(mean[0, 0]) - 0.2
    pi = reference.joint_acquisition("joint_pi", mean, cov, threshold, epsilon)[0]
    mc = oracles.mc_joint_probability(JointGaussian(mean[0], cov[0]), threshold, epsilon,
                                      samples=400_000, seed=seed)
    band = reference.band_probability(mean, cov, epsilon)[0]
    assert pi == pytest.approx(mc.value, abs=0.01)
    diag = oracles.mc_band_probability_diagonal(JointGaussian(mean[0], cov[0]), epsilon,
                                                samples=400_000, seed=seed)
    assert band == pytest.approx(diag.value, abs=4 * diag.stderr + 1e-4)


def test_objective_formulas_and_certificate():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-5, 5, (50, 3))
    assert np.allclose(reference.griewank(pts), griewank(pts), rtol=1e-14, atol=1e-14)
    bench = make_benchmark("synthetic1d")
    xs = rng.uniform(0, 1, 50)
    assert np.allclose(reference.bumps(xs), bench.objective(xs), rtol=1e-14, atol=1e-14)
    for t in make_benchmark("griewank", dimension=3).ground_truth:
        assert reference.is_local_maximum(reference.griewank, t)
    for t in bench.ground_truth:
        assert reference.is_local_maximum(reference.bumps, t)
    assert not reference.is_local_maximum(reference.griewank, np.array([1.0, 0.5, 0.0]))
    assert not reference.is_local_maximum(reference.griewank, np.zeros(3))   # the minimum
