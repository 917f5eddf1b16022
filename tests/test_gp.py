import numpy as np
import pytest

import oracles
from multibo import gp, numerics
from multibo.acquisition import condition_value_on_gradient, gradient_band_probability
from multibo.errors import DimensionMismatch, EmptyData, NonFinite
from multibo.kernels import Polynomial, SquaredExponential
from multibo.objectives import griewank


def random_state(rng, n=1, k=5, alpha=1.0, length_scale=0.7):
    X = rng.uniform(-2, 2, (k, n))
    f = rng.standard_normal(k)
    kern = SquaredExponential(alpha=alpha, length_scale=length_scale)
    return gp.fit(X, f, prior_mean=0.0, kernel=kern)


def test_fit_single_sample_alpha_vec():
    state = gp.fit([[0.4]], [3.0], 0.0, SquaredExponential(1.0, 1.0))
    assert np.allclose(state.alpha_vec, [3.0])


def test_fit_duplicate_inputs_escalates_jitter():
    state = gp.fit([[1.0], [1.0]], [2.0, 2.0], 0.0, SquaredExponential(1.0, 1.0))
    assert state.factor.jitter > 0.0


def test_fit_reconstruction_on_griewank_samples():
    X = np.array([[0.0, 0.0], [1.0, 2.0], [-3.0, 0.5]])
    f = [griewank(x) for x in X]
    state = gp.fit(X, f, 0.0, SquaredExponential(10.0, 0.1))
    K = state.kernel.eval_matrix(X, X)
    recon = state.factor.lower @ state.factor.lower.T
    rel = np.linalg.norm(recon - (K + state.factor.jitter * np.eye(3))) / np.linalg.norm(K)
    assert rel < 1e-8
    assert np.allclose(K @ state.alpha_vec, np.asarray(f), atol=1e-7)


def test_fit_validation_errors():
    with pytest.raises(EmptyData):
        gp.fit(np.empty((0, 1)), [], 0.0, SquaredExponential(1.0, 1.0))
    with pytest.raises(DimensionMismatch):
        gp.fit([[0.0], [1.0]], [1.0], 0.0, SquaredExponential(1.0, 1.0))
    with pytest.raises(NonFinite):
        gp.fit([[0.0]], [np.nan], 0.0, SquaredExponential(1.0, 1.0))


def test_joint_posterior_interpolates_training_point():
    rng = np.random.default_rng(1)
    state = random_state(rng, n=2, k=6)
    for i in range(6):
        j = gp.joint_posterior(state, state.inputs[i])
        assert j.mean[0] == pytest.approx(state.values[i], abs=1e-6)
        assert j.sigma_xx <= 1e-6


def test_joint_posterior_prior_recovery_far_away():
    state = gp.fit([[0.0]], [2.0], prior_mean=0.5, kernel=SquaredExponential(1.5, 0.2))
    j = gp.joint_posterior(state, [50.0])
    assert j.mean[0] == pytest.approx(0.5, abs=1e-12)
    assert j.mean[1] == pytest.approx(0.0, abs=1e-12)
    prior = state.kernel.joint_blocks_batch(np.array([[50.0]]))[0]
    assert np.allclose(j.cov, prior, atol=1e-12)


def test_joint_posterior_dimension_check():
    rng = np.random.default_rng(2)
    state = random_state(rng, n=2)
    with pytest.raises(DimensionMismatch):
        gp.joint_posterior(state, [0.0])


def test_joint_posterior_matches_fd_gp_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        state = random_state(rng, n=1, k=4)
        x = rng.uniform(-2, 2, 1)
        j = gp.joint_posterior(state, x)
        mean_fd, cov_fd = oracles.fd_joint_posterior(state, x)
        assert np.allclose(j.mean, mean_fd, rtol=1e-3, atol=1e-6)
        assert np.allclose(j.cov, cov_fd, rtol=1e-3, atol=1e-5)


def test_gradient_mean_matches_fd_of_mean_surface():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        state = random_state(rng, n=n, k=6)
        x = rng.uniform(-1.5, 1.5, n)
        j = gp.joint_posterior(state, x)
        fd = oracles.fd_gradient_gp(state, x)
        scale = max(np.linalg.norm(fd), 1e-3)
        assert np.linalg.norm(j.mean[1:] - fd) / scale < 1e-3


def test_joint_cov_psd_on_random_states():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        state = random_state(rng, n=n, k=int(rng.integers(2, 8)))
        x = rng.uniform(-2, 2, n)
        j = gp.joint_posterior(state, x)
        numerics.cholesky(j.cov, jitter_schedule=(0.0, 1e-12, 1e-10, 1e-8, 1e-6))
        assert np.min(np.diag(j.cov)) >= 0.0


def test_value_posterior_consistent_with_joint():
    rng = np.random.default_rng(7)
    state = random_state(rng, n=2, k=5)
    x = rng.uniform(-1, 1, 2)
    j = gp.joint_posterior(state, x)
    mean, var = gp.value_posterior(state, x)
    assert mean == pytest.approx(j.mean[0], rel=1e-10)
    assert var == pytest.approx(j.sigma_xx, abs=1e-10)


def test_condition_independent_case():
    j = gp.JointGaussian(np.array([1.5, -2.0]), np.array([[3.0, 0.0], [0.0, 4.0]]))
    cond = condition_value_on_gradient(j, [10.0])
    assert cond.mean == pytest.approx(1.5)
    assert cond.variance == pytest.approx(3.0)


def test_condition_hand_schur_case():
    j = gp.JointGaussian(np.array([1.0, 2.0]), np.array([[2.0, 1.0], [1.0, 1.0]]))
    cond = condition_value_on_gradient(j, [0.0])
    assert cond.mean == pytest.approx(-1.0)
    assert cond.variance == pytest.approx(1.0)


def test_condition_matches_generic_oracle_100_cases():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        a = rng.standard_normal((1 + n, 1 + n))
        cov = a @ a.T + 0.3 * np.eye(1 + n)
        mean = rng.standard_normal(1 + n)
        g = rng.standard_normal(n)
        j = gp.JointGaussian(mean, cov)
        cond = condition_value_on_gradient(j, g)
        ref_mean, ref_var = oracles.conditional_oracle(j, g)
        assert cond.mean == pytest.approx(ref_mean, abs=1e-10 * max(1, abs(ref_mean)))
        assert cond.variance == pytest.approx(ref_var, abs=1e-10 * max(1, abs(ref_var)))


def test_condition_bivariate_formula():
    rng = np.random.default_rng(9)
    for _ in range(20):
        sx, sy = rng.uniform(0.5, 2, 2)
        rho = rng.uniform(-0.9, 0.9)
        cov = np.array([[sx * sx, rho * sx * sy], [rho * sx * sy, sy * sy]])
        mean = rng.standard_normal(2)
        g = rng.standard_normal(1)
        cond = condition_value_on_gradient(gp.JointGaussian(mean, cov), g)
        mu_ref = mean[0] + rho * sx / sy * (g[0] - mean[1])
        var_ref = sx * sx * (1 - rho * rho)
        assert cond.mean == pytest.approx(mu_ref, abs=1e-10)
        assert cond.variance == pytest.approx(var_ref, abs=1e-10)


def test_condition_degenerate_gradient_dimension():
    # zero-variance gradient carries no information: conditional is the marginal
    j = gp.JointGaussian(np.array([0.7, 3.0]), np.array([[2.0, 0.0], [0.0, 0.0]]))
    cond = condition_value_on_gradient(j, [0.0])
    assert cond.mean == pytest.approx(0.7)
    assert cond.variance == pytest.approx(2.0)


def test_band_probability_values():
    j1 = gp.JointGaussian(np.array([0.0, 0.0]), np.eye(2))
    assert gradient_band_probability(j1, 100.0) == pytest.approx(1.0, abs=1e-12)
    assert gradient_band_probability(j1, 1.0) == pytest.approx(0.6826894921370859, abs=1e-12)


def test_band_probability_product_rule():
    half = 0.6744897501960817  # per-dimension probability exactly 0.5
    j = gp.JointGaussian(np.zeros(3), np.diag([1.0, 1.0, 1.0]))
    assert gradient_band_probability(j, half) == pytest.approx(0.25, abs=1e-9)


def test_band_probability_zero_variance_indicator():
    j = gp.JointGaussian(np.array([0.0, 0.05]), np.diag([1.0, 0.0]))
    full = gradient_band_probability(j, 0.1)
    assert full == pytest.approx(gradient_band_probability(
        gp.JointGaussian(np.array([0.0, 0.0]), np.diag([1.0, 0.0])), 0.1), abs=1e-12)
    j_out = gp.JointGaussian(np.array([0.0, 0.5]), np.diag([1.0, 0.0]))
    assert gradient_band_probability(j_out, 0.1) == 0.0


def test_band_probability_requires_positive_epsilon():
    j = gp.JointGaussian(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        gradient_band_probability(j, 0.0)
