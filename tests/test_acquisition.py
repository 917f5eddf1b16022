import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from multibo import gp
from multibo.acquisition import (
    _solve_gradient_block,
    AcquisitionConfig,
    band_bound,
    band_probability,
    condition_on_zero_gradient,
    condition_value_on_gradient,
    evaluate,
    expected_improvement,
    gradient_band_probability,
    improvement_probability,
    pack,
    packed_pairs,
    score,
)
from multibo.engine import CandidateEvaluator
from multibo.errors import ConfigError
from multibo.kernels import SquaredExponential
from multibo.numerics import _phi

FIXTURES = Path(__file__).parent / "fixtures" / "mc_acquisition.csv"


def load_fixtures():
    rows = []
    for line in FIXTURES.read_text().splitlines():
        if line.startswith("#") or line.startswith("case,") or not line.strip():
            continue
        parts = line.split(",")
        n = int(parts[1])
        mean = np.array([float(v) for v in parts[2].split(";")])
        cov = np.array([float(v) for v in parts[3].split(";")]).reshape(1 + n, 1 + n)
        rows.append({
            "j": gp.JointGaussian(mean, cov),
            "threshold": float(parts[4]),
            "epsilon": float(parts[5]),
            "pi_mc": float(parts[6]),
            "pi_se": float(parts[7]),
            "ei_mc": float(parts[8]),
            "ei_se": float(parts[9]),
            "band_mc": float(parts[10]),
            "band_se": float(parts[11]),
        })
    return rows


def se_state(rng, n=1, k=5):
    X = rng.uniform(-2, 2, (k, n))
    f = rng.standard_normal(k)
    return gp.fit(X, f, 0.0, SquaredExponential(1.0, 0.6))


def test_config_validation():
    with pytest.raises(ConfigError):
        AcquisitionConfig("unknown", 0.0, 0.1)
    with pytest.raises(ConfigError):
        AcquisitionConfig("joint_pi", 0.0, 0.0)
    with pytest.raises(ConfigError):
        AcquisitionConfig("joint_ei", np.inf, 0.1)
    # vanilla families do not use the band; epsilon is not constrained
    AcquisitionConfig("vanilla_pi", 0.0, 0.0)


def test_improvement_probability_degenerate():
    assert improvement_probability(2.0, 0.0, 1.0) == 1.0
    assert improvement_probability(0.5, 0.0, 1.0) == 0.0
    assert improvement_probability(1.0, 0.0, 1.0) == 0.5
    assert improvement_probability(0.0, 1.0, 0.0) == pytest.approx(0.5)


def test_expected_improvement_closed_form():
    # mean at the threshold with unit std: phi(0)
    assert expected_improvement(0.0, 1.0, 0.0) == pytest.approx(_phi(0.0), rel=1e-12)
    assert expected_improvement(3.0, 0.0, 1.0) == pytest.approx(2.0)
    assert expected_improvement(0.0, 0.0, 1.0) == 0.0


def test_joint_pi_certain_improvement_reduces_to_band():
    # degenerate conditional with mean above threshold: PI factor is 1
    cov = np.array([[0.0, 0.0], [0.0, 4.0]])
    j = gp.JointGaussian(np.array([2.0, 0.0]), cov)
    cfg = AcquisitionConfig("joint_pi", 1.0, 0.5)
    band = gradient_band_probability(j, 0.5)
    assert score(j, cfg) == pytest.approx(band, rel=1e-12)
    cfg_low = AcquisitionConfig("joint_pi", 3.0, 0.5)
    assert score(j, cfg_low) == 0.0


def test_joint_ei_zero_band_kills_value():
    cov = np.array([[1.0, 0.0], [0.0, 1e-12]])
    j = gp.JointGaussian(np.array([5.0, 10.0]), cov)  # gradient pinned far from 0
    cfg = AcquisitionConfig("joint_ei", 0.0, 0.1)
    assert score(j, cfg) == 0.0


def test_joint_ei_at_threshold():
    cov = np.array([[1.0, 0.0], [0.0, 1.0]])
    j = gp.JointGaussian(np.array([1.0, 0.0]), cov)
    cfg = AcquisitionConfig("joint_ei", 1.0, 100.0)  # band factor ~ 1
    assert score(j, cfg) == pytest.approx(_phi(0.0), rel=1e-6)


def test_vanilla_pi_median_threshold():
    rng = np.random.default_rng(0)
    state = se_state(rng)
    x = np.array([0.3])
    mean, _ = gp.value_posterior(state, x)
    cfg = AcquisitionConfig("vanilla_pi", mean, 0.1)
    assert evaluate(state, x, cfg) == pytest.approx(0.5, rel=1e-9)


def test_vanilla_ei_deterministic_improvement():
    state = gp.fit([[0.0]], [2.0], 0.0, SquaredExponential(1.0, 1.0))
    cfg = AcquisitionConfig("vanilla_ei", 1.0, 0.1)
    # at the training point the posterior is a point mass at 2.0
    assert evaluate(state, [0.0], cfg) == pytest.approx(1.0, abs=1e-6)


def test_vanilla_dominates_joint_when_value_marginal_shared():
    # with zero value-gradient coupling the conditional equals the marginal,
    # so joint PI = vanilla PI * band <= vanilla PI
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        var = rng.uniform(0.5, 2.0)
        cov = np.zeros((1 + n, 1 + n))
        cov[0, 0] = var
        cov[1:, 1:] = np.diag(rng.uniform(0.5, 2.0, n))
        j = gp.JointGaussian(rng.standard_normal(1 + n), cov)
        cfg = AcquisitionConfig("joint_pi", 0.2, 0.4)
        pi_joint = score(j, cfg)
        pi_vanilla = improvement_probability(j.mu_x, np.sqrt(var), 0.2)
        band = gradient_band_probability(j, 0.4)
        assert pi_joint <= pi_vanilla + 1e-12
        assert pi_joint == pytest.approx(pi_vanilla * band, rel=1e-9)


def test_joint_pi_bounded_by_factors():
    rng = np.random.default_rng(2)
    for _ in range(20):
        state = se_state(rng, n=2, k=6)
        x = rng.uniform(-2, 2, 2)
        cfg = AcquisitionConfig("joint_pi", 0.0, 0.2)
        j = gp.joint_posterior(state, x)
        cond = condition_value_on_gradient(j, np.zeros(2))
        band = gradient_band_probability(j, 0.2)
        pi_cond = improvement_probability(cond.mean, cond.std, 0.0)
        val = evaluate(state, x, cfg)
        assert 0.0 <= val <= 1.0
        assert val <= min(pi_cond, band) + 1e-12


def test_monotone_in_threshold():
    rng = np.random.default_rng(3)
    state = se_state(rng, n=1, k=5)
    x = np.array([0.1])
    thresholds = np.linspace(-2, 2, 21)
    pi_vals = [evaluate(state, x, AcquisitionConfig("joint_pi", t, 0.3)) for t in thresholds]
    ei_vals = [evaluate(state, x, AcquisitionConfig("joint_ei", t, 0.3)) for t in thresholds]
    assert np.all(np.diff(pi_vals) <= 1e-12)
    assert np.all(np.diff(ei_vals) <= 1e-12)


def test_band_limit_recovers_conditional_improvement():
    rng = np.random.default_rng(4)
    state = se_state(rng, n=1, k=4)
    x = np.array([-0.5])
    j = gp.joint_posterior(state, x)
    cond = condition_value_on_gradient(j, np.zeros(1))
    big = AcquisitionConfig("joint_pi", 0.1, 1e6)
    assert evaluate(state, x, big) == pytest.approx(
        improvement_probability(cond.mean, cond.std, 0.1), rel=1e-9
    )
    assert evaluate(state, x, AcquisitionConfig("derivative_only", 0.0, 1e6)) == pytest.approx(1.0)


def test_derivative_only_prior_region_zero_mean():
    state = gp.fit([[0.0]], [1.0], 0.0, SquaredExponential(1.0, 0.2))
    cfg = AcquisitionConfig("derivative_only", 0.0, 0.3)
    far = evaluate(state, [10.0], cfg)
    j = gp.joint_posterior(state, [10.0])
    assert np.allclose(j.mu_y, 0.0, atol=1e-12)
    assert far == pytest.approx(gradient_band_probability(j, 0.3), rel=1e-12)


def test_evaluate_dispatch():
    rng = np.random.default_rng(5)
    state = se_state(rng)
    x = np.array([0.2])
    j = gp.joint_posterior(state, x)
    cond = condition_value_on_gradient(j, np.zeros(1))
    band = gradient_band_probability(j, 0.2)
    std = np.sqrt(max(j.cov[0, 0], 0.0))
    expected = {
        "joint_pi": improvement_probability(cond.mean, cond.std, 0.1) * band,
        "joint_ei": expected_improvement(cond.mean, cond.std, 0.1) * band,
        "vanilla_pi": improvement_probability(j.mu_x, std, 0.1),
        "vanilla_ei": expected_improvement(j.mu_x, std, 0.1),
        "derivative_only": band,
    }
    for family, value in expected.items():
        cfg = AcquisitionConfig(family, 0.1, 0.2)
        assert evaluate(state, x, cfg) == score(j, cfg)
        assert evaluate(state, x, cfg) == pytest.approx(value, rel=1e-12)


def test_joint_pi_matches_monte_carlo_fixtures():
    for row in load_fixtures():
        cfg = AcquisitionConfig("joint_pi", row["threshold"], row["epsilon"])
        val = score(row["j"], cfg)
        assert abs(val - row["pi_mc"]) <= 0.01


def test_joint_ei_matches_monte_carlo_fixtures():
    for row in load_fixtures():
        cfg = AcquisitionConfig("joint_ei", row["threshold"], row["epsilon"])
        val = score(row["j"], cfg)
        cond = condition_value_on_gradient(row["j"], np.zeros(row["j"].dim))
        tol = max(0.02 * cond.std, 4.0 * row["ei_se"])
        assert abs(val - row["ei_mc"]) <= tol


def test_band_matches_diagonal_monte_carlo_fixtures():
    for row in load_fixtures():
        band = gradient_band_probability(row["j"], row["epsilon"])
        assert abs(band - row["band_mc"]) <= 0.01


def _joint(sxy, mu_y, syy):
    """Value mean 0.3 and variance 1 over the gradient block ``syy``."""
    n = len(sxy)
    cov = np.eye(1 + n)
    cov[0, 1:] = cov[1:, 0] = sxy
    cov[1:, 1:] = syy
    return np.concatenate([[0.3], mu_y]), cov


# exactly singular gradient blocks: their entries are binary fractions, so
# elimination cancels exactly and the determinant is 0
SINGULAR_BLOCKS = [
    _joint([0.0], [0.2], [[0.0]]),
    _joint([0.5, 0.5], [0.2, 0.2], [[1.0, 1.0], [1.0, 1.0]]),
    _joint([0.2, 0.2, -0.3], [0.1, 0.1, 0.4],
           [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 4.0]]),
    _joint([0.4, 0.4, 0.1, -0.2], [0.1, 0.1, -0.3, 0.05],
           [[2.0, 2.0, 0.0, 0.0], [2.0, 2.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.0], [0.0, 0.0, 0.0, 4.0]]),
    _joint([0.3] * 5, [0.1] * 5, np.full((5, 5), 2.0)),
]


def diagonal_fallback(mean, cov, cfg):
    """Conditional value mean and variance, and joint EI, with S_yy^-1
    replaced by the inverse of its floored diagonal; by hand, one candidate."""
    d = np.diag(cov)[1:]
    d = np.maximum(d, 1e-12 * max(1.0, d.max()))
    sxy = cov[0, 1:]
    cond_mean = mean[0] - float(np.sum(sxy * mean[1:] / d))
    cond_var = min(max(cov[0, 0] - float(np.sum(sxy * sxy / d)), 0.0), cov[0, 0])
    std = math.sqrt(cond_var)
    if std > 0.0:
        z = (cfg.threshold - cond_mean) / std
        ei = (cond_mean - cfg.threshold) * 0.5 * math.erfc(z / math.sqrt(2.0)) \
            + std * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    else:
        ei = max(cond_mean - cfg.threshold, 0.0)
    band = math.prod(0.5 * (math.erfc((-cfg.epsilon - m) / math.sqrt(2.0 * v))
                            - math.erfc((cfg.epsilon - m) / math.sqrt(2.0 * v)))
                     for m, v in zip(mean[1:], d))
    return cond_mean, cond_var, ei * band


def test_singular_gradient_blocks_take_the_diagonal_fallback():
    cfg = AcquisitionConfig("joint_ei", 0.1, 0.5)
    rng = np.random.default_rng(40)
    for mean, cov in SINGULAR_BLOCKS:
        n = len(mean) - 1
        assert np.linalg.det(cov[1:, 1:]) == 0.0
        want_mean, want_var, want = diagonal_fallback(mean, cov, cfg)
        j = gp.JointGaussian(mean, cov)
        cond = condition_value_on_gradient(j, np.zeros(n))
        assert cond.mean == pytest.approx(want_mean, rel=1e-14)
        assert cond.variance == pytest.approx(want_var, rel=1e-14)
        assert score(j, cfg) == pytest.approx(want, rel=1e-12)
        # the engine, at a candidate whose posterior is this Gaussian
        ev = CandidateEvaluator(SquaredExponential(1.0, 1.0), np.zeros((3, n)), 0.0, capacity=1)
        ev.fit(np.ones((1, n)), [1.0])
        ev.posterior_mean()[0] = mean
        ev._scov[:, 0] = [cov[p] for p in packed_pairs(n)]
        assert ev.acquisition_values(cfg)[0] == pytest.approx(want, rel=1e-12)
        # one batch with full-rank blocks on both sides: every candidate gets
        # its single-candidate bits, the full-rank ones the dense-inverse result
        batch = []
        for _ in range(6):
            a = rng.standard_normal((1 + n, 1 + n))
            batch.append(gp.JointGaussian(rng.standard_normal(1 + n), a @ a.T + 0.3 * np.eye(1 + n)))
        batch.insert(3, j)
        got_mean, got_var = condition_on_zero_gradient(
            np.array([b.mean for b in batch]).T, np.hstack([pack(b.cov) for b in batch]))
        for i, b in enumerate(batch):
            one = condition_value_on_gradient(b, np.zeros(n))
            assert (got_mean[i], got_var[i]) == (one.mean, one.variance)
            if b is not j:
                ref_mean, ref_var = oracles.conditional_oracle(b, np.zeros(n))
                assert one.mean == pytest.approx(ref_mean, abs=1e-10 * max(1, abs(ref_mean)))
                assert one.variance == pytest.approx(ref_var, abs=1e-10 * max(1, abs(ref_var)))


def _gradient_solve(syy, sxy):
    """The module's t for one gradient block, and the policy's floored
    diagonal and determinant threshold for it."""
    n = len(sxy)
    cov = np.eye(1 + n)
    cov[0, 1:] = cov[1:, 0] = sxy
    cov[1:, 1:] = syy
    scale = max(np.diag(syy).max(), 0.0)
    dsafe = np.maximum(np.diag(syy), 1e-12 * max(scale, 1.0))
    return _solve_gradient_block(pack(cov), n)[:, 0], dsafe, 1e-12 * max(scale, 1.0) ** n


@settings(max_examples=300, deadline=None)
@given(
    log_cond=st.floats(0.0, 8.0),
    log_scale=st.floats(-6.0, 3.0),
    spread=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_n4_closed_form_solve_matches_lapack(log_cond, log_scale, spread, seed):
    # an SPD block with eigenvalues from scale down to scale / cond, in a
    # random basis
    rng = np.random.default_rng(seed)
    eig = 10.0 ** (log_scale - log_cond * np.array([0.0, *spread, 1.0]))
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    syy = (q * eig) @ q.T
    syy = 0.5 * (syy + syy.T)
    sxy = rng.standard_normal(4) * 10.0 ** (0.5 * log_scale)
    t, dsafe, tiny = _gradient_solve(syy, sxy)
    block = syy.copy()
    block[np.diag_indices(4)] = dsafe
    det = np.linalg.det(block)
    assume(not tiny / 2 <= abs(det) <= 2 * tiny)   # the test itself is within rounding
    if abs(det) < tiny:
        np.testing.assert_array_equal(t, sxy / dsafe)
        return
    want = np.linalg.solve(block, sxy)
    # the adjugate over the determinant loses eps * cond like any solve, and
    # also the determinant's own cancellation, up to eps * max(diag)^4 / |det|
    eps = np.finfo(float).eps
    tol = 16 * eps * (np.linalg.cond(block) + dsafe.max() ** 4 / abs(det)) * np.abs(want).max()
    np.testing.assert_allclose(t, want, rtol=0, atol=tol)


def test_n4_determinant_just_below_the_threshold_takes_the_fallback():
    # a coupled pair, a unit entry and x: the determinant is 3 x exactly
    # as the closed form computes it, with the threshold tiny = 1e-12 * 2^4
    sxy = np.array([0.5, -0.25, 0.75, 1e-6])
    tiny = 1e-12 * 2.0 ** 4
    x = tiny / 3.0
    while 3.0 * x > tiny:
        x = np.nextafter(x, 0.0)
    while 3.0 * np.nextafter(x, 1.0) <= tiny:
        x = np.nextafter(x, 1.0)
    for x_case, exact in ((x, False), (np.nextafter(x, 1.0), True)):
        syy = np.diag([2.0, 2.0, 1.0, x_case])
        syy[0, 1] = syy[1, 0] = 1.0
        t, dsafe, got_tiny = _gradient_solve(syy, sxy)
        assert got_tiny == tiny and (3.0 * x_case > tiny) == exact
        if exact:
            np.testing.assert_allclose(t, np.linalg.solve(syy, sxy), rtol=1e-14)
        else:
            np.testing.assert_array_equal(t, sxy / dsafe)


# per-dimension gradient variances, as a function of epsilon and a uniform u
BOUND_VARIANCES = {
    "zero": lambda eps, u: np.zeros_like(u),
    "negative": lambda eps, u: -eps * eps * 10.0 ** (-12.0 * u),
    "subnormal": lambda eps, u: 5e-324 * np.floor(1.0 + 1e6 * u),
    "s << eps": lambda eps, u: (eps * 10.0 ** (-1.0 - 11.0 * u)) ** 2,
    "s ~ eps": lambda eps, u: (eps * 10.0 ** (2.0 * u - 1.0)) ** 2,
    "s >> eps": lambda eps, u: (eps * 10.0 ** (1.0 + 11.0 * u)) ** 2,
}
# gradient means, as a function of epsilon, a uniform u and a random sign
BOUND_MEANS = {
    "zero": lambda eps, u, sign: np.zeros_like(u),
    "inside": lambda eps, u, sign: sign * eps * u,
    "at the edge": lambda eps, u, sign: sign * eps * (1.0 + 10.0 ** (-16.0 * u) * (2 * u - 1)),
    "|mu| >> eps": lambda eps, u, sign: sign * eps * 10.0 ** (1.0 + 7.0 * u),
    "any": lambda eps, u, sign: sign * eps * 10.0 ** (8.0 * u - 4.0),
}


def assert_band_bound_holds(mean, packed, epsilon):
    with np.errstate(all="ignore"):
        band = band_probability(mean, packed, epsilon)
        bound = band_bound(mean, packed, epsilon)
    np.testing.assert_array_equal(np.isnan(bound), np.isnan(band))
    ok = np.isnan(band) | (bound >= band)
    assert ok.all(), (mean[:, ~ok], packed[:, ~ok], band[~ok], bound[~ok])
    assert (bound[~np.isnan(bound)] <= 1.0).all()


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 5),
    data=st.data(),
    log_eps=st.floats(-8.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_band_bound_is_at_least_the_computed_band(n, data, log_eps, seed):
    # every dimension draws its variance and mean from one of the cases, and
    # 64 candidates share the draw of cases
    rng = np.random.default_rng(seed)
    eps = 10.0 ** log_eps
    size = 64
    mean = np.zeros((1 + n, size))
    packed = np.zeros((len(packed_pairs(n)), size))
    for d in range(n):
        var = data.draw(st.sampled_from(sorted(BOUND_VARIANCES)))
        mu = data.draw(st.sampled_from(sorted(BOUND_MEANS)))
        sign = rng.choice([-1.0, 1.0], size)
        mean[1 + d] = BOUND_MEANS[mu](eps, rng.random(size), sign)
        packed[packed_pairs(n).index((1 + d, 1 + d))] = BOUND_VARIANCES[var](eps, rng.random(size))
    assert_band_bound_holds(mean, packed, eps)


def test_band_bound_holds_on_special_blocks():
    # the collapsed block of joint EI on synthetic1d seed 3, step 34
    # (S_xx, S_xy, S_yy) = (-7.4e-12, 7.6e-10, -7.8e-8): the indicator branch
    mean, packed = np.array([[0.458], [-0.777]]), np.array([[-7.4e-12], [7.6e-10], [-7.8e-8]])
    assert_band_bound_holds(mean, packed, 1.0)
    assert band_bound(mean, packed, 1.0)[0] == 1.0
    # NaN and infinite entries: NaN stays exactly where the band is NaN
    special = np.array([0.0, np.nan, np.inf, -np.inf, 1e300, 5e-324, -1.0, 2.0])
    mu, var = (a.ravel() for a in np.meshgrid(special, special))
    assert_band_bound_holds(np.stack([np.zeros_like(mu), mu]), np.stack([var, var, var]), 0.5)
