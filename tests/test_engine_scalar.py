"""The batched engine against the scalar posterior path, every family, both kernels.

``CandidateEvaluator.acquisition_values`` and ``acquisition.evaluate`` on the
evaluator's own ``state()`` share no code below the kernel's scalar
methods: the engine downdates packed covariances per sample and solves the
gradient blocks in closed form (n <= 3) or in a batch (n > 3), while the
scalar path forms the dense joint posterior and conditions it through a
Cholesky factor.
"""

import numpy as np
import pytest

from multibo import acquisition, gp
from multibo.acquisition import FAMILIES, AcquisitionConfig
from multibo.engine import CandidateEvaluator
from multibo.kernels import Polynomial, SquaredExponential

SEEDS = range(60)
N_CANDS = 12
ON_SAMPLES = 3          # candidates placed exactly on samples

RTOL = 1e-8
ATOL = 1e-9
# Both paths solve against the same Cholesky factor of K, so their
# difference grows with its condition number: a linear solve loses about
# eps * cond(K) relative accuracy, and the posterior mean carries it at the
# scale of the data. Over 300 seeds per case the largest difference beyond
# ATOL + RTOL |ref| was 0.08 of this term (1-D, seven samples, cond(K) 1e12).
COND_ATOL = np.finfo(float).eps
# Nearly singular posterior gradient blocks: the engine's closed-form
# fallback and the scalar path's drop/jitter policy differ by design there.
SINGULAR_RTOL = 1e-6


def _cases(quadratic, n, seed):
    rng = np.random.default_rng([seed, n, quadratic])
    if quadratic:
        # above n (n - 1) / 2 samples the posterior gradient block of the
        # homogeneous quadratic kernel is rank-deficient by construction
        kernel = Polynomial(float(rng.uniform(0.5, 2.0)))
        k = int(rng.integers(1, n * (n - 1) // 2 + 1))
    else:
        kernel = SquaredExponential(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.3, 1.0)))
        k = int(rng.integers(1, 8))
    X = rng.uniform(-1.0, 1.0, (k, n))
    f = rng.standard_normal(k)
    cands = rng.uniform(-1.0, 1.0, (N_CANDS, n))
    placed = min(ON_SAMPLES, k)
    cands[:placed] = X[:placed]
    cfg = (float(rng.normal(0.0, 0.5)), float(rng.uniform(0.1, 1.0)))
    return kernel, X, f, cands, cfg


def _engine(kernel, X, f, cands):
    """Fit on the first half of the samples and append the rest."""
    ev = CandidateEvaluator(kernel, cands, 0.25, capacity=len(X))
    half = max(1, len(X) // 2)
    ev.fit(X[:half], f[:half])
    for x, y in zip(X[half:], f[half:]):
        ev.append(x, y)
    return ev


def _near_singular(state, x):
    eig = np.linalg.eigvalsh(gp.joint_posterior(state, x).sigma_yy)
    return eig[0] <= SINGULAR_RTOL * max(1.0, eig[-1])


@pytest.mark.parametrize("quadratic,n", [(False, 1), (False, 2), (False, 3), (False, 4),
                                         (True, 2), (True, 3), (True, 4)])
def test_engine_matches_scalar_path(quadratic, n):
    checked = 0
    for seed in SEEDS:
        kernel, X, f, cands, (threshold, epsilon) = _cases(quadratic, n, seed)
        ev = _engine(kernel, X, f, cands)
        state = ev.state()
        singular = [_near_singular(state, c) for c in cands]
        cond_atol = COND_ATOL * np.linalg.cond(state.factor.lower) ** 2 * max(1.0, np.abs(f).max())
        for family in FAMILIES:
            cfg = AcquisitionConfig(family, threshold, epsilon)
            batch = ev.acquisition_values(cfg)
            for i, c in enumerate(cands):
                if family in ("joint_pi", "joint_ei") and singular[i]:
                    continue
                ref = acquisition.evaluate(state, c, cfg)
                assert batch[i] == pytest.approx(ref, rel=RTOL, abs=ATOL + cond_atol), (
                    f"{family} seed {seed} candidate {i}: engine {batch[i]!r}, scalar {ref!r}")
                checked += 1
    # the skip must leave most of the joint checks in place
    assert checked > 0.8 * len(SEEDS) * len(FAMILIES) * N_CANDS
