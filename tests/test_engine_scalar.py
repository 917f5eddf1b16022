"""The engine's packed posterior against the dense one, every family, both kernels.

``CandidateEvaluator.acquisition_values`` and ``acquisition.evaluate`` on the
evaluator's own ``state()`` score with the same formulas
(``acquisition.values``); they differ in the posterior they score. The
engine fits on half the samples, then downdates its packed covariances by
one rank-1 term per appended sample (or refits when a sample duplicates
one it has), while ``gp.joint_posterior`` forms the dense joint posterior
through the Cholesky factor. This pins the incrementally downdated packed
posterior against the dense one, on random designs, on samples along a
line and with an exact duplicate sample, and with candidates on samples.
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
# ATOL + RTOL |ref| was 0.08 of this term (1-D, seven samples, cond(K) 1e12)
# on random designs; on samples along a line it reaches the whole term (SE,
# n = 4, seed 12, vanilla EI: the two posterior means differ by 5.4e-6).
COND_ATOL = np.finfo(float).eps
# Nearly singular posterior gradient blocks: conditioning on the gradient
# amplifies the difference between the two posteriors by up to cond(S_yy),
# so the joint families get ATOL + cond_atol cond(S_yy) + RTOL |ref| there.
SINGULAR_RTOL = 1e-6

CASES = [(False, 1), (False, 2), (False, 3), (False, 4), (False, 5),
         (True, 2), (True, 3), (True, 4), (True, 5)]


def _cases(quadratic, n, seed, design="random"):
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
    cfg = (float(rng.normal(0.0, 0.5)), float(rng.uniform(0.1, 1.0)))
    extra = np.random.default_rng([seed, n, quadratic, 1])
    if design == "line":
        direction = extra.standard_normal(n)
        X = X[:1] + extra.uniform(-0.5, 0.5, (k, 1)) * direction / np.linalg.norm(direction)
    elif design == "duplicate":
        # the last sample repeats the first, so appending it refits
        X = np.vstack([X, X[:1]])
        f = np.append(f, f[0])
    placed = min(ON_SAMPLES, len(X))
    cands[:placed] = X[:placed]
    return kernel, X, f, cands, cfg


def _engine(kernel, X, f, cands):
    """Fit on the first half of the samples and append the rest."""
    ev = CandidateEvaluator(kernel, cands, 0.25, capacity=len(X))
    half = max(1, len(X) // 2)
    ev.fit(X[:half], f[:half])
    for x, y in zip(X[half:], f[half:]):
        ev.append(x, y)
    return ev


def _check(quadratic, n, design):
    """Every family at every candidate of every seed; returns the check count."""
    checked = 0
    for seed in SEEDS:
        kernel, X, f, cands, (threshold, epsilon) = _cases(quadratic, n, seed, design)
        ev = _engine(kernel, X, f, cands)
        state = ev.state()
        cond_atol = COND_ATOL * np.linalg.cond(state.factor.lower) ** 2 * max(1.0, np.abs(f).max())
        # cond(S_yy) of each candidate whose gradient block is nearly singular
        cond_syy = {}
        for i, c in enumerate(cands):
            syy = gp.joint_posterior(state, c).sigma_yy
            eig = np.linalg.eigvalsh(syy)
            if eig[0] <= SINGULAR_RTOL * max(1.0, eig[-1]):
                cond_syy[i] = np.linalg.cond(syy)
        for family in FAMILIES:
            cfg = AcquisitionConfig(family, threshold, epsilon)
            batch = ev.acquisition_values(cfg)
            for i, c in enumerate(cands):
                ref = acquisition.evaluate(state, c, cfg)
                where = f"{family} seed {seed} candidate {i}: engine {batch[i]!r}, dense {ref!r}"
                if family in ("joint_pi", "joint_ei") and i in cond_syy:
                    tol = ATOL + cond_atol * cond_syy[i] + RTOL * abs(ref)
                    assert abs(batch[i] - ref) <= tol, where
                else:
                    assert batch[i] == pytest.approx(ref, rel=RTOL, abs=ATOL + cond_atol), where
                checked += 1
    return checked


@pytest.mark.parametrize("quadratic,n", CASES)
def test_engine_matches_scalar_path(quadratic, n):
    assert _check(quadratic, n, "random") == len(SEEDS) * len(FAMILIES) * N_CANDS


@pytest.mark.parametrize("design", ["line", "duplicate"])
@pytest.mark.parametrize("quadratic,n", CASES)
def test_engine_matches_scalar_path_on_degenerate_designs(quadratic, n, design):
    assert _check(quadratic, n, design) == len(SEEDS) * len(FAMILIES) * N_CANDS
