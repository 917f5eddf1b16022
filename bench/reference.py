"""Dense reference computations, independent of multibo.

Everything here is plain numpy plus ``math.erfc``: the squared-exponential
kernel with its analytic derivatives, the joint (1+n)-dimensional posterior
of value and gradient through ``np.linalg.solve``, conditioning of the value
on a zero gradient, and joint PI/EI multiplied by the gradient-band
probability. It also carries the benchmark objectives' own formulas and a
finite-difference certificate for local maxima. Nothing here imports
``multibo``, so the benchmark's checks do not share code with what they
check.
"""

from __future__ import annotations

import math

import numpy as np

# The default multibo synthetic 1-D objective: (height, center, width) bumps.
DEFAULT_BUMPS = (
    (0.85, 0.08, 0.06),
    (0.72, 0.30, 0.06),
    (0.60, 0.52, 0.06),
    (0.40, 0.70, 0.06),
    (1.30, 1.25, 0.28),
)

_q_scalar = np.vectorize(lambda z: 0.5 * math.erfc(z / math.sqrt(2.0)), otypes=[float])


def q(z):
    """Standard normal tail P(Z > z)."""
    return _q_scalar(np.asarray(z, dtype=float))


def phi(z):
    z = np.asarray(z, dtype=float)
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


# -- objectives -----------------------------------------------------------------


def griewank(x):
    """1 + sum(x_i^2) / 4000 - prod(cos(x_i / sqrt(i))), i counted from 1."""
    x = np.asarray(x, dtype=float)
    out = 1.0 + (x * x).sum(axis=-1) / 4000.0
    prod = np.ones(x.shape[:-1])
    for i in range(x.shape[-1]):
        prod = prod * np.cos(x[..., i] / math.sqrt(i + 1.0))
    return out - prod


def bumps(x, spec=DEFAULT_BUMPS):
    """Sum of Gaussian bumps a * exp(-(x - c)^2 / (2 w^2)) on a 1-D input."""
    x = np.asarray(x, dtype=float)
    if x.ndim and x.shape[-1] == 1:
        x = x[..., 0]
    out = np.zeros_like(x)
    for a, c, w in spec:
        out = out + a * np.exp(-((x - c) ** 2) / (2.0 * w * w))
    return out


def is_local_maximum(f, x, h=1e-4, grad_tol=1e-5):
    """Finite-difference certificate: central gradient ~ 0 and every axis
    second difference negative."""
    x = np.asarray(x, dtype=float)
    f0 = float(f(x))
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        up, dn = float(f(x + e)), float(f(x - e))
        if abs(up - dn) / (2.0 * h) > grad_tol:
            return False
        if not (up - 2.0 * f0 + dn) / (h * h) < 0.0:
            return False
    return True


# -- SE kernel and joint posterior ----------------------------------------------


def se(A, B, alpha, ell):
    """k(a, b) = alpha exp(-|a - b|^2 / (2 ell^2)) for row stacks A (m, n), B (k, n)."""
    d = A[:, None, :] - B[None, :, :]
    return alpha * np.exp(-(d * d).sum(axis=-1) / (2.0 * ell * ell))


def joint_posterior(X, f, prior_mean, alpha, ell, jitter, Q):
    """Posterior mean (M, 1+n) and covariance (M, 1+n, 1+n) of
    (f(q), grad f(q)) at each query row q, given noise-free values ``f`` at
    ``X`` and a constant prior mean. ``jitter`` is added to the diagonal of
    the sample covariance, as the run did."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    f = np.asarray(f, dtype=float)
    k, n = X.shape
    m = Q.shape[0]
    K = se(X, X, alpha, ell) + jitter * np.eye(k)
    kq = se(Q, X, alpha, ell)                                   # (M, k)
    grad = -(Q[:, None, :] - X[None, :, :]) / (ell * ell) * kq[:, :, None]
    A = np.concatenate([kq[:, :, None], grad], axis=2)          # (M, k, 1+n)
    weights = np.linalg.solve(K, f - prior_mean)
    mean = np.einsum("mkj,k->mj", A, weights)
    mean[:, 0] += prior_mean
    rhs = A.transpose(1, 0, 2).reshape(k, m * (1 + n))
    KiA = np.linalg.solve(K, rhs).reshape(k, m, 1 + n).transpose(1, 0, 2)
    prior = np.diag([alpha] + [alpha / (ell * ell)] * n)
    cov = prior[None, :, :] - np.einsum("mki,mkj->mij", A, KiA)
    return mean, 0.5 * (cov + cov.transpose(0, 2, 1))


def condition_on_zero_gradient(mean, cov):
    """Value mean and variance given grad f = 0, per query row."""
    syy = cov[:, 1:, 1:]
    sxy = cov[:, 0, 1:]
    rhs = np.stack([-mean[:, 1:], sxy], axis=2)                 # (M, n, 2)
    beta = np.linalg.solve(syy, rhs)
    cmean = mean[:, 0] + np.einsum("mi,mi->m", sxy, beta[:, :, 0])
    cvar = cov[:, 0, 0] - np.einsum("mi,mi->m", sxy, beta[:, :, 1])
    return cmean, np.maximum(cvar, 0.0)


def band_probability(mean, cov, epsilon):
    """Product over gradient components of P(-epsilon < g_i < epsilon)."""
    mu = mean[:, 1:]
    s = np.sqrt(np.maximum(np.einsum("mii->mi", cov[:, 1:, 1:]), 0.0))
    return np.prod(q((-epsilon - mu) / s) - q((epsilon - mu) / s), axis=1)


def joint_acquisition(family, mean, cov, threshold, epsilon):
    """Joint PI or joint EI: improvement of the gradient-conditioned value,
    times the band probability."""
    cmean, cvar = condition_on_zero_gradient(mean, cov)
    std = np.sqrt(cvar)
    z = (threshold - cmean) / std
    if family == "joint_pi":
        improvement = q(z)
    elif family == "joint_ei":
        improvement = (cmean - threshold) * q(z) + std * phi(z)
    else:
        raise ValueError(f"reference covers joint_pi and joint_ei, not {family!r}")
    return improvement * band_probability(mean, cov, epsilon)
