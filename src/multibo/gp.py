"""Gaussian process posterior over (value, gradient) pairs.

Fitting conditions a GP with constant prior mean on noise-free value
observations. Queries return the joint (1+n)-dimensional Gaussian over the
function value and its gradient at one point x, built from the kernel and
its analytic derivative blocks:

    mean = [mu0 + a K^-1 (f - mu0);  G K^-1 (f - mu0)]
    cov  = K0 - A K^-1 A^T

where ``A`` stacks the value row ``a = k(x, x_1:k)`` over the gradient rows
``G = dk(x, x_1:k)/dx`` (``grad_tensor``) and ``K0`` is the joint prior
block at x (``joint_blocks_batch``). The constant prior mean re-enters the value component only; its
derivative is zero.

This module holds the posterior only; conditioning the value on the
gradient, the band probability and the acquisition families live in
``multibo.acquisition``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import DimensionMismatch, EmptyData, NonFinite, NotPositiveDefinite
from .kernels import Kernel

# Diagonal entries of a posterior covariance may dip slightly negative from
# round-off; they are clamped to zero. Entries below this (scale-adjusted)
# floor indicate a broken factorization instead. The floor is generous
# because the smallest-jitter policy can leave rank-deficient kernel
# matrices (the homogeneous quadratic kernel in particular) with condition
# numbers near 1/eps, where round-off legitimately reaches 1e-4 scale.
DIAG_BREAKDOWN_TOL = 1e-3


@dataclass(frozen=True)
class GPState:
    """Immutable fitted GP: training data plus factorized covariance.

    ``alpha_vec`` caches ``K^-1 (values - prior_mean)`` so posterior queries
    cost one kernel-row product.
    """

    inputs: np.ndarray
    values: np.ndarray
    prior_mean: float
    kernel: Kernel
    factor: numerics.CholeskyFactor
    alpha_vec: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class JointGaussian:
    """Joint Gaussian over (f(x), grad f(x)); mean is a (1+n)-vector."""

    mean: np.ndarray
    cov: np.ndarray

    @property
    def dim(self) -> int:
        """Gradient dimension n."""
        return self.mean.shape[0] - 1

    @property
    def mu_x(self) -> float:
        return float(self.mean[0])

    @property
    def mu_y(self) -> np.ndarray:
        return self.mean[1:]

    @property
    def sigma_xx(self) -> float:
        return float(self.cov[0, 0])

    @property
    def sigma_xy(self) -> np.ndarray:
        return self.cov[0, 1:]

    @property
    def sigma_yy(self) -> np.ndarray:
        return self.cov[1:, 1:]


def fit(inputs, values, prior_mean: float, kernel: Kernel,
        jitter_schedule=numerics.DEFAULT_JITTER_SCHEDULE) -> GPState:
    """Fit a GP on noise-free observations.

    ``inputs`` is a (k, n) row stack (1-D input accepted for n = 1);
    ``values`` the k observed objective values.
    """
    X = np.asarray(inputs, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    f = np.asarray(values, dtype=float).ravel()
    if X.shape[0] == 0:
        raise EmptyData("fit requires at least one sample")
    if X.shape[0] != f.shape[0]:
        raise DimensionMismatch(
            f"{X.shape[0]} inputs but {f.shape[0]} values"
        )
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(f))):
        raise NonFinite("inputs and values must be finite")
    K = kernel.eval_matrix(X, X)
    K = 0.5 * (K + K.T)
    factor = numerics.cholesky(K, jitter_schedule)
    alpha_vec = numerics.solve(factor, f - prior_mean)
    return GPState(
        inputs=X,
        values=f,
        prior_mean=float(prior_mean),
        kernel=kernel,
        factor=factor,
        alpha_vec=alpha_vec,
    )


def _query_point(state: GPState, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (state.dim,):
        raise DimensionMismatch(
            f"query has shape {x.shape}, training dimension is {state.dim}"
        )
    return x


def joint_posterior(state: GPState, x) -> JointGaussian:
    """Joint posterior over the value and gradient at one point, (f(x), grad f(x)).

    The covariance is symmetrized and its diagonal clamped at zero within
    tolerance; a diagonal entry more negative than the scaled tolerance
    signals a numerically broken factorization and raises.
    """
    x = _query_point(state, x)
    X = state.inputs
    n = state.dim

    a_val = state.kernel.eval_matrix(x[None, :], X)[0]
    a_grad = state.kernel.grad_tensor(x[None, :], X)[0].T  # (n, k)
    A = np.vstack([a_val[None, :], a_grad])

    mean = np.empty(1 + n)
    mean[0] = state.prior_mean + a_val @ state.alpha_vec
    mean[1:] = a_grad @ state.alpha_vec

    k0 = state.kernel.joint_blocks_batch(x[None, :])[0]
    cov = k0 - A @ numerics.solve(state.factor, A.T)
    cov = 0.5 * (cov + cov.T)
    scale = max(1.0, float(np.max(np.abs(np.diag(k0)))))
    d = np.diag(cov)
    if np.any(d < -DIAG_BREAKDOWN_TOL * scale):
        raise NotPositiveDefinite(
            f"posterior covariance diagonal reached {d.min():.3e}"
        )
    np.fill_diagonal(cov, np.maximum(d, 0.0))
    return JointGaussian(mean=mean, cov=cov)


def value_posterior(state: GPState, x) -> tuple[float, float]:
    """Marginal posterior (mean, variance) of the value alone at ``x``."""
    x = _query_point(state, x)
    a_val = state.kernel.eval_matrix(x[None, :], state.inputs)[0]
    mean = state.prior_mean + float(a_val @ state.alpha_vec)
    var = state.kernel.joint_blocks_batch(x[None, :])[0, 0, 0] - float(
        a_val @ numerics.solve(state.factor, a_val)
    )
    return mean, max(var, 0.0)
