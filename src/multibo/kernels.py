"""Covariance kernels with analytic first and mixed-second derivatives.

Two families are provided:

* ``SquaredExponential``:  k(x, y) = alpha * exp(-||x - y||^2 / (2 l^2))
* ``Polynomial``:          k(x, y) = alpha_bar * (x . y)^2, the homogeneous
  quadratic kernel

Conventions
-----------
``eval_matrix(X, Y)`` is the kernel matrix k(x_a, y_b) between two row
stacks. ``grad_tensor(Y, X)`` differentiates with respect to the *derivative
argument* y of k(y, x): entry [a, r] is dk(y_a, x_r)/dy, shape (m, k, n). For
a stationary kernel this flips sign when the two points swap roles, so the
convention matters. ``joint_blocks_batch(Y)`` is the dense joint prior block
K0(y) of (f(y), grad f(y)) at each candidate, shape (m, 1 + n, 1 + n): entry
[0, 0] is k(y, y), row 0 beyond it the gradient dk(y, y2)/dy at y2 = y, and
the lower-right n x n block the mixed Hessian d^2 k(y, y2) / dy dy2 at
y2 = y. Both stacks of a pair must have the same point dimension, else
``DimensionMismatch``.

Batched algebra for the engine
------------------------------
``engine.CandidateEvaluator`` keeps, per sample, ``cross_rows`` cache rows
against every candidate and learns from ``stationary`` whether the joint
prior block K0(y) is the same at every candidate. Besides ``eval_matrix``,
``grad_tensor`` and ``joint_blocks_batch`` (which it calls on its own
thread), it relies on four methods that are plain numpy on the slices they
are given, all entry-major like the engine's arrays:

* ``fill_cross``: the cache rows (cross_rows, m) of one sample against a
  candidate block;
* ``joint_dot``: the raw GEMM rows (1 + n, m) of A(y) @ w for one weight w,
  from the cache (k, cross_rows, m) of k samples;
* ``finish_dot``: the gradient fixup that turns those rows into A(y) @ w;
* ``joint_column``: the joint kernel column [k(y, x); dk(y, x)/dy] of one
  sample over a candidate block, (1 + n, m).

A kernel with ``separable`` set is a product of one factor per axis, so on a
tensor grid of candidates the engine keeps per-axis factors instead of the
cache rows. It has one cache row (the kernel value), and two more methods:

* ``axis_factors``: the factors of one sample over the grid's axes;
* ``dot_weights``: the weight columns W of the raw GEMM, whose output row c
  holds sum_r W[r, c] k(y, x_r) (``joint_dot`` is one GEMM against them).

Sums over dimensions run column by column, in ``np.sum``'s order: a 2-D op
over (rows, n) views loops over n innermost, and a BLAS gemv rounds
differently with the row count and its threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


def _stacks(X, Y):
    """``X`` and ``Y`` as float row stacks of one point dimension."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise DimensionMismatch("row stacks have different point dimensions")
    return X, Y


@dataclass(frozen=True)
class SquaredExponential:
    """Squared-exponential kernel with scale factor ``alpha`` and length scale ``length_scale``."""

    alpha: float
    length_scale: float

    cross_rows = 1      # cache row per sample: k(y, x)
    stationary = True   # K0(y) = blockdiag(alpha, alpha / l^2 I) at every y
    separable = True    # k(y, x) = alpha prod_d exp(-(y_d - x_d)^2 / (2 l^2))

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not self.length_scale > 0:
            raise ValueError("length_scale must be positive")

    def eval_matrix(self, X, Y) -> np.ndarray:
        """Pairwise kernel matrix between row stacks ``X`` (m, n) and ``Y`` (k, n)."""
        X, Y = _stacks(X, Y)
        d2 = (
            np.sum(X * X, axis=1)[:, None]
            - 2.0 * X @ Y.T
            + np.sum(Y * Y, axis=1)[None, :]
        )
        np.maximum(d2, 0.0, out=d2)
        return self.alpha * np.exp(-d2 / (2.0 * self.length_scale**2))

    def grad_tensor(self, Y, X) -> np.ndarray:
        """Gradients dk(y, x_r)/dy for every candidate y in ``Y`` (m, n) and sample x_r in ``X`` (k, n).

        Returns shape (m, k, n): -((y - x_r) / l^2) k(y, x_r).
        """
        Y, X = _stacks(Y, X)
        kern = self.eval_matrix(Y, X)
        diff = Y[:, None, :] - X[None, :, :]
        return -diff / self.length_scale**2 * kern[:, :, None]

    def joint_blocks_batch(self, Y) -> np.ndarray:
        """Joint prior blocks K0(y) at the candidates ``Y`` (m, n), shape
        (m, 1 + n, 1 + n): blockdiag(alpha, alpha / l^2 I) at every y."""
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        m, n = Y.shape
        block = np.diag([self.alpha] + [self.alpha / self.length_scale**2] * n)
        return np.repeat(block[None], m, axis=0)

    def fill_cross(self, cache, x, Y):
        """Cache row of sample ``x`` against candidates ``Y`` (m, n), written
        into ``cache`` (cross_rows, m)."""
        d2 = (Y[:, 0] - x[0]) ** 2
        for d in range(1, Y.shape[1]):
            d2 += (Y[:, d] - x[d]) ** 2
        cache[0] = self.alpha * np.exp(-d2 / (2.0 * self.length_scale**2))

    def axis_factors(self, x, axes):
        """Factors of k(y, x) on the tensor grid ``axes``, one array per axis:
        k at the grid point (axes[0][i_0], ..., axes[n-1][i_{n-1}]) is the
        product over d of factors[d][i_d]. ``alpha`` rides on the first."""
        factors = [np.exp(-((a - c) ** 2) / (2.0 * self.length_scale**2)) for a, c in zip(axes, x)]
        factors[0] *= self.alpha
        return factors

    def dot_weights(self, X, w):
        """Weight columns [w, w x_r] of the raw GEMM over the samples ``X``
        (k, n): column 0 gives sum_r w_r k(y, x_r), the rest give
        sum_r w_r x_r k(y, x_r)."""
        return np.column_stack([w, w[:, None] * X])

    def joint_dot(self, cache, X, w, out):
        """Raw GEMM rows for A(y) @ w over the candidates, written into
        ``out`` (1 + n, m); ``cache`` holds the cross rows (k, cross_rows, m)
        of the samples ``X`` (k, n). One GEMM against ``dot_weights``.
        """
        np.matmul(self.dot_weights(X, w).T, cache[:, 0], out=out)
        return out

    def finish_dot(self, out, Y):
        """Turn the raw GEMM rows ``out`` (1 + n, m) for candidates ``Y``
        into A(y) @ w: the gradient weight sum is
        (sum_r w_r x_r k - y sum_r w_r k) / l^2."""
        for d in range(Y.shape[1]):
            grad = out[1 + d]
            grad -= Y[:, d] * out[0]
            grad /= self.length_scale**2
        return out

    def joint_column(self, cache, x, Y):
        """Joint kernel column [k(y, x); dk(y, x)/dy] of sample ``x`` for
        candidates ``Y`` from its cache rows ``cache``, entry-major (1 + n, m)."""
        kcol = cache[0]
        out = np.empty((1 + Y.shape[1], kcol.shape[0]))
        out[0] = kcol
        l2 = self.length_scale**2
        for d in range(Y.shape[1]):
            out[1 + d] = (Y[:, d] - x[d]) * kcol / -l2
        return out


@dataclass(frozen=True)
class Polynomial:
    """Homogeneous quadratic kernel ``alpha_bar * (x . y)^2``."""

    alpha_bar: float

    cross_rows = 2      # cache rows per sample: k(y, x) and y . x
    stationary = False
    separable = False

    def __post_init__(self):
        if not self.alpha_bar > 0:
            raise ValueError("alpha_bar must be positive")

    def eval_matrix(self, X, Y) -> np.ndarray:
        X, Y = _stacks(X, Y)
        return self.alpha_bar * (X @ Y.T) ** 2

    def grad_tensor(self, Y, X) -> np.ndarray:
        """dk(y, x_r)/dy = 2 alpha_bar (y . x_r) x_r, shape (m, k, n)."""
        Y, X = _stacks(Y, X)
        dots = Y @ X.T
        return 2.0 * self.alpha_bar * dots[:, :, None] * X[None, :, :]

    def joint_blocks_batch(self, Y) -> np.ndarray:
        """Joint prior blocks K0(y) at the candidates ``Y`` (m, n), shape
        (m, 1 + n, 1 + n): k(y, y) = alpha_bar |y|^4, gradient
        2 alpha_bar |y|^2 y and mixed Hessian 2 alpha_bar (y y^T + |y|^2 I)."""
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        m, n = Y.shape
        sq = np.sum(Y * Y, axis=1)
        out = np.empty((m, 1 + n, 1 + n))
        out[:, 0, 0] = self.alpha_bar * sq**2
        out[:, 0, 1:] = out[:, 1:, 0] = 2.0 * self.alpha_bar * sq[:, None] * Y
        # in place: the engine asks for the blocks of every candidate at once
        hess = np.multiply(Y[:, :, None], Y[:, None, :], out=out[:, 1:, 1:])
        hess += sq[:, None, None] * np.eye(n)
        hess *= 2.0 * self.alpha_bar
        return out

    def fill_cross(self, cache, x, Y):
        """Cache rows of sample ``x`` against candidates ``Y`` (m, n), written
        into ``cache`` (cross_rows, m)."""
        p = Y[:, 0] * x[0]
        for d in range(1, Y.shape[1]):
            p += Y[:, d] * x[d]
        cache[1] = p
        cache[0] = self.alpha_bar * p**2

    def joint_dot(self, cache, X, w, out):
        """Raw GEMM rows for A(y) @ w over the candidates, as for
        ``SquaredExponential``: row 0 holds sum_r w_r k(y, x_r), the rest
        hold sum_r w_r (y . x_r) x_r."""
        np.matmul(w[None, :], cache[:, 0], out=out[:1])
        np.matmul((w[:, None] * X).T, cache[:, 1], out=out[1:])
        return out

    def finish_dot(self, out, Y):
        """Turn the raw GEMM rows into A(y) @ w."""
        for d in range(Y.shape[1]):
            out[1 + d] *= 2.0 * self.alpha_bar
        return out

    def joint_column(self, cache, x, Y):
        """Joint kernel column [k(y, x); dk(y, x)/dy] of sample ``x`` for
        candidates ``Y`` from its cache rows ``cache``, entry-major (1 + n, m)."""
        out = np.empty((1 + Y.shape[1], cache.shape[1]))
        out[0] = cache[0]
        for d in range(Y.shape[1]):
            np.multiply(cache[1], 2.0 * self.alpha_bar * x[d], out=out[1 + d])
        return out


Kernel = SquaredExponential | Polynomial
