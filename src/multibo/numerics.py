"""Dense linear algebra and Gaussian special functions.

Matrices are plain ``numpy.ndarray`` values (row-major, float64). Symmetric
positive-definite systems are factorized once and solved through the factor;
an escalating jitter schedule handles the near-singular covariance matrices
that arise when sampled points nearly coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import erfc

from .errors import DimensionMismatch, NotPositiveDefinite, NotSymmetric

# Escalating diagonal jitter tried in order until factorization succeeds.
DEFAULT_JITTER_SCHEDULE = (0.0, 1e-10, 1e-8, 1e-6)

# Maximum absolute asymmetry tolerated in symmetric-input operations.
SYMMETRY_TOL = 1e-8

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_INV_SQRT_2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor ``L`` with the diagonal jitter actually added.

    ``L @ L.T`` reconstructs the input matrix plus ``jitter * I``.
    """

    lower: np.ndarray
    jitter: float

    @property
    def size(self) -> int:
        return self.lower.shape[0]


def cholesky(m, jitter_schedule=DEFAULT_JITTER_SCHEDULE, symmetry_tol=SYMMETRY_TOL) -> CholeskyFactor:
    """Factorize a symmetric positive-definite matrix.

    Tries each jitter in ``jitter_schedule`` (ascending) and returns the
    factor for the first value whose ``m + jitter*I`` admits a Cholesky
    decomposition.

    Raises
    ------
    NotSymmetric
        If ``max |m - m.T|`` exceeds ``symmetry_tol``.
    NotPositiveDefinite
        If every jitter in the schedule fails.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got shape {m.shape}")
    asym = float(np.max(np.abs(m - m.T))) if m.size else 0.0
    if asym > symmetry_tol:
        raise NotSymmetric(f"max asymmetry {asym:.3e} exceeds {symmetry_tol:.1e}")
    eye = np.eye(m.shape[0])
    for jitter in jitter_schedule:
        try:
            lower = np.linalg.cholesky(m + jitter * eye)
        except np.linalg.LinAlgError:
            continue
        return CholeskyFactor(lower=lower, jitter=float(jitter))
    raise NotPositiveDefinite(
        f"factorization failed for all jitters {tuple(jitter_schedule)}"
    )


def solve(factor: CholeskyFactor, b) -> np.ndarray:
    """Solve ``(M + jitter*I) x = b`` through a precomputed factor.

    ``b`` may be a vector or a matrix of right-hand-side columns.
    """
    b = np.asarray(b, dtype=float)
    if b.shape[0] != factor.size:
        raise DimensionMismatch(
            f"rhs has leading dimension {b.shape[0]}, factor is {factor.size}"
        )
    y = solve_triangular(factor.lower, b, lower=True)
    return solve_triangular(factor.lower.T, y, lower=False)


def _q(z):
    # standard normal tail Q(z) = P(Z > z), elementwise
    return 0.5 * erfc(z * _INV_SQRT_2)


def _phi(z):
    # standard normal density phi(z) = exp(-z^2/2) / sqrt(2 pi), elementwise
    return np.exp(-0.5 * z * z) * _INV_SQRT_2PI

