"""Acquisition functions over the joint (value, gradient) posterior.

The joint families score a candidate by the product of an improvement factor
for the value and the probability that the gradient lies inside the band
(-epsilon, epsilon):

    joint PI: Q((xi - mu) / sigma) * band
    joint EI: [(mu - xi) Q((xi - mu)/sigma) + sigma phi((xi - mu)/sigma)] * band

where (mu, sigma) describe the value conditioned on gradient 0 — the center
of the band, which is narrow by construction. The vanilla families apply the
same improvement formulas to the unconditioned value marginal with no band
factor, and ``derivative_only`` keeps the band factor alone.

Every formula has one implementation, vectorised over N candidates. A batch
is a joint mean of shape (N, 1 + n) and the joint covariances in packed
form: one row per entry of the (1+n) x (1+n) upper triangle, in the order of
``packed_pairs(n)``, shape ((1+n)(2+n)/2, N). The batched engine calls
``values`` on blocks of its candidates; the scalar API (``evaluate``,
``score``, ``condition_value_on_gradient`` and ``gradient_band_probability``)
packs one ``gp.JointGaussian`` and makes an N = 1 call.

Degenerate cases have one policy. A zero value std turns PI and EI into
their limits (a step at the threshold, and max(mean - threshold, 0)); a zero
gradient std turns that dimension's band factor into the indicator
|mu_i| < epsilon. To condition on the gradient, one system S_yy t = S_yx is
solved per candidate, and t gives both the conditional mean and variance.
The diagonal of the gradient block S_yy is floored at 1e-12 max(1, max diag).
If the floored block's determinant is at most 1e-12 max(1, max diag)^n in
magnitude, the solve is replaced by the diagonal approximation
t = S_yx / diag; such candidates sit where the posterior has collapsed onto
data, and the band factor controls the acquisition there. Otherwise the
solve is exact. For n <= 4 it is in closed form, elementwise over the
candidates: the adjugate over the determinant, which is also the
determinant of the test. For n >= 5 numpy's batched LAPACK gives both
(``np.linalg.det`` and ``np.linalg.solve``). The conditional variance is
clamped into [0, S_xx]: conditioning on the gradient can only shrink it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gp
from .errors import ConfigError, DimensionMismatch
from .numerics import _phi, _q

FAMILIES = ("joint_pi", "joint_ei", "vanilla_pi", "vanilla_ei", "derivative_only")

_BAND_FAMILIES = ("joint_pi", "joint_ei", "derivative_only")


@dataclass(frozen=True)
class AcquisitionConfig:
    """Family name plus improvement threshold ``threshold`` (objective units)
    and gradient band half-width ``epsilon``."""

    family: str
    threshold: float
    epsilon: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(
                f"unknown acquisition family {self.family!r}; expected one of {FAMILIES}"
            )
        if not np.isfinite(self.threshold):
            raise ConfigError("threshold must be finite")
        if self.family in _BAND_FAMILIES and not self.epsilon > 0:
            raise ConfigError(f"epsilon must be positive for family {self.family!r}")

    @property
    def uses_value(self) -> bool:
        return self.family != "derivative_only"

    @property
    def uses_band(self) -> bool:
        return self.family in _BAND_FAMILIES


@dataclass(frozen=True)
class ConditionalGaussian:
    """Value distribution after pinning the gradient: scalar mean and variance."""

    mean: float
    variance: float

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))


# -- packed layout -------------------------------------------------------------


@lru_cache(maxsize=None)
def packed_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Entries (i, j), i <= j, of a (1+n) x (1+n) joint covariance in packed
    row order; index 0 is the value, 1 + d the gradient component d."""
    return tuple((i, j) for i in range(1 + n) for j in range(i, 1 + n))


@lru_cache(maxsize=None)
def _position(n: int) -> dict:
    return {pair: p for p, pair in enumerate(packed_pairs(n))}


def pack(cov) -> np.ndarray:
    """One dense joint covariance as a packed batch of one, shape (P, 1)."""
    cov = np.asarray(cov, dtype=float)
    return np.array([[cov[i, j]] for i, j in packed_pairs(cov.shape[0] - 1)])


# -- vectorised formulas ---------------------------------------------------------


def improvement_probability(mean, std, threshold):
    """P(value > threshold) for Gaussian values; an indicator where std is 0."""
    degenerate = np.where(mean > threshold, 1.0, np.where(mean == threshold, 0.5, 0.0))
    safe = np.where(std > 0.0, std, 1.0)
    return np.where(std > 0.0, _q((threshold - mean) / safe), degenerate)


def expected_improvement(mean, std, threshold):
    """E[(value - threshold)+] for Gaussian values, in closed form."""
    safe = np.where(std > 0.0, std, 1.0)
    z = (threshold - mean) / safe
    smooth = (mean - threshold) * _q(z) + safe * _phi(z)
    return np.where(std > 0.0, smooth, np.maximum(mean - threshold, 0.0))


def band_probability(mean, packed, epsilon):
    """Probability that every gradient component lies inside (-epsilon, epsilon).

    The product of per-dimension marginals Q((-eps - mu_i) / s_i) -
    Q((eps - mu_i) / s_i), with ``s_i`` the marginal std.
    """
    n = mean.shape[1] - 1
    pos = _position(n)
    prob = np.ones(mean.shape[0])
    for d in range(n):
        s = np.sqrt(np.maximum(packed[pos[(1 + d, 1 + d)]], 0.0))
        mu_d = mean[:, 1 + d]
        safe = np.where(s > 0.0, s, 1.0)
        spread = _q((-epsilon - mu_d) / safe) - _q((epsilon - mu_d) / safe)
        prob *= np.where(s > 0.0, spread, (np.abs(mu_d) < epsilon).astype(float))
    return np.clip(prob, 0.0, 1.0)


def condition_on_zero_gradient(mean, packed):
    """Value mean and variance conditioned on a zero gradient, from one
    solve t = S_yy^-1 S_yx per candidate:

    mean     = mu_x - S_xy S_yy^-1 mu_y = mu_x - t . mu_y
    variance = S_xx - S_xy S_yy^-1 S_yx = S_xx - t . S_yx, clamped into [0, S_xx]
    """
    n = mean.shape[1] - 1
    sxx = packed[0]
    t = _solve_gradient_block(packed, n)
    gain = np.zeros_like(sxx)
    shrink = np.zeros_like(sxx)
    for d in range(n):
        gain += t[:, d] * mean[:, 1 + d]
        shrink += packed[1 + d] * t[:, d]
    return mean[:, 0] - gain, np.clip(sxx - shrink, 0.0, np.maximum(sxx, 0.0))


def _solve_gradient_block(packed, n):
    """t = S_yy^-1 S_yx under the module's degenerate-case policy, (N, n):
    the adjugate over the determinant for n <= 4, batched LAPACK above."""
    N = packed.shape[1]
    pos = _position(n)

    def syy(i, j):
        return packed[pos[(1 + i, 1 + j)]]

    d = [np.maximum(syy(i, i), 0.0) for i in range(n)]
    scale = d[0].copy()
    for i in range(1, n):
        np.maximum(scale, d[i], out=scale)
    floor = 1e-12 * np.maximum(scale, 1.0)
    dsafe = [np.maximum(d[i], floor) for i in range(n)]
    tiny = 1e-12 * np.maximum(scale, 1.0) ** n
    sxy = packed[1:1 + n]
    if n > 4:
        block = np.empty((N, n, n))
        for i in range(n):
            block[:, i, i] = dsafe[i]
            for j in range(i + 1, n):
                block[:, i, j] = block[:, j, i] = syy(i, j)
        ok = np.abs(np.linalg.det(block)) > tiny
        block[~ok] = np.eye(n)  # an invertible stand-in, its solution unused
        exact = np.linalg.solve(block, sxy.T[:, :, None])[:, :, 0]
        return np.where(ok[:, None], exact, (sxy / np.stack(dsafe)).T)
    adj, det = _cofactors(dsafe, syy)
    ok = np.abs(det) > tiny
    det_safe = np.where(ok, det, 1.0)
    t = np.empty((N, n))
    for i in range(n):
        exact = adj[i][0] * sxy[0]
        for j in range(1, n):
            exact = exact + adj[i][j] * sxy[j]
        t[:, i] = np.where(ok, exact / det_safe, sxy[i] / dsafe[i])
    return t


# the column pairs of a 4 x 4 block's 2 x 2 minors
_PAIRS4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _cofactors(d, syy):
    """Cofactor matrix (the adjugate, as the block is symmetric) and
    determinant of the gradient block, n <= 4, with diagonal ``d`` and
    off-diagonal entries ``syy(i, j)``, i < j.

    For n = 4 both come from the 2 x 2 minors of rows (0, 1) and of rows
    (2, 3): the determinant is their Laplace expansion along the first two
    rows, and each cofactor is a signed 3 x 3 minor expanded along one row
    with the 2 x 2 minors of the other pair of rows."""
    n = len(d)
    if n == 1:
        adj = [[1.0]]
    elif n == 2:
        o = -syy(0, 1)
        adj = [[d[1], o], [o, d[0]]]
    elif n == 3:
        a, b, c = d
        e, f, g = syy(0, 1), syy(0, 2), syy(1, 2)
        c01 = f * g - e * c
        c02 = e * g - f * b
        c12 = e * f - a * g
        adj = [[b * c - g * g, c01, c02], [c01, a * c - f * f, c12], [c02, c12, a * b - e * e]]
    else:
        a00, a11, a22, a33 = d
        a01, a02, a03, a12, a13, a23 = (syy(j, k) for j, k in _PAIRS4)
        a = [[a00, a01, a02, a03], [a01, a11, a12, a13], [a02, a12, a22, a23], [a03, a13, a23, a33]]
        # the minors of rows (0, 1), then of rows (2, 3)
        s0, s1, s2, s3, s4, s5 = (a[0][j] * a[1][k] - a[0][k] * a[1][j] for j, k in _PAIRS4)
        c0, c1, c2, c3, c4, c5 = (a[2][j] * a[3][k] - a[2][k] * a[3][j] for j, k in _PAIRS4)
        x01 = -a01 * c5 + a02 * c4 - a03 * c3
        x02 = a13 * s5 - a23 * s4 + a33 * s3
        x03 = -a12 * s5 + a22 * s4 - a23 * s3
        x12 = -a03 * s5 + a23 * s2 - a33 * s1
        x13 = a02 * s5 - a22 * s2 + a23 * s1
        x23 = -a02 * s4 + a12 * s2 - a23 * s0
        adj = [[a11 * c5 - a12 * c4 + a13 * c3, x01, x02, x03],
               [x01, a00 * c5 - a02 * c2 + a03 * c1, x12, x13],
               [x02, x12, a03 * s4 - a13 * s2 + a33 * s0, x23],
               [x03, x13, x23, a02 * s3 - a12 * s1 + a22 * s0]]
        return adj, s0 * c5 - s1 * c4 + s2 * c3 + s3 * c2 - s4 * c1 + s5 * c0
    det = d[0] * adj[0][0]
    for j in range(1, n):
        det = det + syy(0, j) * adj[0][j]
    return adj, det


def values(cfg: AcquisitionConfig, mean, packed) -> np.ndarray:
    """The configured family at N candidates with joint means ``mean``
    (N, 1 + n) and packed joint covariances ``packed`` (P, N)."""
    if cfg.family in ("vanilla_pi", "vanilla_ei"):
        std = np.sqrt(np.maximum(packed[0], 0.0))
        if cfg.family == "vanilla_pi":
            return improvement_probability(mean[:, 0], std, cfg.threshold)
        return expected_improvement(mean[:, 0], std, cfg.threshold)
    band = band_probability(mean, packed, cfg.epsilon)
    if cfg.family == "derivative_only":
        return band
    cond_mean, cond_var = condition_on_zero_gradient(mean, packed)
    if cfg.family == "joint_pi":
        return improvement_probability(cond_mean, np.sqrt(cond_var), cfg.threshold) * band
    return expected_improvement(cond_mean, np.sqrt(cond_var), cfg.threshold) * band


# -- scalar API: N = 1 calls ----------------------------------------------------------


def score(j: gp.JointGaussian, cfg: AcquisitionConfig) -> float:
    """The configured family at one joint Gaussian."""
    return float(values(cfg, j.mean[None, :], pack(j.cov))[0])


def condition_value_on_gradient(j: gp.JointGaussian, g) -> ConditionalGaussian:
    """The value of ``j`` conditioned on the gradient taking the value ``g``."""
    g = np.atleast_1d(np.asarray(g, dtype=float))
    if g.shape != (j.dim,):
        raise DimensionMismatch(f"gradient value has shape {g.shape}, expected ({j.dim},)")
    # pinning the gradient at g is pinning the shifted gradient (y - g) at 0
    mean = j.mean.astype(float)
    mean[1:] -= g
    cond_mean, cond_var = condition_on_zero_gradient(mean[None, :], pack(j.cov))
    return ConditionalGaussian(mean=float(cond_mean[0]), variance=float(cond_var[0]))


def gradient_band_probability(j: gp.JointGaussian, epsilon: float) -> float:
    """Probability that every gradient component of ``j`` lies inside
    (-epsilon, epsilon)."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return float(band_probability(j.mean[None, :], pack(j.cov), epsilon)[0])


def evaluate(state: gp.GPState, x, cfg: AcquisitionConfig) -> float:
    """Evaluate the configured acquisition family at one point."""
    return score(gp.joint_posterior(state, x), cfg)

