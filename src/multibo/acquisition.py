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

``values`` is ``improvement_factor`` (the PI or EI factor, 1 for
``derivative_only``) times ``band_probability`` for the families with a
band, and the factor alone for the vanilla ones.

``band_bound`` bounds the computed band from above without an erfc: per
dimension, the band's mass is at most its width 2 epsilon times the peak
density over it, phi(t) / s_i, with t = max(|mu_i| - epsilon, 0) / s_i, and
at most the tail beyond its nearer edge, Q(t) <= phi(t) / t. Where
epsilon << s_i the first is tight; where the mean sits many s_i outside the
band the second is, and both are then tiny, so max(factor, 0) times the
bound rules out almost every candidate of a sweep. It is safe because it
bounds the computed band, not only the exact one: a relative and an
absolute slack exceed the rounding of the _q differences and of the bound
itself, a dimension without a positive variance (the indicator branch)
contributes 1, and it is NaN exactly where the band is. It reads only the
gradient means and variances, never the conditional solve, so it does not
depend on the degenerate-case policy below. Rounding is monotone, so
factor * band <= max(factor, 0) * bound holds for the computed values too.

``improvement_bound`` bounds the computed max(factor, 0) in the same spirit,
so that a sweep can skip the gradient solve. For joint EI, let
g = min_d S_yy,dd - sum_{d<e} |S_yy,de|, which is no larger than any row's
Gershgorin margin. Where g > 0 and g >= max_d S_yy,dd / 2:

* Varah's bound, ||S_yy^-1||_inf <= 1 / g, gives |t|_inf <= max_d |S_xy,d| / g.
  It holds for both branches of the degenerate-case policy below: the
  diagonal floor only raises the margin, and the fallback divides by
  dsafe_d >= S_yy,dd >= g. The margin keeps the condition number
  kappa_inf <= 3, so a factor 2 covers the rounding of the closed-form and
  of the LAPACK solve.
* The conditional mean is then at most
  mu_x + 2 (max_d |S_xy,d| / g) sum_d |mu_y,d|, plus ``_BOUND_REL`` times
  |mu_x| and that gain for its own rounding.
* EI grows with the mean, and E[(X - xi)+] <= (m - xi)+ + E[(X - m)+], so
  EI(m, s) <= max(m - xi, 0) + s phi(0), where s <= sqrt(max(S_xx, 0)) as
  the conditional variance is clamped into [0, S_xx]. The computed Q and
  phi are at most 1 and phi(0), so by monotone rounding the computed EI
  obeys the same bound; ``_BOUND_REL`` and ``_BOUND_ABS`` go on top.

Elsewhere the bound is the exact max(factor, 0), solved on those
candidates alone, and so it is for the other families: the factor of
``derivative_only`` is 1, and PI keeps its exact factor, because the bound
1 on it leaves almost every candidate of a flat region able to win (on a
40,000-point 2-D grid with joint PI, 39,500 candidates per step). Wherever
any of a candidate's mean or packed entries is non-finite, the bound is
NaN, so a sweep scores that candidate exactly. The closed bound never
reads the degenerate-case policy's output: it holds for any policy that
only shrinks t on collapsed blocks.

Every formula has one implementation, vectorised over N candidates. A batch
is entry-major: joint means ``mean`` (1 + n, N), the value in row 0, and
packed joint covariances ``packed`` (P, N), one row per entry of the
(1+n) x (1+n) upper triangle in ``packed_pairs(n)`` order. The batched
engine calls ``values`` on column blocks of its arrays; the scalar API
(``evaluate``, ``score``, ``condition_value_on_gradient`` and
``gradient_band_probability``) packs one ``gp.JointGaussian`` and makes an
N = 1 call.

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
from .numerics import _INV_SQRT_2PI, _phi, _q

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
    """P(value > threshold) for Gaussian values; an indicator where std is 0
    (1/2 at the threshold), and NaN where the mean or the std is NaN."""
    if np.all(std > 0.0):
        return _q((threshold - mean) / std)
    safe = np.where(std <= 0.0, 1.0, std)
    indicator = 0.5 + 0.5 * np.sign(mean - threshold)
    return np.where(std <= 0.0, indicator, _q((threshold - mean) / safe))


def expected_improvement(mean, std, threshold):
    """E[(value - threshold)+] for Gaussian values, in closed form; NaN where
    the mean or the std is NaN."""
    if np.all(std > 0.0):
        z = (threshold - mean) / std
        return (mean - threshold) * _q(z) + std * _phi(z)
    safe = np.where(std <= 0.0, 1.0, std)
    z = (threshold - mean) / safe
    smooth = (mean - threshold) * _q(z) + safe * _phi(z)
    return np.where(std <= 0.0, np.maximum(mean - threshold, 0.0), smooth)


def band_probability(mean, packed, epsilon):
    """Probability that every gradient component lies inside (-epsilon, epsilon).

    The product of per-dimension marginals Q((-eps - mu_i) / s_i) -
    Q((eps - mu_i) / s_i), with ``s_i`` the marginal std.
    """
    n = mean.shape[0] - 1
    pos = _position(n)
    prob = np.ones(mean.shape[1])
    for d in range(n):
        s = np.sqrt(np.maximum(packed[pos[(1 + d, 1 + d)]], 0.0))
        mu_d = mean[1 + d]
        safe = np.where(s > 0.0, s, 1.0)
        spread = _q((-epsilon - mu_d) / safe) - _q((epsilon - mu_d) / safe)
        prob *= np.where(s > 0.0, spread, (np.abs(mu_d) < epsilon).astype(float))
    return np.clip(prob, 0.0, 1.0)


# Slack of ``band_bound`` over the exact bound. Absolute: each _q in
# ``band_probability`` carries an absolute error of a few ulps of 1 (erfc's
# own error, and its argument's rounding times |z| phi(z) <= 0.25), and
# where mu_i >> epsilon both _q terms sit near 1, so their difference keeps
# that error however small the band is; 1e-14 is over 40 ulps of 1.
# Relative: the bound's own rounding, a few ulps times 1 + t^2 in phi(t),
# where t <= 38.6 before phi underflows (below 4e-13), plus the n-fold
# products of both sides.
_BOUND_REL = 1e-12
_BOUND_ABS = 1e-14
# candidates per sub-block of ``gather``: its copies stay small, and each
# numpy call over them still outlasts a GIL hand-off in the engine's workers
GATHER = 16_384


def band_bound(mean, packed, epsilon):
    """An upper bound on the computed ``band_probability``, elementwise, from
    one density term per dimension and no erfc.

    Per dimension, with t = max(|mu_i| - epsilon, 0) / s_i the distance from
    the mean to the band in standard deviations, the band's mass is at most
    its width times the density's peak over it, phi(t) 2 epsilon / s_i, and
    at most the Gaussian tail beyond its nearer edge, Q(t) <= phi(t) / t
    (the Mills ratio). A dimension without a positive variance (the
    indicator branch) contributes 1. NaN stays wherever the band is NaN.
    """
    n = mean.shape[0] - 1
    pos = _position(n)
    bound = np.ones(mean.shape[1])
    peak = (1.0 + _BOUND_REL) * _INV_SQRT_2PI
    # in place: the engine calls this on every candidate of every step
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for d in range(n):
            var = packed[pos[(1 + d, 1 + d)]]
            s = np.sqrt(var)  # NaN where var < 0, which takes the indicator's 1 below
            t = np.abs(mean[1 + d])
            t -= epsilon
            np.maximum(t, 0.0, out=t)
            t /= s
            b = np.divide(2.0 * epsilon, s)
            np.minimum(b, np.reciprocal(t), out=b)
            density = np.square(t)
            density *= -0.5
            b *= np.exp(density, out=density)
            b *= peak
            b += _BOUND_ABS
            np.minimum(b, 1.0, out=b)
            bound *= np.where(var > 0.0, b, 1.0)
    return bound


def condition_on_zero_gradient(mean, packed):
    """Value mean and variance conditioned on a zero gradient, from one
    solve t = S_yy^-1 S_yx per candidate:

    mean     = mu_x - S_xy S_yy^-1 mu_y = mu_x - t . mu_y
    variance = S_xx - S_xy S_yy^-1 S_yx = S_xx - t . S_yx, clamped into [0, S_xx]
    """
    n = mean.shape[0] - 1
    sxx = packed[0]
    t = _solve_gradient_block(packed, n)
    gain = np.zeros_like(sxx)
    shrink = np.zeros_like(sxx)
    for d in range(n):
        gain += t[d] * mean[1 + d]
        shrink += packed[1 + d] * t[d]
    return mean[0] - gain, np.clip(sxx - shrink, 0.0, np.maximum(sxx, 0.0))


def _solve_gradient_block(packed, n):
    """t = S_yy^-1 S_yx under the module's degenerate-case policy, (n, N):
    the adjugate over the determinant for n <= 4, batched LAPACK above."""
    N = packed.shape[1]
    pos = _position(n)

    def syy(i, j):
        return packed[pos[(1 + i, 1 + j)]]

    d = [np.maximum(syy(i, i), 0.0) for i in range(n)]
    scale = d[0].copy()
    for i in range(1, n):
        np.maximum(scale, d[i], out=scale)
    big = np.maximum(scale, 1.0)
    floor = 1e-12 * big
    dsafe = [np.maximum(d[i], floor) for i in range(n)]
    tiny = 1e-12 * big ** n
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
        return np.where(ok, exact.T, sxy / np.stack(dsafe))
    adj, det = _cofactors(dsafe, syy)
    ok = np.abs(det) > tiny
    # the fallback branch is formed only when some candidate takes it
    fallback = not ok.all()
    det_safe = np.where(ok, det, 1.0) if fallback else det
    t = np.empty((n, N))
    for i in range(n):
        exact = adj[i][0] * sxy[0]
        for j in range(1, n):
            exact = exact + adj[i][j] * sxy[j]
        t[i] = np.where(ok, exact / det_safe, sxy[i] / dsafe[i]) if fallback else exact / det
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


def improvement_factor(cfg: AcquisitionConfig, mean, packed) -> np.ndarray:
    """The configured family's improvement factor at N candidates: PI or EI of
    the value conditioned on a zero gradient (joint families) or of the value
    marginal (vanilla families), and 1 for ``derivative_only``."""
    if cfg.family == "derivative_only":
        return np.ones(mean.shape[1])
    if cfg.uses_band:
        value_mean, value_var = condition_on_zero_gradient(mean, packed)
    else:
        value_mean, value_var = mean[0], np.maximum(packed[0], 0.0)
    if cfg.family in ("joint_pi", "vanilla_pi"):
        return improvement_probability(value_mean, np.sqrt(value_var), cfg.threshold)
    return expected_improvement(value_mean, np.sqrt(value_var), cfg.threshold)


def improvement_bound(cfg: AcquisitionConfig, mean, packed, exact) -> np.ndarray:
    """An upper bound on the computed max(``improvement_factor``, 0) at N
    candidates that skips the gradient solve wherever it can, and NaN
    wherever any of a candidate's mean or packed entries is non-finite.

    The factor of ``derivative_only`` is 1. For joint EI, a gradient block
    diagonally dominant by a margin of at least half its largest variance
    gets a closed bound (see the module docstring). Every other candidate
    gets the exact max(factor, 0), solved on those alone (``gather``).
    ``exact``, a boolean array of N, is set True where the bound is that
    exact value.
    """
    N = mean.shape[1]
    closed = np.zeros(N, dtype=bool)
    if cfg.family != "joint_ei":
        bound = np.maximum(improvement_factor(cfg, mean, packed), 0.0)
    else:
        bound = np.empty(N)
        closed = _ei_margin_bound(cfg.threshold, mean, packed, bound)
        gather(lambda m, p: np.maximum(improvement_factor(cfg, m, p), 0.0),
               bound, np.flatnonzero(~closed), mean, packed)
    finite = np.isfinite(mean).all(axis=0) & np.isfinite(packed).all(axis=0)
    bound[~finite] = np.nan
    np.logical_and(finite, ~closed, out=exact)
    return bound


def gather(fn, out, idx, mean, packed):
    """``out[idx] = fn(mean[:, idx], packed[:, idx])`` for the candidate
    indices ``idx``, gathered and computed in sub-blocks of at most
    ``GATHER`` indices. ``fn`` must act on each candidate alone."""
    for start in range(0, idx.size, GATHER):
        part = idx[start:start + GATHER]
        out[part] = fn(mean[:, part], packed[:, part])


def _ei_margin_bound(threshold, mean, packed, out):
    """Write the closed joint-EI bound into ``out`` and return where it
    holds: where the margin g = min_d S_yy,dd - sum_{d<e} |S_yy,de| is
    positive and at least half the largest S_yy,dd. ``out`` is garbage
    elsewhere."""
    n = mean.shape[0] - 1
    pos = _position(n)
    # in place: the engine calls this on every candidate of every step
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        margin = packed[pos[(1, 1)]].copy()
        largest = margin.copy()
        for d in range(1, n):
            np.minimum(margin, packed[pos[(1 + d, 1 + d)]], out=margin)
            np.maximum(largest, packed[pos[(1 + d, 1 + d)]], out=largest)
        for d in range(n):
            for e in range(d + 1, n):
                margin -= np.abs(packed[pos[(1 + d, 1 + e)]])
        largest *= 0.5
        closed = margin >= largest
        closed &= margin > 0.0
        # |t|_inf <= max_d |S_xy,d| / g (Varah), doubled for the solve's
        # rounding, bounds the gain sum_d t_d mu_y,d of the conditional mean
        gain = np.abs(packed[1])
        mass = np.abs(mean[1])
        for d in range(1, n):
            np.maximum(gain, np.abs(packed[1 + d]), out=gain)
            mass += np.abs(mean[1 + d])
        gain *= mass
        gain /= margin
        gain *= 2.0
        # the conditional mean is at most mu_x + gain, plus its own rounding
        reach = np.abs(mean[0])
        reach += gain
        reach *= _BOUND_REL
        reach += mean[0]
        reach += gain
        reach -= threshold
        # EI(m, s) <= max(m - xi, 0) + s phi(0), s <= sqrt(max(S_xx, 0))
        np.maximum(reach, 0.0, out=reach)
        spread = np.maximum(packed[0], 0.0)
        np.sqrt(spread, out=spread)
        spread *= _INV_SQRT_2PI
        reach += spread
        reach *= 1.0 + _BOUND_REL
        np.add(reach, _BOUND_ABS, out=out)
    return closed


def values(cfg: AcquisitionConfig, mean, packed) -> np.ndarray:
    """The configured family at N candidates with joint means ``mean``
    (1 + n, N) and packed joint covariances ``packed`` (P, N)."""
    factor = improvement_factor(cfg, mean, packed)
    if not cfg.uses_band:
        return factor
    return factor * band_probability(mean, packed, cfg.epsilon)


# -- scalar API: N = 1 calls ----------------------------------------------------------


def score(j: gp.JointGaussian, cfg: AcquisitionConfig) -> float:
    """The configured family at one joint Gaussian."""
    return float(values(cfg, j.mean[:, None], pack(j.cov))[0])


def condition_value_on_gradient(j: gp.JointGaussian, g) -> ConditionalGaussian:
    """The value of ``j`` conditioned on the gradient taking the value ``g``."""
    g = np.atleast_1d(np.asarray(g, dtype=float))
    if g.shape != (j.dim,):
        raise DimensionMismatch(f"gradient value has shape {g.shape}, expected ({j.dim},)")
    # pinning the gradient at g is pinning the shifted gradient (y - g) at 0
    mean = j.mean.astype(float)
    mean[1:] -= g
    cond_mean, cond_var = condition_on_zero_gradient(mean[:, None], pack(j.cov))
    return ConditionalGaussian(mean=float(cond_mean[0]), variance=float(cond_var[0]))


def gradient_band_probability(j: gp.JointGaussian, epsilon: float) -> float:
    """Probability that every gradient component of ``j`` lies inside
    (-epsilon, epsilon)."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return float(band_probability(j.mean[:, None], pack(j.cov), epsilon)[0])


def evaluate(state: gp.GPState, x, cfg: AcquisitionConfig) -> float:
    """Evaluate the configured acquisition family at one point."""
    return score(gp.joint_posterior(state, x), cfg)

