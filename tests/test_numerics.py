import numpy as np
import pytest
from scipy.integrate import quad

from multibo import numerics
from multibo.errors import DimensionMismatch, NotPositiveDefinite, NotSymmetric
from multibo.numerics import _phi, _q


def test_cholesky_identity():
    f = numerics.cholesky(np.eye(3), [0.0])
    assert np.allclose(f.lower, np.eye(3))
    assert f.jitter == 0.0


def test_cholesky_hand_expanded_2x2():
    f = numerics.cholesky([[4.0, 2.0], [2.0, 3.0]], [0.0])
    assert np.allclose(f.lower, [[2.0, 0.0], [1.0, np.sqrt(2.0)]])


def test_cholesky_rank_deficient_needs_jitter():
    f = numerics.cholesky([[1.0, 1.0], [1.0, 1.0]], [0.0, 1e-8])
    assert f.jitter == 1e-8
    m = f.lower @ f.lower.T
    assert np.allclose(m, np.array([[1.0, 1.0], [1.0, 1.0]]) + 1e-8 * np.eye(2))


def test_cholesky_exhausted_schedule():
    with pytest.raises(NotPositiveDefinite):
        numerics.cholesky([[1.0, 2.0], [2.0, 1.0]], [0.0])  # indefinite


def test_cholesky_rejects_asymmetry():
    with pytest.raises(NotSymmetric):
        numerics.cholesky([[1.0, 0.5], [0.0, 1.0]])


def test_cholesky_reconstruction_tolerance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = rng.integers(2, 9)
        a = rng.standard_normal((n, n))
        m = a @ a.T + n * np.eye(n)
        f = numerics.cholesky(m)
        rel = np.linalg.norm(f.lower @ f.lower.T - (m + f.jitter * np.eye(n))) / np.linalg.norm(m)
        assert rel < 1e-8


def test_solve_identity_and_diagonal():
    f = numerics.cholesky(np.eye(2), [0.0])
    assert np.allclose(numerics.solve(f, [5.0, -1.0]), [5.0, -1.0])
    f = numerics.cholesky(np.diag([2.0, 2.0]), [0.0])
    assert np.allclose(numerics.solve(f, [4.0, 6.0]), [2.0, 3.0])


def test_solve_2x2_direct():
    f = numerics.cholesky([[4.0, 2.0], [2.0, 3.0]], [0.0])
    assert np.allclose(numerics.solve(f, [2.0, 3.0]), [0.0, 1.0])


def test_solve_dimension_mismatch():
    f = numerics.cholesky(np.eye(2))
    with pytest.raises(DimensionMismatch):
        numerics.solve(f, [1.0, 2.0, 3.0])


def test_solve_roundtrip_on_random_spd():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = rng.integers(1, 9)
        a = rng.standard_normal((n, n))
        m = a @ a.T + 0.5 * np.eye(n)
        v = rng.standard_normal(n)
        f = numerics.cholesky(m)
        x = numerics.solve(f, m @ v)
        assert np.linalg.norm(x - v) <= 1e-7 * max(1.0, np.linalg.norm(v))


def test_q_function_basics():
    assert _q(0.0) == pytest.approx(0.5, abs=1e-15)
    assert _q(10.0) < 1e-23
    ref, _ = quad(lambda t: np.exp(-0.5 * t * t) / np.sqrt(2 * np.pi), 1.0, 40.0)
    assert _q(1.0) == pytest.approx(ref, abs=1e-10)


def test_q_function_symmetry_and_monotonicity():
    z = np.linspace(-8.0, 8.0, 401)
    q = _q(z)
    assert np.max(np.abs(q + _q(-z) - 1.0)) < 1e-12
    assert np.all(np.diff(q) < 0)


def test_normal_pdf_values():
    assert _phi(0.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi), rel=1e-12)
    assert _phi(1.0) == pytest.approx(np.exp(-0.5) / np.sqrt(2 * np.pi), rel=1e-12)
    assert _phi(2.0) == _phi(-2.0)
