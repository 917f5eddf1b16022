import numpy as np
import pytest

from multibo.errors import DimensionMismatch
from multibo.kernels import Polynomial, SquaredExponential


def central_diff_grad(kernel, x, y, h=1e-5):
    """Finite-difference d k(y, x) / dy, independent of the analytic path."""
    g = np.empty_like(y, dtype=float)
    for i in range(len(y)):
        e = np.zeros_like(y, dtype=float)
        e[i] = h
        g[i] = (kernel.eval(y + e, x) - kernel.eval(y - e, x)) / (2 * h)
    return g


def nested_diff_hess(kernel, y, y2, h=1e-4):
    """Nested finite differences for d^2 k(y, y2) / dy dy2."""
    n = len(y)
    out = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        for j in range(n):
            ej = np.zeros(n)
            ej[j] = h
            out[i, j] = (
                kernel.eval(y + ei, y2 + ej)
                - kernel.eval(y + ei, y2 - ej)
                - kernel.eval(y - ei, y2 + ej)
                + kernel.eval(y - ei, y2 - ej)
            ) / (4 * h * h)
    return out


def test_se_eval_values():
    se = SquaredExponential(alpha=10.0, length_scale=0.1)
    x = np.array([0.3, -1.2])
    assert se.eval(x, x) == pytest.approx(10.0)
    se1 = SquaredExponential(alpha=1.0, length_scale=1.0)
    assert se1.eval([1.0, 0.0], [0.0, 1.0]) == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_se_eval_symmetry_and_bound():
    se = SquaredExponential(alpha=2.5, length_scale=0.7)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        assert se.eval(x, y) == pytest.approx(se.eval(y, x), rel=1e-14)
        assert se.eval(x, y) <= 2.5
    assert se.eval([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(2.5)


def test_polynomial_eval():
    poly = Polynomial(alpha_bar=1.0)
    assert poly.eval([3.0], [1.0]) == pytest.approx(9.0)
    assert Polynomial(alpha_bar=2.0).eval([1.0, -2.0], [3.0, 1.0]) == pytest.approx(2.0)


def test_dimension_mismatch():
    se = SquaredExponential(1.0, 1.0)
    with pytest.raises(DimensionMismatch):
        se.eval([1.0, 2.0], [1.0])


def test_invalid_parameters():
    with pytest.raises(ValueError):
        SquaredExponential(alpha=0.0, length_scale=1.0)
    with pytest.raises(ValueError):
        SquaredExponential(alpha=1.0, length_scale=-1.0)
    with pytest.raises(ValueError):
        Polynomial(alpha_bar=0.0)


def test_se_grad_second_arg():
    se = SquaredExponential(1.0, 1.0)
    x = np.array([0.7, -0.4])
    assert np.allclose(se.grad_second_arg(x, x), 0.0)
    g = se.grad_second_arg(np.array([0.0]), np.array([1.0]))
    assert g[0] == pytest.approx(-np.exp(-0.5), rel=1e-12)


def test_poly_grad_second_arg_hand_case():
    poly = Polynomial(alpha_bar=1.0)
    g = poly.grad_second_arg(np.array([1.0, 0.0]), np.array([2.0, 2.0]))
    assert np.allclose(g, [4.0, 0.0])


def test_se_hess_mixed_values():
    se = SquaredExponential(alpha=10.0, length_scale=0.1)
    y = np.array([1.3, -0.2])
    assert np.allclose(se.hess_mixed(y, y), 1000.0 * np.eye(2))
    se1 = SquaredExponential(1.0, 1.0)
    assert se1.hess_mixed(np.array([0.0]), np.array([1.0]))[0, 0] == pytest.approx(0.0, abs=1e-14)


def test_poly_hess_mixed_hand_case():
    poly = Polynomial(alpha_bar=1.0)
    h = poly.hess_mixed(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    assert np.allclose(h, [[6.0, 2.0], [2.0, 6.0]])


def test_joint_blocks_se():
    se = SquaredExponential(alpha=10.0, length_scale=0.1)
    kxx, cross, hess = se.joint_blocks_batch(np.array([[0.5, 0.5], [-3.0, 1.0]]))
    assert np.allclose(kxx, 10.0)
    assert np.allclose(cross, 0.0)
    assert np.allclose(hess, 1000.0 * np.eye(2))
    kxx, cross, hess = SquaredExponential(1.0, 1.0).joint_blocks_batch(np.array([[3.0]]))
    assert (kxx[0], cross[0, 0], hess[0, 0, 0]) == (1.0, 0.0, 1.0)


def test_joint_blocks_poly():
    kxx, cross, hess = Polynomial(alpha_bar=1.0).joint_blocks_batch(np.array([[1.0, 0.0]]))
    assert kxx[0] == pytest.approx(1.0)
    assert np.allclose(cross[0], [2.0, 0.0])
    assert np.allclose(hess[0], [[4.0, 0.0], [0.0, 2.0]])


@pytest.mark.parametrize("make", [
    lambda rng: SquaredExponential(alpha=float(rng.uniform(0.5, 5)), length_scale=float(rng.uniform(0.3, 2))),
    lambda rng: Polynomial(alpha_bar=float(rng.uniform(0.5, 3))),
])
def test_gradients_match_finite_differences_100_cases(make):
    rng = np.random.default_rng(42)
    for _ in range(100):
        kern = make(rng)
        n = int(rng.integers(1, 4))
        x = rng.uniform(-2, 2, n)
        y = rng.uniform(-2, 2, n)
        g = kern.grad_second_arg(x, y)
        fd = central_diff_grad(kern, x, y)
        scale = max(np.linalg.norm(fd), 1e-6)
        assert np.linalg.norm(g - fd) / scale < 1e-4


@pytest.mark.parametrize("make", [
    lambda rng: SquaredExponential(alpha=float(rng.uniform(0.5, 5)), length_scale=float(rng.uniform(0.3, 2))),
    lambda rng: Polynomial(alpha_bar=float(rng.uniform(0.5, 3))),
])
def test_hessians_match_nested_finite_differences_100_cases(make):
    rng = np.random.default_rng(7)
    for _ in range(100):
        kern = make(rng)
        n = int(rng.integers(1, 4))
        y = rng.uniform(-2, 2, n)
        y2 = rng.uniform(-2, 2, n)
        h = kern.hess_mixed(y, y2)
        fd = nested_diff_hess(kern, y, y2)
        scale = max(np.linalg.norm(fd), 1e-6)
        assert np.linalg.norm(h - fd) / scale < 1e-3
        assert np.allclose(kern.hess_mixed(y, y), kern.hess_mixed(y, y).T)


def test_grad_tensor_matches_rows():
    rng = np.random.default_rng(5)
    for kern in (SquaredExponential(2.0, 0.6), Polynomial(1.5)):
        Y = rng.uniform(-1, 1, (4, 3))
        X = rng.uniform(-1, 1, (6, 3))
        tens = kern.grad_tensor(Y, X)
        for a in range(4):
            for r in range(6):
                assert np.allclose(tens[a, r], kern.grad_second_arg(X[r], Y[a]))


def test_joint_blocks_batch_matches_scalar():
    rng = np.random.default_rng(9)
    for kern in (SquaredExponential(3.0, 0.4), Polynomial(0.8)):
        Y = rng.uniform(-1.5, 1.5, (5, 2))
        kxx, cross, hess = kern.joint_blocks_batch(Y)
        for a in range(5):
            y = Y[a]
            assert kxx[a] == pytest.approx(kern.eval(y, y), rel=1e-12)
            assert np.allclose(cross[a], kern.grad_second_arg(y, y))
            assert np.allclose(hess[a], kern.hess_mixed(y, y))
