import numpy as np
import pytest

from multibo.errors import DimensionMismatch
from multibo.kernels import Polynomial, SquaredExponential


def k(kernel, a, b):
    """k(a, b) for two points, through ``eval_matrix`` alone."""
    return kernel.eval_matrix(np.asarray(a, dtype=float)[None, :],
                              np.asarray(b, dtype=float)[None, :])[0, 0]


def central_diff_grad(kernel, x, y, h=1e-5):
    """Finite-difference d k(y, x) / dy, independent of the analytic path."""
    g = np.empty_like(y, dtype=float)
    for i in range(len(y)):
        e = np.zeros_like(y, dtype=float)
        e[i] = h
        g[i] = (k(kernel, y + e, x) - k(kernel, y - e, x)) / (2 * h)
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
                k(kernel, y + ei, y2 + ej)
                - k(kernel, y + ei, y2 - ej)
                - k(kernel, y - ei, y2 + ej)
                + k(kernel, y - ei, y2 - ej)
            ) / (4 * h * h)
    return out


def fd_joint_block(kernel, y):
    """The joint prior block K0(y) from ``eval_matrix`` alone: k(y, y), its
    central-difference gradient at y2 = y and the nested-difference Hessian."""
    n = len(y)
    out = np.empty((1 + n, 1 + n))
    out[0, 0] = k(kernel, y, y)
    out[0, 1:] = out[1:, 0] = central_diff_grad(kernel, y, y)
    out[1:, 1:] = nested_diff_hess(kernel, y, y)
    return out


def test_se_eval_values():
    se = SquaredExponential(alpha=10.0, length_scale=0.1)
    x = np.array([0.3, -1.2])
    assert k(se, x, x) == pytest.approx(10.0)
    se1 = SquaredExponential(alpha=1.0, length_scale=1.0)
    assert k(se1, [1.0, 0.0], [0.0, 1.0]) == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_se_eval_symmetry_and_bound():
    se = SquaredExponential(alpha=2.5, length_scale=0.7)
    rng = np.random.default_rng(0)
    X, Y = rng.standard_normal((50, 3)), rng.standard_normal((40, 3))
    K = se.eval_matrix(X, Y)
    np.testing.assert_allclose(K, se.eval_matrix(Y, X).T, rtol=1e-14)
    assert np.all(K <= 2.5)
    assert k(se, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(2.5)


def test_polynomial_eval():
    poly = Polynomial(alpha_bar=1.0)
    assert k(poly, [3.0], [1.0]) == pytest.approx(9.0)
    assert k(Polynomial(alpha_bar=2.0), [1.0, -2.0], [3.0, 1.0]) == pytest.approx(2.0)


def test_dimension_mismatch():
    for kern in (SquaredExponential(1.0, 1.0), Polynomial(1.0)):
        with pytest.raises(DimensionMismatch):
            kern.eval_matrix([[1.0, 2.0]], [[1.0]])
        with pytest.raises(DimensionMismatch):
            kern.grad_tensor(np.zeros((3, 2)), np.zeros((4, 3)))
        # the block's width follows the point dimension: 1 + n
        assert kern.joint_blocks_batch([1.0, 2.0]).shape == (1, 3, 3)
        assert kern.joint_blocks_batch([[1.0], [2.0]]).shape == (2, 2, 2)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        SquaredExponential(alpha=0.0, length_scale=1.0)
    with pytest.raises(ValueError):
        SquaredExponential(alpha=1.0, length_scale=-1.0)
    with pytest.raises(ValueError):
        Polynomial(alpha_bar=0.0)


def test_se_grad_second_arg():
    se = SquaredExponential(1.0, 1.0)
    x = np.array([[0.7, -0.4]])
    assert np.allclose(se.grad_tensor(x, x), 0.0)
    g = se.grad_tensor(np.array([[1.0]]), np.array([[0.0]]))
    assert g.shape == (1, 1, 1)
    assert g[0, 0, 0] == pytest.approx(-np.exp(-0.5), rel=1e-12)


def test_poly_grad_second_arg_hand_case():
    poly = Polynomial(alpha_bar=1.0)
    g = poly.grad_tensor(np.array([[2.0, 2.0]]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert g.shape == (1, 2, 2)
    assert np.allclose(g[0], [[4.0, 0.0], [0.0, 4.0]])


def test_se_hess_mixed_values():
    se = SquaredExponential(alpha=10.0, length_scale=0.1)
    block = se.joint_blocks_batch(np.array([[1.3, -0.2]]))[0]
    assert np.allclose(block[1:, 1:], 1000.0 * np.eye(2))
    assert np.array_equal(block[0, 1:], [0.0, 0.0])


def test_poly_hess_mixed_hand_case():
    poly = Polynomial(alpha_bar=1.0)
    block = poly.joint_blocks_batch(np.array([[1.0, 1.0]]))[0]
    assert np.allclose(block[1:, 1:], [[6.0, 2.0], [2.0, 6.0]])
    assert np.allclose(block[0], [4.0, 4.0, 4.0])


def test_joint_blocks_se():
    se = SquaredExponential(alpha=10.0, length_scale=0.1)
    blocks = se.joint_blocks_batch(np.array([[0.5, 0.5], [-3.0, 1.0]]))
    assert blocks.shape == (2, 3, 3)
    assert np.allclose(blocks, np.diag([10.0, 1000.0, 1000.0]))
    block = SquaredExponential(1.0, 1.0).joint_blocks_batch(np.array([[3.0]]))
    assert block.tolist() == [[[1.0, 0.0], [0.0, 1.0]]]


def test_joint_blocks_poly():
    blocks = Polynomial(alpha_bar=1.0).joint_blocks_batch(np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert blocks.shape == (2, 3, 3)
    assert np.allclose(blocks[0], [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 2.0]])
    assert np.allclose(blocks[1], [[16.0, 0.0, 16.0], [0.0, 8.0, 0.0], [16.0, 0.0, 16.0]])


KERNELS = [
    lambda rng: SquaredExponential(alpha=float(rng.uniform(0.5, 5)), length_scale=float(rng.uniform(0.3, 2))),
    lambda rng: Polynomial(alpha_bar=float(rng.uniform(0.5, 3))),
]


@pytest.mark.parametrize("make", KERNELS)
def test_gradients_match_finite_differences_100_cases(make):
    """``grad_tensor`` at distinct points against central differences of
    ``eval_matrix``, n = 1..5, for every (candidate, sample) pair."""
    rng = np.random.default_rng(42)
    for _ in range(100):
        kern = make(rng)
        n = int(rng.integers(1, 6))
        Y = rng.uniform(-2, 2, (2, n))
        X = rng.uniform(-2, 2, (3, n))
        tens = kern.grad_tensor(Y, X)
        assert tens.shape == (2, 3, n)
        for a in range(2):
            for r in range(3):
                fd = central_diff_grad(kern, X[r], Y[a])
                scale = max(np.linalg.norm(fd), 1e-6)
                assert np.linalg.norm(tens[a, r] - fd) / scale < 1e-4


@pytest.mark.parametrize("make", KERNELS)
def test_hessians_match_nested_finite_differences_100_cases(make):
    """The whole dense ``joint_blocks_batch`` block (value, value-gradient,
    gradient-gradient) against differences of ``eval_matrix``, n = 1..5."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        kern = make(rng)
        n = int(rng.integers(1, 6))
        Y = rng.uniform(-2, 2, (2, n))
        blocks = kern.joint_blocks_batch(Y)
        assert blocks.shape == (2, 1 + n, 1 + n)
        for y, block in zip(Y, blocks):
            assert np.array_equal(block, block.T)
            assert block[0, 0] == pytest.approx(k(kern, y, y), rel=1e-12)
            fd = fd_joint_block(kern, y)
            hess_scale = max(np.linalg.norm(fd[1:, 1:]), 1e-6)
            assert np.linalg.norm(block[1:, 1:] - fd[1:, 1:]) / hess_scale < 1e-3
            # the SE gradient at y2 = y is 0: measure it against the block
            assert np.linalg.norm(block[0, 1:] - fd[0, 1:]) / np.linalg.norm(fd) < 1e-4
