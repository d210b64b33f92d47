import numpy as np

from helpers import finite_diff_check
from hnmvts.numcore import Tensor, matmul, mse, reshape


def test_linear_function_is_exact(rng):
    w = Tensor(rng.standard_normal(5), requires_grad=True)
    c = Tensor(rng.standard_normal((5, 1)))

    def loss():
        return matmul(reshape(w, (1, 5)), c)

    assert finite_diff_check(loss, [w]) < 1e-10


def test_cubic_polynomial_at_2():
    # analytic derivative of x^3 at 2 is 3*4 = 12
    x = Tensor([2.0], requires_grad=True)

    def loss():
        return x * x * x

    err = finite_diff_check(loss, [x])
    assert err < 1e-6


def test_matrix_quadratic(rng):
    a = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    x = Tensor(rng.standard_normal((3, 2)))

    def loss():
        return mse(matmul(a, x), np.zeros((3, 2)))

    assert finite_diff_check(loss, [a]) < 1e-6
