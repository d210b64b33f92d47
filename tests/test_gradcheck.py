"""The finite-difference check itself, on loss nodes whose gradients are known."""

import numpy as np

from helpers import finite_diff_check
from hnmvts.numcore import Tensor, mse, mse_grad
from hnmvts.numcore.tensor import _make_node


def test_linear_function_is_exact(rng):
    w = Tensor(rng.standard_normal(5), requires_grad=True)
    c = rng.standard_normal(5)

    def loss():
        return _make_node(np.vdot(w.data, c), (w,), (lambda g: g * c,))

    assert finite_diff_check(loss, [w]) < 1e-10


def test_cubic_polynomial_at_2():
    # analytic derivative of x^3 at 2 is 3*4 = 12
    x = Tensor([2.0], requires_grad=True)

    def loss():
        return _make_node(x.data[0] ** 3, (x,), (lambda g: g * 3.0 * x.data**2,))

    err = finite_diff_check(loss, [x])
    assert err < 1e-6


def test_matrix_quadratic(rng):
    a = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    x = rng.standard_normal((3, 2))

    def loss():
        value, diff = mse(a.data @ x, np.zeros((3, 2)))
        return _make_node(value, (a,), (lambda g: mse_grad(diff, g) @ x.T,))

    assert finite_diff_check(loss, [a]) < 1e-6
