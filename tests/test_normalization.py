import numpy as np
import pytest

from hnmvts.normalization import EPS, InstanceStats, revin_apply, revin_forward, revin_reverse
from hnmvts.numcore import Tensor


def test_constant_channel():
    x = np.full((2, 8), 4.0)
    x_norm, stats = revin_forward(x)
    np.testing.assert_allclose(x_norm, 0.0, atol=1e-12)
    np.testing.assert_allclose(stats.mean, 4.0)
    np.testing.assert_allclose(stats.std, 0.0)


def test_plus_minus_one_channel():
    x = np.array([[-1.0, 1.0]])
    x_norm, stats = revin_forward(x)
    assert stats.mean[0, 0] == 0.0
    assert stats.std[0, 0] == pytest.approx(1.0)
    np.testing.assert_allclose(x_norm, np.array([[-1.0, 1.0]]) / (1.0 + EPS), atol=1e-12)


def test_output_statistics(rng):
    x = rng.standard_normal((3, 64)) * 5 + 2
    out, _ = revin_forward(x)
    assert np.abs(out.mean(axis=-1)).max() < 1e-9
    assert np.abs(out.std(axis=-1) - 1).max() < 1e-4


@pytest.mark.parametrize("shape", [(2, 1), (3, 7), (4, 3, 336), (64, 21, 96)])
def test_statistics_match_numpy_bit_for_bit(rng, shape):
    """Plain numpy's mean and population std, the same ufuncs in the same order."""
    x = rng.standard_normal(shape) * 5.0 + 3.0
    x_norm, stats = revin_forward(x)
    mean, std = x.mean(axis=-1, keepdims=True), x.std(axis=-1, keepdims=True)
    assert np.array_equal(stats.mean, mean) and np.array_equal(stats.std, std)
    assert np.array_equal(x_norm, (x - mean) / (std + EPS))


def test_reverse_of_zero_gives_means(rng):
    x = rng.standard_normal((4, 16))
    _, stats = revin_forward(x)
    y = revin_reverse(Tensor(np.zeros((4, 6))), stats)
    np.testing.assert_allclose(y.data, np.broadcast_to(stats.mean, (4, 6)), atol=1e-12)


def test_reverse_forward_identity(rng):
    x = rng.standard_normal((5, 12))
    x_norm, stats = revin_forward(x)
    truncated = Tensor(x_norm[:, :7])
    back = revin_reverse(truncated, stats)
    np.testing.assert_allclose(back.data, x[:, :7], atol=1e-10)


def test_reverse_matches_hand_formula(rng):
    mean = rng.standard_normal((3, 1))
    std = np.abs(rng.standard_normal((3, 1)))
    ynorm = rng.standard_normal((3, 5))
    stats = InstanceStats(mean=mean, std=std)
    out = revin_reverse(Tensor(ynorm), stats)
    np.testing.assert_allclose(out.data, ynorm * (std + EPS) + mean, atol=1e-12)


def test_shift_invariance(rng):
    x = rng.standard_normal((2, 32))
    a, _ = revin_forward(x)
    b, _ = revin_forward(x + 123.456)
    assert np.abs(a - b).max() < 1e-6


def test_apply_is_inverse_of_reverse(rng):
    x = rng.standard_normal((3, 10))
    _, stats = revin_forward(x)
    y = rng.standard_normal((3, 4))
    roundtrip = revin_apply(revin_reverse(Tensor(y), stats).data, stats)
    np.testing.assert_allclose(roundtrip, y, atol=1e-10)


def test_batched_windows(rng):
    xb = rng.standard_normal((4, 3, 8))
    x_norm, stats = revin_forward(xb)
    assert x_norm.shape == (4, 3, 8)
    assert stats.mean.shape == (4, 3, 1)
    single, _ = revin_forward(xb[2])
    np.testing.assert_allclose(x_norm[2], single, atol=1e-12)
