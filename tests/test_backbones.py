import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnmvts.backbones import (
    DLinearBackbone,
    MlpBackbone,
    apply_final,
    decompose,
)
from hnmvts.numcore import DimensionError, Tensor, channel_dot, finite_diff_check, square, tsum


class TestDecompose:
    def test_kernel_one(self, rng):
        x = rng.standard_normal((2, 8))
        trend, seasonal = decompose(x, 1)
        np.testing.assert_allclose(trend, x, atol=1e-15)
        np.testing.assert_allclose(seasonal, 0.0, atol=1e-15)

    def test_constant_series(self):
        x = np.full((3, 10), 2.5)
        trend, seasonal = decompose(x, 7)
        np.testing.assert_allclose(trend, x, atol=1e-12)
        np.testing.assert_allclose(seasonal, 0.0, atol=1e-12)

    def test_ramp_hand_oracle(self):
        x = np.arange(10.0)[None, :]
        trend, _ = decompose(x, 3)
        expected = np.array([(0 + 0 + 1) / 3, *range(1, 9), (8 + 9 + 9) / 3])
        np.testing.assert_allclose(trend[0], expected, atol=1e-12)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            decompose(np.zeros((1, 8)), 2)

    def test_reconstruction_identity(self, rng):
        x = rng.standard_normal((4, 30))
        trend, seasonal = decompose(x, 7)
        np.testing.assert_allclose(trend + seasonal, x, atol=1e-10)


class TestForwardHidden:
    def test_dlinear_constant_input(self):
        bb = DLinearBackbone(lookback=12, kernel=5)
        x = np.full((2, 12), 3.0)
        trend, seasonal = bb.forward_hidden(x)
        np.testing.assert_allclose(trend.data, x, atol=1e-12)
        np.testing.assert_allclose(seasonal.data, 0.0, atol=1e-12)

    def test_dlinear_branches_sum_to_input(self, rng):
        bb = DLinearBackbone(lookback=20, kernel=7)
        x = rng.standard_normal((3, 20))
        trend, seasonal = bb.forward_hidden(x)
        np.testing.assert_allclose(trend.data + seasonal.data, x, atol=1e-10)

    def test_mlp_identity_layers_pass_nonnegative_input(self, rng):
        bb = MlpBackbone(lookback=6, hidden_widths=(6, 6), rng=rng)
        for name, t in bb.parameters().items():
            t.data[:] = np.eye(6) if name.endswith(".w") else 0.0
        x = np.abs(rng.standard_normal((2, 6)))
        (h,) = bb.forward_hidden(x)
        np.testing.assert_allclose(h.data, x, atol=1e-12)

    def test_mlp_output_width(self, rng):
        bb = MlpBackbone(lookback=10, hidden_widths=(16, 5), rng=rng)
        (h,) = bb.forward_hidden(rng.standard_normal((4, 10)))
        assert h.shape == (4, 5)
        assert bb.hidden_dim == 5

    @pytest.mark.parametrize("widths", [(0,), (16, 0), (-1,)])
    def test_mlp_rejects_width_below_one(self, rng, widths):
        with pytest.raises(ValueError, match="widths must be >= 1"):
            MlpBackbone(lookback=10, hidden_widths=widths, rng=rng)


def band(length, kernel):
    """The dense (length x length) replicate-padded moving-average operator A."""
    half = (kernel - 1) // 2
    a = np.zeros((length, length))
    for t in range(length):
        for j in range(t - half, t + half + 1):
            a[t, min(max(j, 0), length - 1)] += 1.0 / kernel
    return a


class TestFold:
    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), length=st.integers(1, 30), data=st.data())
    def test_matches_dense_band(self, dtype, rtol, seed, length, data):
        """W_s + (W_t - W_s) A for every odd kernel up to the lookback."""
        kernel = data.draw(st.sampled_from(range(1, length + 1, 2)), label="kernel")
        r = np.random.Generator(np.random.Philox(seed))
        w_t, w_s = (r.standard_normal((3, 2, length)).astype(dtype) for _ in range(2))
        folded = DLinearBackbone(length, kernel).fold(w_t, w_s)
        expected = (w_t.astype(np.float64) - w_s) @ band(length, kernel) + w_s
        assert folded.dtype == dtype
        assert np.abs(folded - expected).max() <= rtol * np.abs(expected).max()


class TestApplyFinal:
    def test_zero_weights(self, rng):
        out = apply_final([Tensor(np.zeros((3, 4, 5)))], [Tensor(rng.standard_normal((3, 5)))])
        np.testing.assert_array_equal(out.data, np.zeros((3, 4)))

    def test_identity_weights(self, rng):
        n, h = 2, 4
        w = np.stack([np.eye(h)] * n)
        hidden = rng.standard_normal((n, h))
        out = apply_final([Tensor(w)], [Tensor(hidden)])
        np.testing.assert_allclose(out.data, hidden, atol=1e-12)

    def test_matches_triple_loop_oracle(self, rng):
        n, h, d = 2, 3, 4
        w = rng.standard_normal((n, h, d))
        hid = rng.standard_normal((n, d))
        out = apply_final([Tensor(w)], [Tensor(hid)])
        expected = np.zeros((n, h))
        for c in range(n):
            for i in range(h):
                for j in range(d):
                    expected[c, i] += w[c, i, j] * hid[c, j]
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_linearity_in_hidden(self, rng):
        w = Tensor(rng.standard_normal((3, 4, 5)))
        h1 = rng.standard_normal((3, 5))
        h2 = rng.standard_normal((3, 5))
        a, b = 2.5, -1.25
        combined = apply_final([w], [Tensor(a * h1 + b * h2)]).data
        separate = a * apply_final([w], [Tensor(h1)]).data + b * apply_final([w], [Tensor(h2)]).data
        np.testing.assert_allclose(combined, separate, atol=1e-9)

    def test_two_branch_sum(self, rng):
        wt = Tensor(rng.standard_normal((2, 3, 6)))
        ws = Tensor(rng.standard_normal((2, 3, 6)))
        ht = Tensor(rng.standard_normal((2, 6)))
        hs = Tensor(rng.standard_normal((2, 6)))
        out = apply_final([wt, ws], [ht, hs])
        np.testing.assert_allclose(
            out.data, channel_dot(wt, ht).data + channel_dot(ws, hs).data, atol=1e-12
        )

    def test_shape_mismatch(self):
        # wrong hidden width, wrong channel count, wrong channel count under a batch axis
        for hidden_shape in [(3, 6), (4, 5), (2, 4, 5)]:
            with pytest.raises(DimensionError):
                apply_final([Tensor(np.zeros((3, 4, 5)))], [Tensor(np.zeros(hidden_shape))])

    def test_slot_count_mismatch(self):
        w = Tensor(np.zeros((3, 4, 5)))
        with pytest.raises(DimensionError, match="2 final layers for 1 hidden"):
            apply_final([w, w], [Tensor(np.zeros((3, 5)))])


def test_full_pipeline_gradient(rng):
    bb = DLinearBackbone(lookback=8, kernel=3)
    n, horizon = 2, 3
    wt = Tensor(rng.standard_normal((n, horizon, 8)) * 0.3, requires_grad=True)
    ws = Tensor(rng.standard_normal((n, horizon, 8)) * 0.3, requires_grad=True)
    x = rng.standard_normal((n, 8))
    target = Tensor(rng.standard_normal((n, horizon)))

    def loss():
        hidden = bb.forward_hidden(x)
        pred = apply_final([wt, ws], hidden)
        return tsum(square(pred - target))

    assert finite_diff_check(loss, [wt, ws]) < 1e-4


def test_mlp_pipeline_gradient(rng):
    bb = MlpBackbone(lookback=5, hidden_widths=(4,), rng=rng)
    w_final = Tensor(rng.standard_normal((2, 3, 4)) * 0.4, requires_grad=True)
    x = rng.standard_normal((2, 5))

    def loss():
        pred = apply_final([w_final], bb.forward_hidden(x))
        return tsum(square(pred))

    params = [w_final, *bb.parameters().values()]
    assert finite_diff_check(loss, params) < 1e-4


def test_batched_forward_matches_single(rng):
    bb = DLinearBackbone(lookback=10, kernel=5)
    xb = rng.standard_normal((6, 3, 10))
    trend_b, _ = bb.forward_hidden(xb)
    trend_1, _ = bb.forward_hidden(xb[4])
    np.testing.assert_allclose(trend_b.data[4], trend_1.data, atol=1e-12)
