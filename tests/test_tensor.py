import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnmvts.numcore import (
    DimensionError,
    Tape,
    Tensor,
    add,
    backward,
    channel_dot,
    get_default_dtype,
    matmul,
    moving_average,
    moving_average_adjoint,
    mul,
    no_grad,
    relu,
    reshape,
    square,
    sub,
    tmean,
    tsum,
)
from hnmvts.numcore import tensor as tensor_mod


def matmul_oracle(a, b):
    """Triple-loop reference, independent of the numpy path."""
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


class TestMatmul:
    def test_identity(self, rng):
        b = rng.standard_normal((3, 2))
        out = matmul(Tensor(np.eye(3)), Tensor(b))
        np.testing.assert_array_equal(out.data, b)

    def test_scalar_case(self):
        out = matmul(Tensor([[2.0]]), Tensor([[3.0]]))
        assert out.data[0, 0] == 6.0

    def test_against_loop_oracle(self, rng):
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((5, 3))
        out = matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, matmul_oracle(a, b), atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError) as exc:
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)

    def test_batched(self, rng):
        a = rng.standard_normal((6, 2, 3))
        b = rng.standard_normal((3, 4))
        out = matmul(Tensor(a), Tensor(b))
        assert out.shape == (6, 2, 4)
        for i in range(6):
            np.testing.assert_allclose(out.data[i], matmul_oracle(a[i], b), atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_associativity(self, seed):
        r = np.random.Generator(np.random.Philox(seed))
        a, b, c = (r.standard_normal((3, 3)) for _ in range(3))
        left = matmul(matmul(Tensor(a), Tensor(b)), Tensor(c)).data
        right = matmul(Tensor(a), matmul(Tensor(b), Tensor(c))).data
        np.testing.assert_allclose(left, right, atol=1e-9)

    @pytest.mark.parametrize("k, p", [(96, 256), (256, 128)], ids=["96x256", "256x128"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_stack_times_matrix_bit_identical_to_numpy(self, rng, request, dtype, k, p):
        """The MLP trunk's layers (21 channels, lookback 96, widths 256 and 128):
        forward and grad_a equal numpy's stacked products bit for bit, over
        two whole row blocks and a part of a third."""
        if dtype == "float32":
            request.getfixturevalue("float32_mode")
        n = 21
        batch = 2 * (tensor_mod._ROW_BLOCK // n) + 5
        a = Tensor(rng.standard_normal((batch, n, k)), requires_grad=True)
        b = Tensor(rng.standard_normal((k, p)), requires_grad=True)
        g = rng.standard_normal((batch, n, p)).astype(get_default_dtype())
        out = matmul(a, b)
        assert out.data.dtype == np.dtype(dtype)
        assert np.array_equal(out.data, a.data @ b.data)
        grads = backward(tsum(out * Tensor(g)))
        assert np.array_equal(grads[a].data, g @ np.swapaxes(b.data, -1, -2))
        assert np.array_equal(grads[b].data, (np.swapaxes(a.data, -1, -2) @ g).sum(axis=0))

    @pytest.mark.parametrize("shape_a, shape_b", [
        ((40, 7, 37), (37, 100)),   # widths whose GEMM kernels may sum in another order
        ((300, 5, 255), (255, 9)),
        ((40, 1, 37), (37, 100)),   # one row per matrix: numpy's path
        ((40, 7, 37), (37, 1)),     # one output column: numpy's path
        ((40, 7, 1), (1, 100)),     # inner dimension 1: numpy's path
    ], ids=["k37_p100", "k255_p9", "one_row", "one_column", "inner_one"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_stack_times_matrix_within_gemm_error(self, rng, request, dtype, shape_a, shape_b):
        """Any width: within the dot-product rounding bound of numpy's stacked
        products, 2 k eps (|a| @ |b|) elementwise; products with a dimension
        of 1 are numpy's own."""
        if dtype == "float32":
            request.getfixturevalue("float32_mode")
        a = Tensor(rng.standard_normal(shape_a), requires_grad=True)
        b = Tensor(rng.standard_normal(shape_b), requires_grad=True)
        g = rng.standard_normal(shape_a[:-1] + shape_b[-1:]).astype(get_default_dtype())
        out = matmul(a, b)
        grad_a = backward(tsum(out * Tensor(g)))[a].data
        eps = np.finfo(get_default_dtype()).eps
        k, p = shape_b
        bound = 2 * k * eps * (np.abs(a.data) @ np.abs(b.data))
        assert (np.abs(out.data - a.data @ b.data) <= bound).all()
        bound = 2 * p * eps * (np.abs(g) @ np.abs(b.data).T)
        assert (np.abs(grad_a - g @ b.data.T) <= bound).all()
        if min(shape_a[1], k, p) == 1:
            assert np.array_equal(out.data, a.data @ b.data)
            assert np.array_equal(grad_a, g @ b.data.T)

    @pytest.mark.parametrize("shape_a, shape_b", [
        ((4, 5), (5, 3)),
        ((6, 4, 5), (5, 3)),
        ((2, 1, 4, 5), (3, 5, 2)),
    ], ids=["2d", "stack_times_matrix", "broadcast"])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_gradients_are_adjoint(self, shape_a, shape_b, seed):
        """matmul is bilinear: <g, J_a da> = <grad_a g, da>, likewise for b."""
        r = np.random.Generator(np.random.Philox(seed))
        a = Tensor(r.standard_normal(shape_a), requires_grad=True)
        b = Tensor(r.standard_normal(shape_b), requires_grad=True)
        g = r.standard_normal(matmul(a, b).shape)
        grads = backward(tsum(matmul(a, b) * Tensor(g)))
        assert grads[a].shape == shape_a and grads[b].shape == shape_b
        da, db = r.standard_normal(shape_a), r.standard_normal(shape_b)
        assert np.vdot(g, matmul(Tensor(da), b).data) == pytest.approx(
            np.vdot(grads[a].data, da), rel=1e-10, abs=1e-12)
        assert np.vdot(g, matmul(a, Tensor(db)).data) == pytest.approx(
            np.vdot(grads[b].data, db), rel=1e-10, abs=1e-12)


class TestRelu:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_identical_to_where(self, rng, request, dtype):
        """Sign bits included, at every length up to 70 (every SIMD tail)."""
        if dtype == np.float32:
            request.getfixturevalue("float32_mode")
        tiny = np.finfo(dtype).smallest_subnormal
        special = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny,
                            np.finfo(dtype).tiny, -np.finfo(dtype).tiny, 1.5, -1.5], dtype=dtype)
        for length in range(1, 71):
            x = np.where(rng.random(length) < 0.5, rng.choice(special, length),
                         rng.standard_normal(length)).astype(dtype)
            want = np.where(x > 0, x, 0.0).astype(dtype)
            out = relu(Tensor(x)).data
            assert out.dtype == dtype and out.tobytes() == want.tobytes(), x

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_gradient_is_adjoint(self, seed):
        """<g, J v> = <J^T g, v>, with J v taken as a difference along v over a
        step too short for any entry to change sign."""
        r = np.random.Generator(np.random.Philox(seed))
        x = r.standard_normal((3, 4, 5))
        x = np.where(np.abs(x) < 0.1, 0.1, x)
        v, g = r.standard_normal(x.shape), r.standard_normal(x.shape)
        step = 0.05 / np.abs(v).max()
        a = Tensor(x, requires_grad=True)
        jt_g = backward(tsum(relu(a) * Tensor(g)))[a].data
        j_v = (relu(Tensor(x + step * v)).data - relu(Tensor(x)).data) / step
        assert np.vdot(g, j_v) == pytest.approx(np.vdot(jt_g, v), rel=1e-9, abs=1e-12)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        grads = backward(tsum(x))
        np.testing.assert_array_equal(grads[x].data, np.ones(5))

    def test_half_norm_squared_gives_x(self, rng):
        xv = rng.standard_normal(7)
        x = Tensor(xv, requires_grad=True)
        loss = tsum(square(x)) * 0.5
        grads = backward(loss)
        np.testing.assert_allclose(grads[x].data, xv, atol=1e-12)

    def test_two_layer_mlp_matches_finite_differences(self, rng):
        from hnmvts.numcore import finite_diff_check

        w1 = Tensor(rng.standard_normal((4, 5)) * 0.5, requires_grad=True)
        w2 = Tensor(rng.standard_normal((5, 2)) * 0.5, requires_grad=True)
        x = Tensor(rng.standard_normal((3, 4)))

        def loss():
            return tsum(square(matmul(relu(matmul(x, w1)), w2)))

        assert finite_diff_check(loss, [w1, w2]) < 1e-4

    def test_off_path_leaves_get_zero(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        unused = Tensor([5.0], requires_grad=True)
        grads = backward(tsum(x), params=[x, unused])
        np.testing.assert_array_equal(grads[unused].data, np.zeros(1))

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            backward(x + x)

    def test_reused_node_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * x  # dx = 2x via two paths through mul
        grads = backward(tsum(y + y))
        np.testing.assert_allclose(grads[x].data, [12.0])

    def test_tape_visits_each_node_once(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        loss = tsum(y + y)
        tape = Tape.trace(loss)
        ids = [id(n) for n in tape.nodes]
        assert len(ids) == len(set(ids))
        assert ids[-1] == id(loss)

    def test_no_grad_blocks_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 3.0
        assert not y.requires_grad and y._parents == ()


class TestChannelDot:
    def test_final_layer_case_against_loops(self, rng):
        n, h, d = 2, 3, 4
        w = rng.standard_normal((n, h, d))
        v = rng.standard_normal((n, d))
        out = channel_dot(Tensor(w), Tensor(v))
        expected = np.zeros((n, h))
        for c in range(n):
            for i in range(h):
                for q in range(d):
                    expected[c, i] += w[c, i, q] * v[c, q]
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_generator_case_against_loops(self, rng):
        n, h, d, q = 2, 2, 3, 2
        w = rng.standard_normal((n, h, d, q))
        z = rng.standard_normal((n, q))
        out = channel_dot(Tensor(w), Tensor(z))
        expected = np.zeros((n, h, d))
        for c in range(n):
            for i in range(h):
                for j in range(d):
                    for p in range(q):
                        expected[c, i, j] += w[c, i, j, p] * z[c, p]
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_batched_matches_per_sample(self, rng):
        w = rng.standard_normal((3, 4, 5))
        v = rng.standard_normal((6, 3, 5))
        out = channel_dot(Tensor(w), Tensor(v))
        for b in range(6):
            single = channel_dot(Tensor(w), Tensor(v[b]))
            np.testing.assert_allclose(out.data[b], single.data, atol=1e-12)

    def test_gradients(self, rng):
        from hnmvts.numcore import finite_diff_check

        w = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        for v_shape in [(5, 2, 4), (2, 4)]:  # batched, and unbatched (the generator's form)
            v = Tensor(rng.standard_normal(v_shape), requires_grad=True)

            def loss():
                return tsum(square(channel_dot(w, v)))

            assert finite_diff_check(loss, [w, v]) < 1e-6

    @pytest.mark.parametrize("v_shape", [(2, 4), (5, 2, 4)], ids=["unbatched", "batched"])
    def test_gradients_are_adjoint(self, rng, v_shape):
        """channel_dot is bilinear: <J_w dw, g> = <dw, grad_w g>, likewise for v."""
        w = Tensor(rng.standard_normal((2, 3, 2, 4)), requires_grad=True)
        v = Tensor(rng.standard_normal(v_shape), requires_grad=True)
        g = rng.standard_normal(channel_dot(w, v).shape)
        grads = backward(tsum(channel_dot(w, v) * Tensor(g)))
        dw, dv = rng.standard_normal(w.shape), rng.standard_normal(v.shape)
        assert np.vdot(channel_dot(Tensor(dw), v).data, g) == pytest.approx(
            np.vdot(dw, grads[w].data), rel=1e-12)
        assert np.vdot(channel_dot(w, Tensor(dv)).data, g) == pytest.approx(
            np.vdot(dv, grads[v].data), rel=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionError):
            channel_dot(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 5))))


class TestMovingAverage:
    def test_kernel_one_is_identity(self, rng):
        x = rng.standard_normal((2, 6))
        out = moving_average(x, 1)
        np.testing.assert_allclose(out, x, atol=1e-15)

    def test_constant_series_unchanged(self):
        x = np.full((1, 8), 3.5)
        out = moving_average(x, 5)
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_ramp_hand_oracle(self):
        # kernel 3 over [0..9] with replicate padding:
        # t=0: (0+0+1)/3, interior t: exact ramp, t=9: (8+9+9)/3
        x = np.arange(10.0)[None, :]
        out = moving_average(x, 3)
        expected = np.array([1 / 3] + list(range(1, 9)) + [26 / 3])
        expected[0] = (0 + 0 + 1) / 3
        expected[-1] = (8 + 9 + 9) / 3
        np.testing.assert_allclose(out[0], expected, atol=1e-12)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            moving_average(np.zeros((1, 8)), 4)

    @staticmethod
    def ma_operator(length, kernel):
        """Explicit dense operator: row t averages the replicate-padded window."""
        half = (kernel - 1) // 2
        m = np.zeros((length, length))
        for t in range(length):
            for j in range(-half, half + 1):
                s = min(max(t + j, 0), length - 1)
                m[t, s] += 1.0 / kernel
        return m

    @pytest.mark.parametrize("kernel", [1, 3, 5, 9])
    def test_matches_operator_matrix_oracle(self, rng, kernel):
        length = 12
        m = self.ma_operator(length, kernel)
        x = rng.standard_normal((3, length))
        out = moving_average(x, kernel)
        np.testing.assert_allclose(out, x @ m.T, atol=1e-12)

    @pytest.mark.parametrize("kernel", [3, 7])
    def test_backward_matches_operator_transpose(self, rng, kernel):
        """`moving_average_adjoint` is the transpose: weights @ A."""
        length = 10
        m = self.ma_operator(length, kernel)
        weights = rng.standard_normal((2, length))
        np.testing.assert_allclose(moving_average_adjoint(weights, kernel), weights @ m,
                                   atol=1e-12)


class TestShapeOps:
    def test_reshape_roundtrip_gradient(self, rng):
        x = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        loss = tsum(square(reshape(x, (3, 4))))
        grads = backward(loss)
        np.testing.assert_allclose(grads[x].data, 2 * x.data, atol=1e-12)

    def test_broadcast_unbroadcast(self, rng):
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        col = Tensor(rng.standard_normal((4, 1)), requires_grad=True)
        loss = tsum(square(x - col))
        grads = backward(loss)
        assert grads[col].shape == (4, 1)
        np.testing.assert_allclose(
            grads[col].data, (-2 * (x.data - col.data)).sum(axis=1, keepdims=True), atol=1e-12
        )


class TestReductions:
    def test_mean_axis(self, rng):
        x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        out = tmean(x, axis=-1)
        np.testing.assert_allclose(out.data, x.data.mean(axis=-1), atol=1e-15)
        grads = backward(tsum(out))
        np.testing.assert_allclose(grads[x].data, np.full((3, 5), 1 / 5), atol=1e-15)


def assert_adjoint(r, f, xs, jvps):
    """<g, J_i v> == <J_i^T g, v> for each input x_i of `f`, with `jvps[i](v)`
    the directional derivative J_i v written out in numpy and J_i^T g the
    gradient that `backward` returns for x_i."""
    ts = [Tensor(x, requires_grad=True) for x in xs]
    out = f(*ts)
    g = r.standard_normal(out.shape)
    grads = backward(tsum(mul(out, Tensor(g))), ts)
    for t, jvp in zip(ts, jvps):
        v = r.standard_normal(t.shape)
        assert grads[t].shape == t.shape
        assert np.vdot(g, jvp(v)) == pytest.approx(np.vdot(grads[t].data, v), rel=1e-10,
                                                   abs=1e-12)


def away_from_zero(r, shape):
    """Normal draws pushed to |x| >= 0.5, away from zero."""
    x = r.standard_normal(shape)
    return np.sign(x + 1e-300) * (0.5 + np.abs(x))


class TestAdjoint:
    """Dot-product tests of every differentiable op not covered above."""

    BROADCAST = [((3, 4), (3, 4)), ((3, 4), (4,)), ((2, 1, 4), (3, 1)), ((3, 1), (1, 4)),
                 ((), (2, 3))]

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    @pytest.mark.parametrize("shapes", BROADCAST, ids=["same", "trailing", "3d", "outer", "scalar"])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_binary(self, op, shapes, seed):
        r = np.random.Generator(np.random.Philox(seed))
        a, b = r.standard_normal(shapes[0]), away_from_zero(r, shapes[1])
        out_shape = np.broadcast_shapes(*shapes)

        def spread(v):
            return np.broadcast_to(v, out_shape)

        f = {"add": add, "sub": sub, "mul": mul}[op]
        jvps = {
            "add": (spread, spread),
            "sub": (spread, lambda v: -spread(v)),
            "mul": (lambda v: v * b, lambda v: a * v),
        }[op]
        assert_adjoint(r, f, [a, b], jvps)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_square(self, seed):
        r = np.random.Generator(np.random.Philox(seed))
        x = r.standard_normal((4, 2, 3))
        assert_adjoint(r, square, [x], [lambda v: 2.0 * x * v])

    @pytest.mark.parametrize("reduce", ["tsum", "tmean"])
    @pytest.mark.parametrize("axis", [None, 0, -1, (0, 2)], ids=["all", "0", "-1", "0_2"])
    @pytest.mark.parametrize("keepdims", [False, True])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_reductions(self, reduce, axis, keepdims, seed):
        r = np.random.Generator(np.random.Philox(seed))
        x = r.standard_normal((3, 4, 2))
        f = {"tsum": tsum, "tmean": tmean}[reduce]
        ref = {"tsum": np.sum, "tmean": np.mean}[reduce]
        assert_adjoint(r, lambda t: f(t, axis=axis, keepdims=keepdims), [x],
                       [lambda v: ref(v, axis=axis, keepdims=keepdims)])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           shape=st.sampled_from([((2, 6), (3, 4)), ((2, 6), (12,)), ((4, 3, 2), (2, 12))]))
    def test_reshape(self, seed, shape):
        r = np.random.Generator(np.random.Philox(seed))
        assert_adjoint(r, lambda t: reshape(t, shape[1]), [r.standard_normal(shape[0])],
                       [lambda v: v.reshape(shape[1])])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), length=st.integers(1, 30), data=st.data())
    def test_moving_average(self, seed, length, data):
        """Every odd kernel up to the length, against the dense banded operator:
        <g, A v> = <g A, v> with A v from `moving_average` and g A from
        `moving_average_adjoint`."""
        kernel = data.draw(st.sampled_from(range(1, length + 1, 2)), label="kernel")
        r = np.random.Generator(np.random.Philox(seed))
        m = TestMovingAverage.ma_operator(length, kernel)
        v, g = r.standard_normal((2, 2, 3, length))
        a_v, g_a = moving_average(v, kernel), moving_average_adjoint(g, kernel)
        np.testing.assert_allclose(a_v, v @ m.T, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(g_a, g @ m, rtol=1e-10, atol=1e-12)
        assert np.vdot(g, a_v) == pytest.approx(np.vdot(g_a, v), rel=1e-10, abs=1e-12)


def test_float32_mode_roundtrip(float32_mode, rng):
    x = Tensor(rng.standard_normal((2, 3)))
    assert x.data.dtype == np.float32
    assert matmul(x, Tensor(np.eye(3))).data.dtype == np.float32
