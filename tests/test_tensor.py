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
    channel_gemv,
    get_default_dtype,
    linear_relu,
    matmul,
    moving_average,
    moving_average_adjoint,
    mul,
    no_grad,
    reshape,
    square,
    sub,
    tmean,
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


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


# Frozen copies of the forms that `channel_dot` and the moving average used
# before they moved to one transpose path and one buffer per call; the tests
# hold the current ops to them bit for bit.


def channel_dot_moveaxis(w, v, g):
    """Forward, grad_w and grad_v of channel_dot through np.moveaxis."""

    def to_cm(arr, batch_nd):
        if batch_nd == 0:
            return arr.reshape(arr.shape[0], 1, arr.shape[1])
        moved = np.moveaxis(arr, -2, 0)
        return moved.reshape(moved.shape[0], -1, moved.shape[-1])

    def from_cm(arr, batch_shape, trailing):
        n = arr.shape[0]
        if not batch_shape:
            return arr.reshape(n, *trailing)
        moved = np.moveaxis(arr.reshape(n, *batch_shape, -1), 0, len(batch_shape))
        return moved.reshape(*batch_shape, n, *trailing)

    b_shape = v.shape[:-2]
    vm = to_cm(v, len(b_shape))
    out = from_cm(vm @ w.swapaxes(1, 2), b_shape, (w.shape[1],))
    grad_w = to_cm(g, len(b_shape)).swapaxes(1, 2) @ vm
    grad_v = from_cm(to_cm(g, len(b_shape)) @ w, b_shape, (w.shape[2],))
    return out, grad_w, grad_v


def window_sums_concat(arr, kernel):
    cs = np.cumsum(arr, axis=-1)
    tail = np.concatenate([np.zeros_like(cs[..., :1]), cs[..., : arr.shape[-1] - kernel]],
                          axis=-1)
    return cs[..., kernel - 1 :] - tail


def moving_average_concat(x, kernel):
    if kernel == 1:
        return x.copy()
    half = (kernel - 1) // 2
    padded = np.concatenate(
        [np.repeat(x[..., :1], half, axis=-1), x, np.repeat(x[..., -1:], half, axis=-1)],
        axis=-1,
    )
    return window_sums_concat(padded, kernel) / kernel


def moving_average_adjoint_concat(g, kernel):
    if kernel == 1:
        return g
    length, half = g.shape[-1], (kernel - 1) // 2
    zeros = np.repeat(np.zeros_like(g[..., :1]), kernel - 1, axis=-1)
    d_padded = window_sums_concat(np.concatenate([zeros, g, zeros], axis=-1), kernel) / kernel
    dx = d_padded[..., half : half + length].copy()
    dx[..., 0] += d_padded[..., :half].sum(axis=-1)
    dx[..., -1] += d_padded[..., half + length :].sum(axis=-1)
    return dx


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

    def test_stack_rejected(self):
        with pytest.raises(DimensionError, match=r"two matrices, got \(6, 2, 3\) @ \(3, 4\)"):
            matmul(Tensor(np.zeros((6, 2, 3))), Tensor(np.zeros((3, 4))))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_associativity(self, seed):
        r = np.random.Generator(np.random.Philox(seed))
        a, b, c = (r.standard_normal((3, 3)) for _ in range(3))
        left = matmul(matmul(Tensor(a), Tensor(b)), Tensor(c)).data
        right = matmul(Tensor(a), matmul(Tensor(b), Tensor(c))).data
        np.testing.assert_allclose(left, right, atol=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_gradients_are_adjoint(self, seed):
        """matmul is bilinear: <g, J_a da> = <grad_a g, da>, likewise for b."""
        r = np.random.Generator(np.random.Philox(seed))
        shape_a, shape_b = (4, 5), (5, 3)
        a = Tensor(r.standard_normal(shape_a), requires_grad=True)
        b = Tensor(r.standard_normal(shape_b), requires_grad=True)
        g = r.standard_normal(matmul(a, b).shape)
        grads = backward(tmean(matmul(a, b) * Tensor(g)))
        assert grads[a].shape == shape_a and grads[b].shape == shape_b
        da, db = r.standard_normal(shape_a), r.standard_normal(shape_b)
        assert np.vdot(g, matmul(Tensor(da), b).data) == pytest.approx(
            np.vdot(grads[a].data, da) * g.size, rel=1e-10, abs=1e-12)
        assert np.vdot(g, matmul(a, Tensor(db)).data) == pytest.approx(
            np.vdot(grads[b].data, db) * g.size, rel=1e-10, abs=1e-12)


def upstream(g):
    """The gradient `backward(tmean(out * Tensor(g)))` delivers to `out`: each
    entry of g times 1 / (its element count), rounded as the mean's backward
    rounds it."""
    return g * (np.ones_like(g) / g.size)


def linear_relu_reference(h, w, b, g):
    """relu(h @ w + b) composed from numpy's products, and for the gradient g
    reaching it: the masked gradient gm, grad_h, grad_b and grad_w as per-matrix
    products summed over the leading axes."""
    pre = h @ w + b
    gm = g * (pre > 0)
    lead = tuple(range(gm.ndim - 2))
    return {
        "out": np.where(pre > 0, pre, 0.0).astype(pre.dtype),
        "gm": gm,
        "h": gm @ w.T,
        "b": gm.sum(axis=lead + (gm.ndim - 2,)),
        "w": (np.swapaxes(h, -1, -2) @ gm).sum(axis=lead),
    }


class TestLinearRelu:
    @pytest.mark.parametrize("k, p", [(96, 256), (256, 128)], ids=["96x256", "256x128"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_stack_times_matrix_bit_identical_to_numpy(self, rng, request, dtype, k, p):
        """The MLP trunk's layers (21 channels, lookback 96, widths 256 and 128),
        over two whole row blocks and a part of a third: the forward, grad_h and
        grad_b equal the numpy composition bit for bit. grad_w is one GEMM over
        all R = B*n rows, which sums in another order than per-matrix products
        summed over B; both are within R eps/2 (|X|^T |G|) of the exact sum, so
        they differ by at most 2 R eps (|X|^T |G|) elementwise."""
        if dtype == "float32":
            request.getfixturevalue("float32_mode")
        n = 21
        batch = 2 * (tensor_mod._ROW_BLOCK // n) + 5
        h = Tensor(rng.standard_normal((batch, n, k)), requires_grad=True)
        w = Tensor(rng.standard_normal((k, p)), requires_grad=True)
        b = Tensor(rng.standard_normal(p), requires_grad=True)
        g = rng.standard_normal((batch, n, p)).astype(get_default_dtype())
        out = linear_relu(h, w, b)
        assert out.data.dtype == np.dtype(dtype)
        want = linear_relu_reference(h.data, w.data, b.data, upstream(g))
        assert np.array_equal(out.data, want["out"])
        grads = backward(tmean(out * Tensor(g)))
        assert np.array_equal(grads[h].data, want["h"])
        assert np.array_equal(grads[b].data, want["b"])
        eps = np.finfo(get_default_dtype()).eps
        rows = batch * n
        bound = 2 * rows * eps * (np.abs(h.data.reshape(rows, k)).T
                                  @ np.abs(want["gm"].reshape(rows, p)))
        assert (np.abs(grads[w].data - want["w"]) <= bound).all()

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_matrix_input_bit_identical_to_numpy(self, rng, request, dtype):
        """A 2-D input, the shared-MLP generator's form (21 channel embeddings
        of width 8, hidden width 64): every gradient, grad_w included, is
        numpy's own product bit for bit."""
        if dtype == "float32":
            request.getfixturevalue("float32_mode")
        h = Tensor(rng.standard_normal((21, 8)), requires_grad=True)
        w = Tensor(rng.standard_normal((8, 64)), requires_grad=True)
        b = Tensor(rng.standard_normal(64), requires_grad=True)
        g = rng.standard_normal((21, 64)).astype(get_default_dtype())
        out = linear_relu(h, w, b)
        want = linear_relu_reference(h.data, w.data, b.data, upstream(g))
        assert np.array_equal(out.data, want["out"])
        grads = backward(tmean(out * Tensor(g)))
        for t, key in ((h, "h"), (w, "w"), (b, "b")):
            assert np.array_equal(grads[t].data, want[key])

    @pytest.mark.parametrize("shape_h, shape_w", [
        ((40, 7, 37), (37, 100)),   # widths whose GEMM kernels may sum in another order
        ((300, 5, 255), (255, 9)),
        ((40, 1, 37), (37, 100)),   # one row per matrix: numpy's path
        ((40, 7, 37), (37, 1)),     # one output column: numpy's path
        ((40, 7, 1), (1, 100)),     # inner dimension 1: numpy's path
    ], ids=["k37_p100", "k255_p9", "one_row", "one_column", "inner_one"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_stack_within_gemm_error(self, rng, request, dtype, shape_h, shape_w):
        """Any width: the forward and grad_h are within the dot-product rounding
        bound of numpy's stacked products, 2 k eps (|h| @ |w|) elementwise;
        products with a dimension of 1 are numpy's own. The bias is zero, so
        the ReLU (1-Lipschitz) of the sum carries the product's error as is."""
        if dtype == "float32":
            request.getfixturevalue("float32_mode")
        h = Tensor(rng.standard_normal(shape_h), requires_grad=True)
        w = Tensor(rng.standard_normal(shape_w), requires_grad=True)
        b = Tensor(np.zeros(shape_w[1]), requires_grad=True)
        g = rng.standard_normal(shape_h[:-1] + shape_w[-1:]).astype(get_default_dtype())
        out = linear_relu(h, w, b)
        grad_h = backward(tmean(out * Tensor(g)))[h].data
        gm = upstream(g) * (out.data > 0)
        eps = np.finfo(get_default_dtype()).eps
        k, p = shape_w
        want = np.maximum(h.data @ w.data, 0.0)
        bound = 2 * k * eps * (np.abs(h.data) @ np.abs(w.data))
        assert (np.abs(out.data - want) <= bound).all()
        bound = 2 * p * eps * (np.abs(gm) @ np.abs(w.data).T)
        assert (np.abs(grad_h - gm @ w.data.T) <= bound).all()
        if min(shape_h[1], k, p) == 1:
            assert np.array_equal(out.data, want)
            assert np.array_equal(grad_h, gm @ w.data.T)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_identical_to_where(self, rng, request, dtype):
        """The ReLU equals `np.where(pre > 0, pre, 0.0)` on the pre-activation
        bit for bit, sign bits included, at every length up to 70 (every SIMD
        tail). The special values reach it through a product with 1; -0.0
        cannot, as a product sums from +0.0."""
        if dtype == np.float32:
            request.getfixturevalue("float32_mode")
        tiny = np.finfo(dtype).smallest_subnormal
        special = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny,
                            np.finfo(dtype).tiny, -np.finfo(dtype).tiny, 1.5, -1.5], dtype=dtype)
        one, minus_zero = np.ones((1, 1), dtype), np.array([-0.0], dtype)
        for length in range(1, 71):
            x = np.where(rng.random(length) < 0.5, rng.choice(special, length),
                         rng.standard_normal(length)).astype(dtype)[:, None]
            pre = x @ one + minus_zero
            want = np.where(pre > 0, pre, 0.0).astype(dtype)
            out = linear_relu(Tensor(x), Tensor(one), Tensor(minus_zero)).data
            assert out.dtype == dtype and out.tobytes() == want.tobytes(), x

    @pytest.mark.parametrize("shape_h, shape_w", [((5, 4), (4, 3)), ((300, 5, 7), (7, 6))],
                             ids=["2d", "stack"])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_gradients_are_adjoint(self, shape_h, shape_w, seed):
        """<g, J v> = <J^T g, v> for each of h, w and b, with J the layer's
        linearisation written in numpy: the mask of pre > 0 times the change of
        h @ w + b along v. The stack spans two row blocks."""
        r = np.random.Generator(np.random.Philox(seed))
        h, w = r.standard_normal(shape_h), r.standard_normal(shape_w)
        b = r.standard_normal(shape_w[1])
        mask = (h @ w + b) > 0
        assert_adjoint(r, linear_relu, [h, w, b], [
            lambda v: mask * (v @ w),
            lambda v: mask * (h @ v),
            lambda v: mask * v,
        ])

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 2\)"):
            linear_relu(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))
        with pytest.raises(DimensionError, match=r"\(3,\)"):
            linear_relu(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(3)))


class TestBackward:
    def test_sum_gives_ones(self):
        """The mean of n entries: a sum's gradient of ones, over n."""
        x = Tensor(np.arange(5.0), requires_grad=True)
        grads = backward(tmean(x))
        np.testing.assert_array_equal(grads[x].data * 5, np.ones(5))

    def test_half_norm_squared_gives_x(self, rng):
        xv = rng.standard_normal(7)
        x = Tensor(xv, requires_grad=True)
        loss = tmean(square(x)) * 0.5
        grads = backward(loss)
        np.testing.assert_allclose(grads[x].data * 7, xv, atol=1e-12)

    def test_two_layer_mlp_matches_finite_differences(self, rng):
        from hnmvts.numcore import finite_diff_check

        w1 = Tensor(rng.standard_normal((4, 5)) * 0.5, requires_grad=True)
        b1 = Tensor(rng.standard_normal(5) * 0.5, requires_grad=True)
        w2 = Tensor(rng.standard_normal((5, 2)) * 0.5, requires_grad=True)
        x = Tensor(rng.standard_normal((3, 4)))

        def loss():
            return tmean(square(matmul(linear_relu(x, w1, b1), w2)))

        assert finite_diff_check(loss, [w1, b1, w2]) < 1e-4

    def test_off_path_leaves_get_zero(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        unused = Tensor([5.0], requires_grad=True)
        grads = backward(tmean(x), params=[x, unused])
        np.testing.assert_array_equal(grads[unused].data, np.zeros(1))

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            backward(x + x)

    def test_reused_node_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * x  # dx = 2x via two paths through mul
        grads = backward(tmean(y + y))
        np.testing.assert_allclose(grads[x].data, [12.0])

    def test_tape_visits_each_node_once(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        loss = tmean(y + y)
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
                return tmean(square(channel_dot(w, v)))

            assert finite_diff_check(loss, [w, v]) < 1e-6

    @pytest.mark.parametrize("v_shape", [(2, 4), (5, 2, 4)], ids=["unbatched", "batched"])
    def test_gradients_are_adjoint(self, rng, v_shape):
        """channel_dot is bilinear: <J_w dw, g> = <dw, grad_w g>, likewise for v."""
        w = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        v = Tensor(rng.standard_normal(v_shape), requires_grad=True)
        g = rng.standard_normal(channel_dot(w, v).shape)
        grads = backward(tmean(channel_dot(w, v) * Tensor(g)))
        dw, dv = rng.standard_normal(w.shape), rng.standard_normal(v.shape)
        assert np.vdot(channel_dot(Tensor(dw), v).data, g) == pytest.approx(
            np.vdot(dw, grads[w].data) * g.size, rel=1e-12)
        assert np.vdot(channel_dot(w, Tensor(dv)).data, g) == pytest.approx(
            np.vdot(dv, grads[v].data) * g.size, rel=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("v_shape", [(7, 36), (32, 7, 36), (3, 4, 7, 36), (2, 5, 1), (1, 3, 1)],
                             ids=["rank2", "rank3", "rank4", "rank3-d1", "rank3-b1"])
    def test_bit_identical_to_moveaxis_form(self, rng, request, dtype, v_shape):
        """Forward, grad_w and grad_v equal the moveaxis layout bit for bit."""
        if dtype == np.float32:
            request.getfixturevalue("float32_mode")
        n, d = v_shape[-2:]
        w = Tensor(rng.standard_normal((n, 24, d)), requires_grad=True)
        v = Tensor(rng.standard_normal(v_shape), requires_grad=True)
        g = rng.standard_normal((*v_shape[:-1], 24)).astype(dtype)
        out = channel_dot(w, v)
        grad_w, grad_v = out._grad_fns
        expected = channel_dot_moveaxis(w.data, v.data, g)
        for got, want in zip((out.data, grad_w(g), grad_v(g)), expected):
            assert_same_bits(got, want)

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionError):
            channel_dot(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 5))))
        with pytest.raises(DimensionError, match=r"w \(N, H, D\)"):
            channel_dot(Tensor(np.zeros((2, 3, 4, 5))), Tensor(np.zeros((2, 5))))


def gemv_oracle(z, w):
    """out[n, s] = sum_j z[n, j] w[n, j, s] by loops in float64, with w as (N, d, S)."""
    n, d = z.shape
    wm = w.reshape(n, d, -1).astype(np.float64)
    out = np.zeros(wm.shape[::2])
    for c in range(n):
        for j in range(d):
            for s in range(wm.shape[2]):
                out[c, s] += float(z[c, j]) * wm[c, j, s]
    return out.reshape(n, *w.shape[2:])


class TestChannelGemv:
    @pytest.mark.parametrize("d", [1, 3], ids=["d1", "d3"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_matches_summation_oracle(self, rng, request, dtype, d):
        """Against float64 loops: the forward within d eps sum_j |z||w|, grad_z
        within prod(S) eps sum_s |w||g|, and grad_w exact, z[n, j] g[n] bit for bit."""
        if dtype == "float32":
            request.getfixturevalue("float32_mode")
        n, h, k = 3, 4, 5
        z = Tensor(rng.standard_normal((n, d)), requires_grad=True)
        w = Tensor(rng.standard_normal((n, d, h, k)), requires_grad=True)
        g = rng.standard_normal((n, h, k)).astype(get_default_dtype())
        out = channel_gemv(z, w)
        assert out.shape == (n, h, k) and out.data.dtype == np.dtype(dtype)
        eps = np.finfo(get_default_dtype()).eps
        bound = d * eps * gemv_oracle(np.abs(z.data), np.abs(w.data))
        assert (np.abs(out.data - gemv_oracle(z.data, w.data)) <= bound).all()
        grads = backward(tmean(out * Tensor(g)))
        gu = upstream(g)
        assert np.array_equal(grads[w].data, z.data[:, :, None, None] * gu[:, None])
        gz = np.einsum("njs,ns->nj", w.data.reshape(n, d, -1).astype(np.float64),
                       gu.reshape(n, -1).astype(np.float64))
        bound = h * k * eps * np.einsum("njs,ns->nj", np.abs(w.data.reshape(n, d, -1)),
                                        np.abs(gu.reshape(n, -1)))
        assert (np.abs(grads[z].data - gz) <= bound).all()

    def test_deterministic(self, rng):
        """Two calls on equal inputs in fresh arrays give the same bits, forward and gradients."""
        z0, w0 = rng.standard_normal((7, 7)), rng.standard_normal((7, 7, 9, 33))
        g = rng.standard_normal((7, 9, 33))
        runs = []
        for _ in range(2):
            z, w = Tensor(z0.copy(), requires_grad=True), Tensor(w0.copy(), requires_grad=True)
            out = channel_gemv(z, w)
            grads = backward(tmean(out * Tensor(g)))
            runs.append([out.data.tobytes(), grads[z].data.tobytes(), grads[w].data.tobytes()])
        assert runs[0] == runs[1]

    def test_gradients(self, rng):
        from hnmvts.numcore import finite_diff_check

        z = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 3, 2, 4)), requires_grad=True)

        def loss():
            return tmean(square(channel_gemv(z, w)))

        assert finite_diff_check(loss, [z, w]) < 1e-6

    @pytest.mark.parametrize("shape_w", [(3, 2, 4, 5), (3, 1, 6), (2, 4)],
                             ids=["blocks", "d1", "scalars"])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_gradients_are_adjoint(self, shape_w, seed):
        """channel_gemv is bilinear: <g, J_z v> = <grad_z g, v>, likewise for w."""
        r = np.random.Generator(np.random.Philox(seed))
        z, w = r.standard_normal(shape_w[:2]), r.standard_normal(shape_w)
        assert_adjoint(r, channel_gemv, [z, w], [
            lambda v: np.einsum("nj,nj...->n...", v, w),
            lambda v: np.einsum("nj,nj...->n...", z, v),
        ])

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\), \(2, 4, 5\)"):
            channel_gemv(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4, 5))))
        with pytest.raises(DimensionError, match=r"\(2,\)"):
            channel_gemv(Tensor(np.zeros(2)), Tensor(np.zeros((2, 4, 5))))


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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    def test_bit_identical_to_concatenate_form(self, rng, dtype):
        """Both directions equal the concatenate-and-cumsum form bit for bit, at
        lengths 1-70, every odd kernel up to the length, with rows holding NaN,
        +-inf, -0.0 and huge values."""
        for length in range(1, 71):
            x = rng.standard_normal((2, 5, length)).astype(dtype)
            x[0, 0, rng.integers(length)] = np.nan
            x[0, 1, rng.integers(length)] = np.inf
            x[0, 2, rng.integers(length)] = -np.inf
            x[0, 3] = -0.0
            x[0, 4, rng.integers(length)] = np.finfo(dtype).max
            for kernel in range(1, length + 1, 2):
                with np.errstate(invalid="ignore", over="ignore"):
                    assert_same_bits(moving_average(x, kernel), moving_average_concat(x, kernel))
                    assert_same_bits(moving_average_adjoint(x, kernel),
                                     moving_average_adjoint_concat(x, kernel))

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
        loss = tmean(square(reshape(x, (3, 4))))
        grads = backward(loss)
        np.testing.assert_allclose(grads[x].data * 12, 2 * x.data, atol=1e-12)

    def test_broadcast_unbroadcast(self, rng):
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        col = Tensor(rng.standard_normal((4, 1)), requires_grad=True)
        loss = tmean(square(x - col))
        grads = backward(loss)
        assert grads[col].shape == (4, 1)
        np.testing.assert_allclose(
            grads[col].data * 12, (-2 * (x.data - col.data)).sum(axis=1, keepdims=True),
            atol=1e-12,
        )


class TestReductions:
    def test_mean_gradient_bit_identical_to_expand_dims_form(self, rng):
        x = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
        out = tmean(x)
        assert out.shape == ()
        g = rng.standard_normal(out.shape)
        expected = np.broadcast_to(np.expand_dims(g, (0, 1, 2)), x.shape) / x.size
        assert_same_bits(out._grad_fns[0](g), expected)


def assert_adjoint(r, f, xs, jvps):
    """<g, J_i v> == <J_i^T g, v> for each input x_i of `f`, with `jvps[i](v)`
    the directional derivative J_i v written out in numpy and J_i^T g the
    gradient that `backward` returns for x_i. The loss is the mean of out * g,
    so that gradient is J_i^T g over the element count."""
    ts = [Tensor(x, requires_grad=True) for x in xs]
    out = f(*ts)
    g = r.standard_normal(out.shape)
    grads = backward(tmean(mul(out, Tensor(g))), ts)
    for t, jvp in zip(ts, jvps):
        v = r.standard_normal(t.shape)
        assert grads[t].shape == t.shape
        assert np.vdot(g, jvp(v)) == pytest.approx(np.vdot(grads[t].data, v) * g.size,
                                                   rel=1e-10, abs=1e-12)


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

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_reductions(self, seed):
        r = np.random.Generator(np.random.Philox(seed))
        x = r.standard_normal((3, 4, 2))
        assert_adjoint(r, tmean, [x], [np.mean])

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
