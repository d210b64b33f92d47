import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import finite_diff_check, trace_reference
from hnmvts.numcore import (
    DimensionError,
    OuterGrad,
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
    mse,
    mul,
    no_grad,
    reshape,
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


class TestTensorData:
    """A Tensor's `data` is a C-contiguous ndarray of the package dtype: it is the
    array passed in when that already is one, and a cast or copy otherwise."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_keeps_a_contiguous_array_of_the_package_dtype(self, request, dtype):
        if dtype == "float32":
            request.getfixturevalue("float32_mode")
        for a in (np.arange(6.0).reshape(2, 3), np.zeros((2, 0)), np.array(1.5)):
            a = a.astype(dtype)
            assert Tensor(a).data is a

    @pytest.mark.parametrize("source", ["list", "float32", "view", "subclass", "int", "scalar"])
    def test_casts_or_copies_anything_else(self, source):
        base = np.arange(12.0).reshape(3, 4)
        a = {"list": base.tolist(), "float32": base.astype(np.float32), "view": base[:, ::2],
             "subclass": base.view(np.matrix), "int": base.astype(int),
             "scalar": np.float64(2.5)}[source]
        data = Tensor(a).data
        assert data is not a
        assert type(data) is np.ndarray and data.dtype == np.float64
        assert data.flags.c_contiguous and data.shape == np.shape(a)
        np.testing.assert_array_equal(data, np.asarray(a))


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
        grads = backward(dot_loss(matmul(a, b), upstream(g)))
        assert grads[a].shape == shape_a and grads[b].shape == shape_b
        da, db = r.standard_normal(shape_a), r.standard_normal(shape_b)
        assert np.vdot(g, matmul(Tensor(da), b).data) == pytest.approx(
            np.vdot(grads[a].data, da) * g.size, rel=1e-10, abs=1e-12)
        assert np.vdot(g, matmul(a, Tensor(db)).data) == pytest.approx(
            np.vdot(grads[b].data, db) * g.size, rel=1e-10, abs=1e-12)


def upstream(g):
    """Each entry of g times 1 / (its element count): the gradient the mean
    of out * g sends to `out`."""
    return g * (np.ones_like(g) / g.size)


def dot_loss(out, w):
    """<out, w> as a scalar node, out's row times w's column. The gradient it
    sends to `out` is w, exactly: each entry is 1 * w_i."""
    return matmul(reshape(out, (1, out.size)), Tensor(w.reshape(-1, 1)))


def mean_loss(out):
    """The mean of every entry of `out` as `dot_loss`; its gradient is 1 / size."""
    return dot_loss(out, np.ones(out.shape) / out.size)


def mean_square(out):
    """The mean of out's squared entries: `mse` against zeros."""
    return mse(out, np.zeros(out.shape))


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
        grads = backward(dot_loss(out, upstream(g)))
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
        grads = backward(dot_loss(out, upstream(g)))
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
        grad_h = backward(dot_loss(out, upstream(g)))[h].data
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
        grads = backward(mean_loss(x))
        np.testing.assert_array_equal(grads[x].data * 5, np.ones(5))

    def test_half_norm_squared_gives_x(self, rng):
        xv = rng.standard_normal(7)
        x = Tensor(xv, requires_grad=True)
        loss = mean_square(x) * 0.5
        grads = backward(loss)
        np.testing.assert_allclose(grads[x].data * 7, xv, atol=1e-12)

    def test_two_layer_mlp_matches_finite_differences(self, rng):
        w1 = Tensor(rng.standard_normal((4, 5)) * 0.5, requires_grad=True)
        b1 = Tensor(rng.standard_normal(5) * 0.5, requires_grad=True)
        w2 = Tensor(rng.standard_normal((5, 2)) * 0.5, requires_grad=True)
        x = Tensor(rng.standard_normal((3, 4)))

        def loss():
            return mean_square(matmul(linear_relu(x, w1, b1), w2))

        assert finite_diff_check(loss, [w1, b1, w2]) < 1e-4

    def test_off_path_leaves_get_zero(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        unused = Tensor([5.0], requires_grad=True)
        grads = backward(mean_loss(x), params=[x, unused])
        np.testing.assert_array_equal(grads[unused].data, np.zeros(1))

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            backward(x + x)

    def test_reused_node_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * x  # dx = 2x via two paths through mul
        grads = backward(mean_loss(y + y))
        np.testing.assert_allclose(grads[x].data, [12.0])

    def test_tape_visits_each_node_once(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        loss = mean_loss(y + y)
        tape = Tape.trace(loss)
        ids = [id(n) for n in tape.nodes]
        assert len(ids) == len(set(ids))
        assert ids[-1] == id(loss)

    def test_no_grad_blocks_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 3.0
        assert not y.requires_grad and y._parents == ()


def same_nodes(got, want) -> bool:
    return [id(n) for n in got] == [id(n) for n in want]


class TestTraceOrder:
    """`Tape.trace` returns the node order of the reference walk in
    `helpers.trace_reference`, which decides how `backward` sums the
    contributions to a shared node."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_random_dags_with_shared_subgraphs(self, data):
        """Each new node applies add, mul or reshape to earlier nodes, so nodes are
        reused by several consumers, some more than twice; leaves may or may not
        need a gradient, and the loss sums the last few nodes."""
        flags = data.draw(st.lists(st.booleans(), min_size=1, max_size=4))
        nodes = [Tensor(np.full(3, i + 1.0), requires_grad=f) for i, f in enumerate(flags)]
        nodes[0].requires_grad = True
        pick = st.integers(0, 10**6).map(lambda i: nodes[-1 - i % min(len(nodes), 5)]
                                         if i % 3 else nodes[i % len(nodes)])
        for op in data.draw(st.lists(st.sampled_from(["add", "mul", "reshape"]),
                                     min_size=1, max_size=14)):
            a = data.draw(pick)
            if op == "reshape":
                nodes.append(reshape(reshape(a, (3, 1)), (3,)))
            else:
                nodes.append((add if op == "add" else mul)(a, data.draw(pick)))
        total = nodes[-1]
        for extra in data.draw(st.lists(pick, max_size=3)):
            total = add(total, extra)
        root = mse(total, np.zeros(3))
        assert same_nodes(Tape.trace(root).nodes, trace_reference(root))

    def test_node_with_three_contributions(self):
        """x feeds a, b and s: the walk reaches x first through s, the last
        parent pushed, and then b before a."""
        x = Tensor([1.0, 2.0], requires_grad=True)
        a, b = x * 2.0, x * 3.0
        t = add(a, b)
        s = add(t, x)
        loss = mse(s, np.zeros(2))
        assert same_nodes(trace_reference(loss), [x, b, a, t, s, loss])
        assert same_nodes(Tape.trace(loss).nodes, [x, b, a, t, s, loss])

    @pytest.mark.parametrize("form", ["baseline", "hn_pcl", "hn_shared", "raw_forward"])
    def test_real_step_graphs(self, rng, form):
        """The graphs a training step builds (`trainer._batch_loss` on a prepared
        batch) for the three model forms, and the loss on `forward`'s raw-scale
        forecast, whose RevIN map back adds mul and add nodes."""
        from hnmvts import trainer
        from hnmvts.backbones import DLinearBackbone, MlpBackbone
        from hnmvts.data import SeriesTable, make_windows
        from hnmvts.hypernet import build_baseline, build_hyper

        table = SeriesTable(Tensor(rng.standard_normal((80, 3)).cumsum(axis=0)), ["a", "b", "c"])
        windows = make_windows(table, 12, 4)
        if form == "hn_shared":
            bb = MlpBackbone(12, (6, 5), rng=rng)
            model = build_hyper(bb, table, 4, rng, d=2, mode="shared_mlp", gen_hidden=(4,))
        elif form == "hn_pcl":
            model = build_hyper(DLinearBackbone(12, kernel=5), table, 4, rng)
        else:
            model = build_baseline(DLinearBackbone(12, kernel=5), 3, 4, rng)
        if form == "raw_forward":
            x, y = windows.batch(slice(0, 9))
            loss = mse(model.forward(Tensor(x)), y)
        else:
            prepared = trainer.PreparedSet(model, windows, for_loss=True)
            loss = trainer._batch_loss(model, trainer._stack_batch(prepared, np.arange(9)[::-1]))
        nodes = Tape.trace(loss).nodes
        assert len(nodes) >= 4
        assert same_nodes(nodes, trace_reference(loss))


def slot_operands(rng, n, v_batch, widths, h=3, grad=True):
    """One (N, H, D) weight and one (*B, N, D) hidden state per slot width D,
    each a Tensor that needs a gradient when `grad`."""
    ws = [Tensor(rng.standard_normal((n, h, d)), requires_grad=grad) for d in widths]
    vs = [Tensor(rng.standard_normal((*v_batch, n, d)), requires_grad=grad) for d in widths]
    return ws, vs


SLOT_WIDTHS = pytest.mark.parametrize("widths", [(4,), (4, 6)], ids=["one_slot", "two_slots"])
DTYPES = pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])


class TestChannelDot:
    def test_final_layer_case_against_loops(self, rng):
        n, h, d = 2, 3, 4
        w = rng.standard_normal((n, h, d))
        v = rng.standard_normal((n, d))
        out = channel_dot([Tensor(w)], [Tensor(v)])
        expected = np.zeros((n, h))
        for c in range(n):
            for i in range(h):
                for q in range(d):
                    expected[c, i] += w[c, i, q] * v[c, q]
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_batched_matches_per_sample(self, rng):
        ws, vs = slot_operands(rng, 3, (6,), (5, 2), h=4)
        out = channel_dot(ws, vs)
        for b in range(6):
            single = channel_dot(ws, [Tensor(v.data[b]) for v in vs])
            np.testing.assert_allclose(out.data[b], single.data, atol=1e-12)

    @SLOT_WIDTHS
    @DTYPES
    def test_gradients(self, rng, request, dtype, widths):
        """Each slot's weight and hidden state: the loss is quadratic in each
        coordinate, so float32 takes a longer step with the same exactness."""
        if dtype == np.float32:
            request.getfixturevalue("float32_mode")
        step, tol = (1e-5, 1e-6) if dtype == np.float64 else (0.25, 1e-3)
        for v_batch in [(5,), ()]:  # batched, and unbatched (the generator's form)
            ws, vs = slot_operands(rng, 2, v_batch, widths)

            def loss():
                return mean_square(channel_dot(ws, vs))

            assert finite_diff_check(loss, ws + vs, step=step) < tol

    @SLOT_WIDTHS
    @DTYPES
    @pytest.mark.parametrize("v_batch", [(), (5,)], ids=["unbatched", "batched"])
    def test_gradients_are_adjoint(self, rng, request, dtype, v_batch, widths):
        """channel_dot is linear in each operand: <J_w dw, g> = <dw, grad_w g>,
        likewise for v, slot by slot."""
        if dtype == np.float32:
            request.getfixturevalue("float32_mode")
        rel = 1e-12 if dtype == np.float64 else 1e-4
        ws, vs = slot_operands(rng, 2, v_batch, widths)
        g = rng.standard_normal(channel_dot(ws, vs).shape)
        grads = backward(dot_loss(channel_dot(ws, vs), upstream(g)))
        for w, v in zip(ws, vs):
            dw, dv = rng.standard_normal(w.shape), rng.standard_normal(v.shape)
            assert np.vdot(channel_dot([Tensor(dw)], [v]).data, g) == pytest.approx(
                np.vdot(dw, grads[w].data) * g.size, rel=rel)
            assert np.vdot(channel_dot([w], [Tensor(dv)]).data, g) == pytest.approx(
                np.vdot(dv, grads[v].data) * g.size, rel=rel)

    @pytest.mark.parametrize("slots", [1, 2], ids=["one_slot", "two_slots"])
    @DTYPES
    @pytest.mark.parametrize("v_shape", [(7, 36), (32, 7, 36), (3, 4, 7, 36), (2, 5, 1), (1, 3, 1)],
                             ids=["rank2", "rank3", "rank4", "rank3-d1", "rank3-b1"])
    def test_bit_identical_to_moveaxis_form(self, rng, request, dtype, v_shape, slots):
        """Forward, each grad_w and each grad_v equal the moveaxis layout bit for
        bit; the forward sums the slots' products in slot order."""
        if dtype == np.float32:
            request.getfixturevalue("float32_mode")
        n, d = v_shape[-2:]
        ws, vs = slot_operands(rng, n, v_shape[:-2], (d,) * slots, h=24)
        g = rng.standard_normal((*v_shape[:-1], 24)).astype(dtype)
        out = channel_dot(ws, vs)
        expected = [channel_dot_moveaxis(w.data, v.data, g) for w, v in zip(ws, vs)]
        want = expected[0][0]
        for e in expected[1:]:
            want = want + e[0]
        assert_same_bits(out.data, want)
        fns = out._grad_fns  # each slot's grad_w, then its grad_v
        assert len(fns) == 2 * slots
        for i, (_, want_w, want_v) in enumerate(expected):
            assert_same_bits(fns[2 * i](g), want_w)
            assert_same_bits(fns[2 * i + 1](g), want_v)

    def test_plain_operands_get_no_gradient(self, rng):
        """A plain-array hidden state gets no Tensor and no gradient; with no
        operand needing one, or under `no_grad`, no node is built."""
        ws, vs = slot_operands(rng, 2, (5,), (4, 6))
        out = channel_dot(ws, [v.data for v in vs])
        assert out._parents == tuple(ws)
        assert_same_bits(out.data, channel_dot(ws, vs).data)
        grads, full = backward(mean_square(out)), backward(mean_square(channel_dot(ws, vs)))
        assert set(grads) == set(ws)
        for w in ws:
            assert_same_bits(grads[w].data, full[w].data)
        for v in vs:
            v.requires_grad = False
        out = channel_dot([Tensor(w.data) for w in ws], vs)
        assert not out.requires_grad and out._parents == ()
        with no_grad():
            out = channel_dot(*slot_operands(rng, 2, (5,), (4,)))
        assert not out.requires_grad and out._parents == ()

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionError):
            channel_dot([Tensor(np.zeros((2, 3, 4)))], [Tensor(np.zeros((2, 5)))])
        with pytest.raises(DimensionError, match=r"w \(N, H, D\)"):
            channel_dot([Tensor(np.zeros((2, 3, 4, 5)))], [Tensor(np.zeros((2, 5)))])
        w = Tensor(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="zip"):
            channel_dot([w, w], [np.zeros((2, 4))])
        for second in (np.zeros((2, 4)), np.zeros((5, 2, 4))):  # would broadcast, would not
            with pytest.raises(DimensionError, match="slots disagree"):
                channel_dot([w, w], [np.zeros((3, 2, 4)), second])
        with pytest.raises(DimensionError, match="slots disagree"):
            channel_dot([w, Tensor(np.zeros((2, 1, 4)))], [np.zeros((2, 4))] * 2)


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
        grads = backward(dot_loss(out, upstream(g)))
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
            grads = backward(dot_loss(out, upstream(g)))
            runs.append([out.data.tobytes(), grads[z].data.tobytes(), grads[w].data.tobytes()])
        assert runs[0] == runs[1]

    def test_gradients(self, rng):
        z = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 3, 2, 4)), requires_grad=True)

        def loss():
            return mean_square(channel_gemv(z, w))

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

    def test_leaf_weight_gradient_is_factored(self, rng):
        """A leaf w used once gets an `OuterGrad` of a copy of z and g as
        (N, prod(S)); its `.data` is the dense gradient, built once."""
        z = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 4, 5)), requires_grad=True)
        g = rng.standard_normal((3, 4, 5))
        grad = backward(dot_loss(channel_gemv(z, w), g), [z, w])[w]
        assert isinstance(grad, OuterGrad)
        assert grad.shape == w.shape and grad.size == w.size
        assert np.array_equal(grad.u, z.data) and not np.shares_memory(grad.u, z.data)
        assert np.array_equal(grad.v, g.reshape(3, 20))
        assert grad.data is grad.data
        assert np.array_equal(grad.data, z.data[:, :, None, None] * g[:, None])

    def test_weight_used_twice_gets_dense_sum(self, rng):
        """Two contributions to one w are made dense and summed: a Tensor equal
        to the sum of the two outer products."""
        z1, z2 = (Tensor(rng.standard_normal((3, 2)), requires_grad=True) for _ in range(2))
        w = Tensor(rng.standard_normal((3, 2, 4, 5)), requires_grad=True)
        g1, g2 = rng.standard_normal((3, 4, 5)), rng.standard_normal((3, 4, 5))
        loss = add(dot_loss(channel_gemv(z1, w), g1), dot_loss(channel_gemv(z2, w), g2))
        grad = backward(loss, [z1, z2, w])[w]
        assert isinstance(grad, Tensor)
        want = z1.data[:, :, None, None] * g1[:, None] + z2.data[:, :, None, None] * g2[:, None]
        assert np.array_equal(grad.data, want)

    def test_non_leaf_weight_passes_dense_gradient_on(self, rng):
        """A w that is itself an op's output receives the dense gradient, so the
        leaf behind it gets a Tensor."""
        z = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        flat = Tensor(rng.standard_normal((3, 40)), requires_grad=True)
        g = rng.standard_normal((3, 4, 5))
        grad = backward(dot_loss(channel_gemv(z, reshape(flat, (3, 2, 4, 5))), g), [z, flat])[flat]
        assert isinstance(grad, Tensor)
        assert np.array_equal(grad.data, (z.data[:, :, None, None] * g[:, None]).reshape(3, 40))

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
        """Equals the concatenate-and-cumsum form bit for bit, at lengths 1-70,
        every odd kernel up to the length, with rows holding NaN, +-inf, -0.0
        and huge values."""
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

    @pytest.mark.parametrize("kernel", [1, 9, 17], ids=["k1", "k_mid", "k_length"])
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)],
                             ids=["f64", "f32"])
    def test_equals_product_with_averaged_identity(self, rng, kernel, dtype, tol):
        """moving_average(x, k) == x @ moving_average(eye(T), k) to rounding: the
        identity `DLinearBackbone.fold` builds its operator from."""
        length = 17
        x = rng.standard_normal((2, 3, length)).astype(dtype)
        a_t = moving_average(np.eye(length, dtype=dtype), kernel)
        assert a_t.dtype == dtype
        np.testing.assert_allclose(moving_average(x, kernel), x @ a_t, rtol=tol, atol=tol)


class TestShapeOps:
    def test_reshape_roundtrip_gradient(self, rng):
        x = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        loss = mean_square(reshape(x, (3, 4)))
        grads = backward(loss)
        np.testing.assert_allclose(grads[x].data * 12, 2 * x.data, atol=1e-12)

    def test_broadcast_unbroadcast(self, rng):
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        col = Tensor(rng.standard_normal((4, 1)), requires_grad=True)
        loss = mean_square(x + col * -1.0)
        grads = backward(loss)
        assert grads[col].shape == (4, 1)
        np.testing.assert_allclose(
            grads[col].data * 12, (-2 * (x.data - col.data)).sum(axis=1, keepdims=True),
            atol=1e-12,
        )


class TestMse:
    """`mse`, the training loss as one node, against the arithmetic of the three
    nodes it replaced (difference, square, mean of every element), in numpy."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("shape", [(64, 7, 96), (64, 21, 96), (32, 7, 24), (5, 7, 24)],
                             ids=["ettm2", "weather", "ili", "ili_last_batch"])
    def test_equals_tmean_of_square_bit_for_bit(self, shape, dtype, request):
        if dtype == "float32":
            request.getfixturevalue("float32_mode")
        r = np.random.default_rng(sum(shape))
        pred = Tensor(r.standard_normal(shape), requires_grad=True)
        target = r.standard_normal(shape).astype(get_default_dtype())
        loss = mse(pred, target)
        diff = pred.data - target
        assert loss.data.dtype == np.dtype(dtype)
        assert_same_bits(loss.data, (diff * diff).mean())
        # the square's derivative times the mean's, 1 / size per entry
        grad_mean = np.broadcast_to(np.ones_like(loss.data), shape) / diff.size
        assert_same_bits(backward(loss)[pred].data, grad_mean * (2.0 * diff))
        assert len(Tape.trace(loss)) == 2

    def test_refuses_shapes_that_differ(self):
        with pytest.raises(DimensionError, match=r"one shape, got \(2, 3\) and \(3,\)"):
            mse(Tensor(np.zeros((2, 3)), requires_grad=True), np.zeros(3))


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
def test_square_is_the_product_bit_for_bit(dtype):
    """`np.square`, which squares wherever the package multiplies an array by
    itself (Adam's update, `mse`, RevIN's std, `evaluate`'s errors, the
    shared_mlp init's norms), gives x * x's bits, into a new array or `out`: on +-0, subnormals, the extremes,
    +-inf, NaN of either sign, and random values over the whole exponent range
    (overflowing and underflowing squares included)."""
    info = np.finfo(dtype)
    special = [0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal,
               info.smallest_subnormal * 3, info.smallest_normal, info.max, -info.max,
               np.inf, -np.inf, np.nan, -np.nan]
    r = np.random.default_rng(17)
    exps = r.integers(info.minexp - info.nmant, info.maxexp, size=4099)
    x = np.concatenate([np.array(special, dtype),
                        np.ldexp(r.standard_normal(4099), exps).astype(dtype),
                        r.standard_normal(32 * 1024).astype(dtype)])
    with np.errstate(all="ignore"):
        want = x * x
        out = np.empty_like(x)
        np.square(x, out=out)
        got = np.square(x)
    assert want.dtype == got.dtype == dtype
    assert got.tobytes() == want.tobytes() and out.tobytes() == want.tobytes()


def assert_adjoint(r, f, xs, jvps):
    """<g, J_i v> == <J_i^T g, v> for each input x_i of `f`, with `jvps[i](v)`
    the directional derivative J_i v written out in numpy and J_i^T g the
    gradient that `backward` returns for x_i. The loss is the mean of out * g,
    so that gradient is J_i^T g over the element count."""
    ts = [Tensor(x, requires_grad=True) for x in xs]
    out = f(*ts)
    g = r.standard_normal(out.shape)
    grads = backward(dot_loss(out, upstream(g)), ts)
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

    @pytest.mark.parametrize("op", ["add", "mul"])
    @pytest.mark.parametrize("shapes", BROADCAST, ids=["same", "trailing", "3d", "outer", "scalar"])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_binary(self, op, shapes, seed):
        r = np.random.Generator(np.random.Philox(seed))
        a, b = r.standard_normal(shapes[0]), away_from_zero(r, shapes[1])
        out_shape = np.broadcast_shapes(*shapes)

        def spread(v):
            return np.broadcast_to(v, out_shape)

        f = {"add": add, "mul": mul}[op]
        jvps = {
            "add": (spread, spread),
            "mul": (lambda v: v * b, lambda v: a * v),
        }[op]
        assert_adjoint(r, f, [a, b], jvps)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_reductions(self, seed):
        r = np.random.Generator(np.random.Philox(seed))
        x, target = r.standard_normal((3, 4, 2)), r.standard_normal((3, 4, 2))
        assert_adjoint(r, lambda t: mse(t, target), [x],
                       [lambda v: np.mean(2.0 * (x - target) * v)])

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
        <g, A v> = <g A, v> with A v from `moving_average` and g A the product
        `DLinearBackbone.fold` takes, g @ moving_average(eye(T)).T."""
        kernel = data.draw(st.sampled_from(range(1, length + 1, 2)), label="kernel")
        r = np.random.Generator(np.random.Philox(seed))
        m = TestMovingAverage.ma_operator(length, kernel)
        v, g = r.standard_normal((2, 2, 3, length))
        a_v = moving_average(v, kernel)
        g_a = g @ moving_average(np.eye(length), kernel).T
        np.testing.assert_allclose(a_v, v @ m.T, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(g_a, g @ m, rtol=1e-10, atol=1e-12)
        assert np.vdot(g, a_v) == pytest.approx(np.vdot(g_a, v), rel=1e-10, abs=1e-12)


def test_float32_mode_roundtrip(float32_mode, rng):
    x = Tensor(rng.standard_normal((2, 3)))
    assert x.data.dtype == np.float32
    assert matmul(x, Tensor(np.eye(3))).data.dtype == np.float32
