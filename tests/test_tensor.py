import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import grad_error, numeric_grads, trace_reference
from hnmvts.numcore import (
    DimensionError,
    OuterGrad,
    Tape,
    Tensor,
    backward,
    channel_dot,
    channel_dot_grad,
    channel_gemv,
    channel_gemv_grad,
    get_default_dtype,
    moving_average,
    mse,
    mse_grad,
    no_grad,
    relu_product,
    relu_product_grad,
)
from hnmvts.numcore import tensor as tensor_mod
from hnmvts.numcore.tensor import _make_node


def cast(x):
    """x as an array of the package dtype."""
    return np.asarray(x, dtype=get_default_dtype())


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
    """`relu_product`, one Linear+ReLU layer, and its gradient `relu_product_grad`."""

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
        h = cast(rng.standard_normal((batch, n, k)))
        w = cast(rng.standard_normal((k, p)))
        b = cast(rng.standard_normal(p))
        g = cast(rng.standard_normal((batch, n, p)))
        out = relu_product(h, w, b)
        assert out.dtype == np.dtype(dtype)
        want = linear_relu_reference(h, w, b, g)
        assert np.array_equal(out, want["out"])
        grad_h, grad_w, grad_b = relu_product_grad(h, w, out, g)
        assert np.array_equal(grad_h, want["h"])
        assert np.array_equal(grad_b, want["b"])
        eps = np.finfo(get_default_dtype()).eps
        rows = batch * n
        bound = 2 * rows * eps * (np.abs(h.reshape(rows, k)).T
                                  @ np.abs(want["gm"].reshape(rows, p)))
        assert (np.abs(grad_w - want["w"]) <= bound).all()

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_matrix_input_bit_identical_to_numpy(self, rng, request, dtype):
        """A 2-D input, the shared-MLP generator's form (21 channel embeddings
        of width 8, hidden width 64): every gradient, grad_w included, is
        numpy's own product bit for bit."""
        if dtype == "float32":
            request.getfixturevalue("float32_mode")
        h = cast(rng.standard_normal((21, 8)))
        w = cast(rng.standard_normal((8, 64)))
        b = cast(rng.standard_normal(64))
        g = cast(rng.standard_normal((21, 64)))
        out = relu_product(h, w, b)
        want = linear_relu_reference(h, w, b, g)
        assert np.array_equal(out, want["out"])
        for got, key in zip(relu_product_grad(h, w, out, g), ("h", "w", "b")):
            assert np.array_equal(got, want[key])

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
        h = cast(rng.standard_normal(shape_h))
        w = cast(rng.standard_normal(shape_w))
        g = cast(rng.standard_normal(shape_h[:-1] + shape_w[-1:]))
        out = relu_product(h, w, cast(np.zeros(shape_w[1])))
        grad_h = relu_product_grad(h, w, out, g)[0]
        gm = g * (out > 0)
        eps = np.finfo(get_default_dtype()).eps
        k, p = shape_w
        want = np.maximum(h @ w, 0.0)
        bound = 2 * k * eps * (np.abs(h) @ np.abs(w))
        assert (np.abs(out - want) <= bound).all()
        bound = 2 * p * eps * (np.abs(gm) @ np.abs(w).T)
        assert (np.abs(grad_h - gm @ w.T) <= bound).all()
        if min(shape_h[1], k, p) == 1:
            assert np.array_equal(out, want)
            assert np.array_equal(grad_h, gm @ w.T)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_identical_to_where(self, rng, dtype):
        """The ReLU equals `np.where(pre > 0, pre, 0.0)` on the pre-activation
        bit for bit, sign bits included, at every length up to 70 (every SIMD
        tail). The special values reach it through a product with 1; -0.0
        cannot, as a product sums from +0.0."""
        tiny = np.finfo(dtype).smallest_subnormal
        special = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny,
                            np.finfo(dtype).tiny, -np.finfo(dtype).tiny, 1.5, -1.5], dtype=dtype)
        one, minus_zero = np.ones((1, 1), dtype), np.array([-0.0], dtype)
        for length in range(1, 71):
            x = np.where(rng.random(length) < 0.5, rng.choice(special, length),
                         rng.standard_normal(length)).astype(dtype)[:, None]
            pre = x @ one + minus_zero
            want = np.where(pre > 0, pre, 0.0).astype(dtype)
            out = relu_product(x, one, minus_zero)
            assert out.dtype == dtype and out.tobytes() == want.tobytes(), x

    def test_input_gradient_only_when_asked(self, rng):
        """grad_h is None unless asked for, and asking changes no other gradient."""
        h, w, b = rng.standard_normal((6, 4)), rng.standard_normal((4, 3)), rng.standard_normal(3)
        out, g = relu_product(h, w, b), rng.standard_normal((6, 3))
        with_h, without = relu_product_grad(h, w, out, g), relu_product_grad(h, w, out, g, False)
        assert without[0] is None and with_h[0].shape == h.shape
        for a, b_ in zip(with_h[1:], without[1:]):
            assert_same_bits(a, b_)

    @pytest.mark.parametrize("shape_h, shape_w", [((5, 4), (4, 3)), ((300, 5, 7), (7, 6))],
                             ids=["2d", "stack"])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_gradients_are_adjoint(self, shape_h, shape_w, seed):
        """The trunk layer's backward piece: <g, J v> = <J^T g, v> for each of h,
        w and b, with J the layer's linearisation written in numpy: the mask of
        pre > 0 times the change of h @ w + b along v. The stack spans two row
        blocks."""
        r = np.random.Generator(np.random.Philox(seed))
        h, w = r.standard_normal(shape_h), r.standard_normal(shape_w)
        b = r.standard_normal(shape_w[1])
        out = relu_product(h, w, b)
        mask = (h @ w + b) > 0
        assert_adjoint(r, out, lambda g: relu_product_grad(h, w, out, g), [h, w, b], [
            lambda v: mask * (v @ w),
            lambda v: mask * (h @ v),
            lambda v: mask * v,
        ])

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 2\)"):
            relu_product(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(2))
        with pytest.raises(DimensionError, match=r"\(3,\)"):
            relu_product(np.zeros((2, 3)), np.zeros((3, 2)), np.zeros(3))


# Small ops made with `_make_node`, for the tests of the engine itself: the
# package builds only its one loss node, so these stand in for a general graph.


def plus(a, b):
    return _make_node(a.data + b.data, (a, b), (lambda g: g, lambda g: g))


def times(a, b):
    """a * b of one shape."""
    return _make_node(a.data * b.data, (a, b), (lambda g: g * b.data, lambda g: g * a.data))


def scale(a, c: float):
    return _make_node(a.data * c, (a,), (lambda g: g * c,))


def relabel(a):
    """a itself as a new node."""
    return _make_node(a.data.copy(), (a,), (lambda g: g,))


def mean_of(a):
    """The mean of every entry, a scalar node; its gradient is 1 / size per entry."""
    return _make_node(np.mean(a.data), (a,), (lambda g: np.full(a.shape, g / a.size),))


class TestBackward:
    def test_mean_gives_ones_over_size(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        grads = backward(mean_of(x))
        np.testing.assert_array_equal(grads[x].data * 5, np.ones(5))

    def test_half_norm_squared_gives_x(self, rng):
        xv = rng.standard_normal(7)
        x = Tensor(xv, requires_grad=True)
        grads = backward(scale(mean_of(times(x, x)), 0.5))
        np.testing.assert_allclose(grads[x].data * 7, xv, atol=1e-12)

    def test_off_path_leaves_get_zero(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        unused = Tensor([5.0], requires_grad=True)
        grads = backward(mean_of(x), params=[x, unused])
        np.testing.assert_array_equal(grads[unused].data, np.zeros(1))

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            backward(plus(x, x))

    def test_reused_node_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        y = times(x, x)  # dx = 2x via two paths through times
        grads = backward(mean_of(plus(y, y)))
        np.testing.assert_allclose(grads[x].data, [12.0])

    def test_tape_visits_each_node_once(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = scale(x, 2.0)
        loss = mean_of(plus(y, y))
        tape = Tape.trace(loss)
        ids = [id(n) for n in tape.nodes]
        assert len(ids) == len(set(ids))
        assert ids[-1] == id(loss)

    def test_no_grad_blocks_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = scale(x, 3.0)
        assert not y.requires_grad and y._parents == ()

    def test_grad_in_runs_once_for_every_parent(self):
        """A node's `grad_in` maps the gradient reaching it once per pass, and
        each parent's function receives its result: the loss node's form."""
        a, b = (Tensor(np.ones(2), requires_grad=True) for _ in range(2))
        calls = []

        def grad_in(g):
            calls.append(g)
            return [np.full(2, 2.0) * g, np.full(2, 3.0) * g]

        loss = _make_node(np.float64(0.0), (a, b), (lambda gs: gs[0], lambda gs: gs[1]), grad_in)
        grads = backward(loss)
        assert len(calls) == 1
        np.testing.assert_array_equal(grads[a].data, [2.0, 2.0])
        np.testing.assert_array_equal(grads[b].data, [3.0, 3.0])


def same_nodes(got, want) -> bool:
    return [id(n) for n in got] == [id(n) for n in want]


class TestTraceOrder:
    """`Tape.trace` returns the node order of the reference walk in
    `helpers.trace_reference`, which decides how `backward` sums the
    contributions to a shared node."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_random_dags_with_shared_subgraphs(self, data):
        """Each new node applies plus, times or a chain of two relabels to
        earlier nodes, so nodes are reused by several consumers, some more than
        twice; leaves may or may not need a gradient, and the loss sums the last
        few nodes."""
        flags = data.draw(st.lists(st.booleans(), min_size=1, max_size=4))
        nodes = [Tensor(np.full(3, i + 1.0), requires_grad=f) for i, f in enumerate(flags)]
        nodes[0].requires_grad = True
        pick = st.integers(0, 10**6).map(lambda i: nodes[-1 - i % min(len(nodes), 5)]
                                         if i % 3 else nodes[i % len(nodes)])
        for op in data.draw(st.lists(st.sampled_from(["plus", "times", "relabel"]),
                                     min_size=1, max_size=14)):
            a = data.draw(pick)
            if op == "relabel":
                nodes.append(relabel(relabel(a)))
            else:
                nodes.append((plus if op == "plus" else times)(a, data.draw(pick)))
        total = nodes[-1]
        for extra in data.draw(st.lists(pick, max_size=3)):
            total = plus(total, extra)
        root = mean_of(total)
        assert same_nodes(Tape.trace(root).nodes, trace_reference(root))

    def test_node_with_three_contributions(self):
        """x feeds a, b and s: the walk reaches x first through s, the last
        parent pushed, and then b before a."""
        x = Tensor([1.0, 2.0], requires_grad=True)
        a, b = scale(x, 2.0), scale(x, 3.0)
        t = plus(a, b)
        s = plus(t, x)
        loss = mean_of(s)
        assert same_nodes(trace_reference(loss), [x, b, a, t, s, loss])
        assert same_nodes(Tape.trace(loss).nodes, [x, b, a, t, s, loss])

    @pytest.mark.parametrize("form", ["baseline", "hn_pcl", "hn_shared"])
    def test_real_step_graphs(self, rng, form):
        """The graph a training step builds (`trainer._batch_loss` on a prepared
        batch) for the three model forms: the loss node and its parents, the
        trainables, 1 + P nodes, in the reference walk's order."""
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
        prepared = trainer.PreparedSet(model, windows, for_loss=True)
        loss = trainer._batch_loss(model, trainer._stack_batch(prepared, np.arange(9)[::-1]))
        nodes = Tape.trace(loss).nodes
        params = list(model.parameters().values())
        assert len(nodes) == 1 + len(params) and nodes[-1] is loss
        assert {id(n) for n in nodes[:-1]} == {id(p) for p in params}
        assert same_nodes(nodes, trace_reference(loss))


def slot_operands(rng, n, v_batch, widths, h=3):
    """One (N, H, D) weight and one (*B, N, D) hidden state per slot width D,
    arrays of the package dtype."""
    ws = [cast(rng.standard_normal((n, h, d))) for d in widths]
    vs = [cast(rng.standard_normal((*v_batch, n, d))) for d in widths]
    return ws, vs


SLOT_WIDTHS = pytest.mark.parametrize("widths", [(4,), (4, 6)], ids=["one_slot", "two_slots"])
DTYPES = pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])


class TestChannelDot:
    def test_final_layer_case_against_loops(self, rng):
        n, h, d = 2, 3, 4
        w = rng.standard_normal((n, h, d))
        v = rng.standard_normal((n, d))
        out = channel_dot([w], [v])
        expected = np.zeros((n, h))
        for c in range(n):
            for i in range(h):
                for q in range(d):
                    expected[c, i] += w[c, i, q] * v[c, q]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_batched_matches_per_sample(self, rng):
        ws, vs = slot_operands(rng, 3, (6,), (5, 2), h=4)
        out = channel_dot(ws, vs)
        for b in range(6):
            single = channel_dot(ws, [v[b] for v in vs])
            np.testing.assert_allclose(out[b], single, atol=1e-12)

    @SLOT_WIDTHS
    @DTYPES
    def test_gradients(self, rng, request, dtype, widths):
        """Each slot's weight and hidden state, against central differences of the
        mean square of the output: the loss is quadratic in each coordinate, so
        float32 takes a longer step with the same exactness."""
        if dtype == np.float32:
            request.getfixturevalue("float32_mode")
        step, tol = (1e-5, 1e-6) if dtype == np.float64 else (0.25, 1e-3)
        for v_batch in [(5,), ()]:  # batched, and unbatched (the generator's form)
            ws, vs = slot_operands(rng, 2, v_batch, widths)
            out = channel_dot(ws, vs)
            zeros = np.zeros_like(out)
            loss, diff = mse(out, zeros)
            g_ws, g_vs = channel_dot_grad(mse_grad(diff, np.ones_like(loss)), ws, vs, True)
            fd = numeric_grads(lambda: float(mse(channel_dot(ws, vs), zeros)[0]), ws + vs, step)
            assert max(map(grad_error, g_ws + g_vs, fd)) < tol

    @SLOT_WIDTHS
    @DTYPES
    @pytest.mark.parametrize("v_batch", [(), (5,)], ids=["unbatched", "batched"])
    def test_gradients_are_adjoint(self, rng, request, dtype, v_batch, widths):
        """The final layer's backward piece: channel_dot is linear in each operand,
        so <J_w dw, g> = <dw, grad_w g>, likewise for v, slot by slot."""
        if dtype == np.float32:
            request.getfixturevalue("float32_mode")
        rel = 1e-12 if dtype == np.float64 else 1e-4
        ws, vs = slot_operands(rng, 2, v_batch, widths)
        g = cast(rng.standard_normal(channel_dot(ws, vs).shape))
        g_ws, g_vs = channel_dot_grad(g, ws, vs, True)
        for w, v, g_w, g_v in zip(ws, vs, g_ws, g_vs):
            dw, dv = cast(rng.standard_normal(w.shape)), cast(rng.standard_normal(v.shape))
            assert np.vdot(channel_dot([dw], [v]), g) == pytest.approx(np.vdot(dw, g_w), rel=rel)
            assert np.vdot(channel_dot([w], [dv]), g) == pytest.approx(np.vdot(dv, g_v), rel=rel)

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
        expected = [channel_dot_moveaxis(w, v, g) for w, v in zip(ws, vs)]
        want = expected[0][0]
        for e in expected[1:]:
            want = want + e[0]
        assert_same_bits(out, want)
        g_ws, g_vs = channel_dot_grad(g, ws, vs, True)
        assert len(g_ws) == len(g_vs) == slots
        for got_w, got_v, (_, want_w, want_v) in zip(g_ws, g_vs, expected):
            assert_same_bits(got_w, want_w)
            assert_same_bits(got_v, want_v)

    def test_hidden_gradients_only_when_asked(self, rng):
        """Without `grad_hidden` no hidden-state gradient is computed, and the
        weight gradients are the same bits."""
        ws, vs = slot_operands(rng, 2, (5,), (4, 6))
        g = rng.standard_normal((5, 2, 3))
        g_ws, g_vs = channel_dot_grad(g, ws, vs)
        assert g_vs is None
        for got, want in zip(g_ws, channel_dot_grad(g, ws, vs, True)[0]):
            assert_same_bits(got, want)

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionError):
            channel_dot([np.zeros((2, 3, 4))], [np.zeros((2, 5))])
        with pytest.raises(DimensionError, match=r"w \(N, H, D\)"):
            channel_dot([np.zeros((2, 3, 4, 5))], [np.zeros((2, 5))])
        w = np.zeros((2, 3, 4))
        with pytest.raises(ValueError, match="zip"):
            channel_dot([w, w], [np.zeros((2, 4))])
        for second in (np.zeros((2, 4)), np.zeros((5, 2, 4))):  # would broadcast, would not
            with pytest.raises(DimensionError, match="slots disagree"):
                channel_dot([w, w], [np.zeros((3, 2, 4)), second])
        with pytest.raises(DimensionError, match="slots disagree"):
            channel_dot([w, np.zeros((2, 1, 4))], [np.zeros((2, 4))] * 2)


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


def gemv_node(z: Tensor, w: Tensor, g: np.ndarray) -> Tensor:
    """<channel_gemv(z, w), g> as one node whose backward is `channel_gemv_grad`:
    w's gradient reaches `backward` factored."""
    return _make_node(np.vdot(channel_gemv(z.data, w.data), g), (z, w),
                      (lambda grads: grads[0], lambda grads: grads[1]),
                      lambda seed: channel_gemv_grad(z.data, w.data, g * seed))


class TestChannelGemv:
    @pytest.mark.parametrize("d", [1, 3], ids=["d1", "d3"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_matches_summation_oracle(self, rng, request, dtype, d):
        """Against float64 loops: the forward within d eps sum_j |z||w|, grad_z
        within prod(S) eps sum_s |w||g|, and grad_w exact, z[n, j] g[n] bit for bit."""
        if dtype == "float32":
            request.getfixturevalue("float32_mode")
        n, h, k = 3, 4, 5
        z = cast(rng.standard_normal((n, d)))
        w = cast(rng.standard_normal((n, d, h, k)))
        g = cast(rng.standard_normal((n, h, k)))
        out = channel_gemv(z, w)
        assert out.shape == (n, h, k) and out.dtype == np.dtype(dtype)
        eps = np.finfo(get_default_dtype()).eps
        bound = d * eps * gemv_oracle(np.abs(z), np.abs(w))
        assert (np.abs(out - gemv_oracle(z, w)) <= bound).all()
        grad_z, grad_w = channel_gemv_grad(z, w, g)
        assert np.array_equal(grad_w.data, z[:, :, None, None] * g[:, None])
        gz = np.einsum("njs,ns->nj", w.reshape(n, d, -1).astype(np.float64),
                       g.reshape(n, -1).astype(np.float64))
        bound = h * k * eps * np.einsum("njs,ns->nj", np.abs(w.reshape(n, d, -1)),
                                        np.abs(g.reshape(n, -1)))
        assert (np.abs(grad_z - gz) <= bound).all()

    def test_deterministic(self, rng):
        """Two calls on equal inputs in fresh arrays give the same bits, forward and gradients."""
        z0, w0 = rng.standard_normal((7, 7)), rng.standard_normal((7, 7, 9, 33))
        g = rng.standard_normal((7, 9, 33))
        runs = []
        for _ in range(2):
            z, w = z0.copy(), w0.copy()
            grad_z, grad_w = channel_gemv_grad(z, w, g)
            runs.append([channel_gemv(z, w).tobytes(), grad_z.tobytes(), grad_w.data.tobytes()])
        assert runs[0] == runs[1]

    def test_gradients(self, rng):
        """Against central differences of the mean square of the output."""
        z, w = rng.standard_normal((2, 3)), rng.standard_normal((2, 3, 2, 4))
        zeros = np.zeros((2, 2, 4))
        loss, diff = mse(channel_gemv(z, w), zeros)
        grad_z, grad_w = channel_gemv_grad(z, w, mse_grad(diff, np.ones_like(loss)))
        fd = numeric_grads(lambda: float(mse(channel_gemv(z, w), zeros)[0]), [z, w])
        assert max(grad_error(grad_z, fd[0]), grad_error(grad_w.data, fd[1])) < 1e-6

    @pytest.mark.parametrize("shape_w", [(3, 2, 4, 5), (3, 1, 6), (2, 4)],
                             ids=["blocks", "d1", "scalars"])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_gradients_are_adjoint(self, shape_w, seed):
        """channel_gemv is bilinear: <g, J_z v> = <grad_z g, v>, likewise for w."""
        r = np.random.Generator(np.random.Philox(seed))
        z, w = r.standard_normal(shape_w[:2]), r.standard_normal(shape_w)
        assert_adjoint(r, channel_gemv(z, w), lambda g: channel_gemv_grad(z, w, g), [z, w], [
            lambda v: np.einsum("nj,nj...->n...", v, w),
            lambda v: np.einsum("nj,nj...->n...", z, v),
        ])

    def test_weight_gradient_is_factored(self, rng):
        """w gets an `OuterGrad` of a copy of z and g as (N, prod(S)); its `.data`
        is the dense gradient, built once. Without `grad_z` z gets none."""
        z, w = rng.standard_normal((3, 2)), rng.standard_normal((3, 2, 4, 5))
        g = rng.standard_normal((3, 4, 5))
        grad_z, grad = channel_gemv_grad(z, w, g)
        assert isinstance(grad, OuterGrad)
        assert grad.shape == w.shape and grad.size == w.size
        assert np.array_equal(grad.u, z) and not np.shares_memory(grad.u, z)
        assert np.array_equal(grad.v, g.reshape(3, 20))
        assert grad.data is grad.data
        assert np.array_equal(grad.data, z[:, :, None, None] * g[:, None])
        none, again = channel_gemv_grad(z, w, g, grad_z=False)
        assert none is None and np.array_equal(again.data, grad.data)

    def test_leaf_weight_gets_the_factored_gradient(self, rng):
        """Through `backward`, a leaf w whose whole gradient is one factored
        contribution gets the `OuterGrad` itself; z gets a Tensor."""
        z = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 4, 5)), requires_grad=True)
        g = rng.standard_normal((3, 4, 5))
        grads = backward(gemv_node(z, w, g), [z, w])
        assert isinstance(grads[w], OuterGrad) and isinstance(grads[z], Tensor)
        assert np.array_equal(grads[w].data, z.data[:, :, None, None] * g[:, None])

    def test_weight_used_twice_gets_dense_sum(self, rng):
        """Two contributions to one w are made dense and summed: a Tensor equal
        to the sum of the two outer products."""
        z1, z2 = (Tensor(rng.standard_normal((3, 2)), requires_grad=True) for _ in range(2))
        w = Tensor(rng.standard_normal((3, 2, 4, 5)), requires_grad=True)
        g1, g2 = rng.standard_normal((3, 4, 5)), rng.standard_normal((3, 4, 5))
        loss = plus(gemv_node(z1, w, g1), gemv_node(z2, w, g2))
        grad = backward(loss, [z1, z2, w])[w]
        assert isinstance(grad, Tensor)
        want = z1.data[:, :, None, None] * g1[:, None] + z2.data[:, :, None, None] * g2[:, None]
        assert np.array_equal(grad.data, want)

    def test_non_leaf_weight_passes_dense_gradient_on(self, rng):
        """A w that is itself an op's output receives the dense gradient, so the
        leaf behind it gets a Tensor."""
        z = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        flat = Tensor(rng.standard_normal((3, 40)), requires_grad=True)
        w = _make_node(flat.data.reshape(3, 2, 4, 5), (flat,), (lambda g: g.reshape(3, 40),))
        g = rng.standard_normal((3, 4, 5))
        grad = backward(gemv_node(z, w, g), [z, flat])[flat]
        assert isinstance(grad, Tensor)
        assert np.array_equal(grad.data, (z.data[:, :, None, None] * g[:, None]).reshape(3, 40))

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\), \(2, 4, 5\)"):
            channel_gemv(np.zeros((2, 3)), np.zeros((2, 4, 5)))
        with pytest.raises(DimensionError, match=r"\(2,\)"):
            channel_gemv(np.zeros(2), np.zeros((2, 4, 5)))


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


class TestMse:
    """`mse`, the training loss, and `mse_grad`, against the arithmetic of the
    three graph nodes they replaced (difference, square, mean of every
    element), in numpy."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("shape", [(64, 7, 96), (64, 21, 96), (32, 7, 24), (5, 7, 24)],
                             ids=["ettm2", "weather", "ili", "ili_last_batch"])
    def test_equals_tmean_of_square_bit_for_bit(self, shape, dtype, request):
        if dtype == "float32":
            request.getfixturevalue("float32_mode")
        r = np.random.default_rng(sum(shape))
        pred = cast(r.standard_normal(shape))
        target = cast(r.standard_normal(shape))
        loss, diff = mse(pred, target)
        assert loss.dtype == np.dtype(dtype)
        assert_same_bits(diff, pred - target)
        assert_same_bits(loss, (diff * diff).mean())
        # the square's derivative times the mean's, 1 / size per entry
        seed = np.ones_like(Tensor(loss).data)
        grad_mean = np.broadcast_to(seed, shape) / diff.size
        assert_same_bits(mse_grad(diff, seed), grad_mean * (2.0 * diff))

    def test_refuses_shapes_that_differ(self):
        with pytest.raises(DimensionError, match=r"one shape, got \(2, 3\) and \(3,\)"):
            mse(np.zeros((2, 3)), np.zeros(3))


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


def assert_adjoint(r, out, grad, xs, jvps):
    """<g, J_i v> == <J_i^T g, v> for each input x_i of a kernel whose output is
    `out`, with `jvps[i](v)` the directional derivative J_i v written out in
    numpy and `grad(g)` the gradients J_i^T g that the kernel's gradient
    function returns for the gradient g reaching `out`."""
    g = r.standard_normal(np.shape(out))
    grads = grad(g)
    assert len(grads) == len(xs)
    for x, g_x, jvp in zip(xs, grads, jvps):
        g_x = g_x.data if isinstance(g_x, OuterGrad) else g_x
        v = r.standard_normal(x.shape)
        assert g_x.shape == x.shape
        assert np.vdot(g, jvp(v)) == pytest.approx(np.vdot(g_x, v), rel=1e-10, abs=1e-12)


class TestAdjoint:
    """Dot-product tests of the backward pieces not covered above."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_mse(self, seed):
        """The loss's backward piece, `mse_grad`, against the derivative of the
        mean of squares along v: the mean of 2 (x - target) v."""
        r = np.random.Generator(np.random.Philox(seed))
        x, target = r.standard_normal((3, 4, 2)), r.standard_normal((3, 4, 2))
        loss, diff = mse(x, target)
        assert_adjoint(r, loss, lambda g: [mse_grad(diff, g)], [x],
                       [lambda v: np.mean(2.0 * (x - target) * v)])

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
    assert channel_dot([cast(np.ones((2, 4, 3)))], [x.data]).dtype == np.float32
