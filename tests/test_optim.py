import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hnmvts.numcore import (
    AdamState,
    OuterGrad,
    Tensor,
    adam_step,
    backward,
    channel_gemv,
    get_default_dtype,
    mse,
    set_default_dtype,
)
from hnmvts.numcore.optim import _BLOCK


def one_step_oracle(p, g, lr=1e-4, b1=0.9, b2=0.999, eps=1e-8):
    """Hand-rolled single Adam step from the update equations."""
    m = (1 - b1) * g
    v = (1 - b2) * g * g
    mhat = m / (1 - b1)
    vhat = v / (1 - b2)
    return p - lr * mhat / (np.sqrt(vhat) + eps)


def test_zero_grad_leaves_params_unchanged():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    before = p.data.copy()
    adam_step({"p": p}, {"p": Tensor(np.zeros(3))}, AdamState())
    np.testing.assert_array_equal(p.data, before)


def test_first_step_matches_hand_oracle():
    p = Tensor(np.array([0.0]), requires_grad=True)
    g = np.array([1.0])
    adam_step({"p": p}, {"p": Tensor(g)}, AdamState())
    expected = one_step_oracle(np.array([0.0]), g)
    np.testing.assert_allclose(p.data, expected, rtol=0, atol=1e-18)
    # the first-step update is ~ -lr for unit gradient
    assert p.data[0] == pytest.approx(-1e-4, rel=1e-6)


def test_descent_on_quadratic():
    p = Tensor(np.array([1.0]), requires_grad=True)
    state = AdamState(lr=1e-2)
    magnitudes = [abs(p.data[0])]
    for _ in range(100):
        g = 2.0 * p.data
        adam_step({"p": p}, {"p": Tensor(g)}, state)
        magnitudes.append(abs(p.data[0]))
    assert all(b < a for a, b in zip(magnitudes, magnitudes[1:]))


def test_deterministic_bitwise():
    rng = np.random.Generator(np.random.Philox(7))
    pv = rng.standard_normal(6)
    gv = rng.standard_normal(6)
    results = []
    for _ in range(2):
        p = Tensor(pv.copy(), requires_grad=True)
        state = AdamState()
        for _ in range(5):
            adam_step({"p": p}, {"p": Tensor(gv)}, state)
        results.append(p.data.copy())
    assert (results[0] == results[1]).all()


def test_state_reuse_continues_moments():
    p = Tensor(np.array([1.0]), requires_grad=True)
    state = AdamState()
    adam_step({"p": p}, {"p": Tensor(np.array([1.0]))}, state)
    snapshot = copy.deepcopy(state)
    adam_step({"p": p}, {"p": Tensor(np.array([1.0]))}, state)
    assert state.step_count == snapshot.step_count + 1
    assert state.m["p"][0] > snapshot.m["p"][0]


def test_non_finite_gradient_names_parameter():
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ValueError, match="w_trend"):
        adam_step({"w_trend": p}, {"w_trend": Tensor(np.array([np.nan]))}, AdamState())


def test_shape_mismatch_names_parameter():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with pytest.raises(ValueError, match="p"):
        adam_step({"p": p}, {"p": Tensor(np.array([1.0]))}, AdamState())


def test_bad_gradient_leaves_everything_unmoved():
    """A NaN in the second gradient must not step the first parameter."""
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([3.0]), requires_grad=True)
    state = AdamState()
    adam_step({"a": a, "b": b}, {"a": Tensor(np.ones(2)), "b": Tensor(np.ones(1))}, state)
    before = copy.deepcopy((a.data, b.data, state))
    with pytest.raises(ValueError, match="'b'"):
        adam_step({"a": a, "b": b},
                  {"a": Tensor(np.ones(2)), "b": Tensor(np.array([np.nan]))}, state)
    p_a, p_b, s = before
    np.testing.assert_array_equal(a.data, p_a)
    np.testing.assert_array_equal(b.data, p_b)
    assert state.step_count == s.step_count == 1
    for name in ("a", "b"):
        np.testing.assert_array_equal(state.m[name], s.m[name])
        np.testing.assert_array_equal(state.v[name], s.v[name])


def adam_step_oracle(params, grads, state):
    """The unblocked per-parameter update, one whole-array pass per ufunc, on
    the moments scaled by 1/(1-b1) and 1/(1-b2), with the step's scalars in
    the parameter's dtype."""
    state.step_count += 1
    k = state.step_count
    c = np.sqrt((1.0 - state.beta2) / (1.0 - state.beta2**k))
    step = state.lr * (1.0 - state.beta1) / ((1.0 - state.beta1**k) * c)
    for name, p in params.items():
        g_arr = grads[name].data
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p)
            state.m[name] = m
            state.v[name] = np.zeros_like(p)
        v = state.v[name]
        f = p.dtype.type
        buf = np.empty_like(p)
        m *= f(state.beta1)
        m += g_arr
        v *= f(state.beta2)
        np.multiply(g_arr, g_arr, out=buf)
        v += buf
        np.sqrt(v, out=buf)
        buf += f(state.eps / c)
        np.divide(m, buf, out=buf)
        buf *= f(step)
        p -= buf


B = _BLOCK


@settings(max_examples=25, deadline=None)
@given(
    params=st.lists(
        st.tuples(st.sampled_from([1, B - 1, B, B + 1, 3 * B + 5]),
                  st.sampled_from(["flat", "row", "column", "3d"])),
        min_size=1, max_size=4,
    ),
    dtype=st.sampled_from([np.float64, np.float32]),
    scale=st.sampled_from([1e-6, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
# parameters of at most one block take one update on their own shape, a larger
# one is updated block by block: both sides of that edge, in each dtype
@example(params=[(B - 1, "3d"), (B, "row"), (B + 1, "flat"), (7, "3d")], dtype=np.float64,
         scale=1.0, seed=0)
@example(params=[(B - 1, "column"), (B, "3d"), (B + 1, "3d")], dtype=np.float32, scale=1e3,
         seed=1)
def test_blocked_update_matches_unblocked_bit_for_bit(params, dtype, scale, seed):
    rng = np.random.default_rng(seed)
    shapes = [{"flat": (n,), "row": (1, n), "column": (n, 1), "3d": (1, n, 1)}[form]
              for n, form in params]
    names = [f"p{i}" for i in range(len(params))]
    start = {name: rng.standard_normal(shape).astype(dtype) for name, shape in zip(names, shapes)}
    prev = get_default_dtype()
    set_default_dtype(dtype)
    try:
        tensors = {name: Tensor(x.copy(), requires_grad=True) for name, x in start.items()}
        oracle = {name: x.copy() for name, x in start.items()}
        state, oracle_state = AdamState(lr=1e-2), AdamState(lr=1e-2)
        for _ in range(5):
            grads = {name: Tensor((scale * rng.standard_normal(shape)).astype(dtype))
                     for name, shape in zip(names, shapes)}
            adam_step(tensors, grads, state)
            adam_step_oracle(oracle, grads, oracle_state)
    finally:
        set_default_dtype(prev)
    assert state.step_count == oracle_state.step_count == 5
    for name in names:
        for got, want in ((tensors[name].data, oracle[name]), (state.m[name], oracle_state.m[name]),
                          (state.v[name], oracle_state.v[name])):
            assert got.dtype == want.dtype == dtype and got.shape == want.shape
            assert np.array_equal(got, want)


def textbook_updates(p0, gs, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Each step's change of p from Kingma & Ba's equations, in float64."""
    m = np.zeros(p0.shape)
    v = np.zeros(p0.shape)
    out = []
    for k, g in enumerate(gs, start=1):
        g = g.astype(np.float64)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**k)
        vhat = v / (1 - b2**k)
        out.append(-lr * mhat / (np.sqrt(vhat) + eps))
    return out


@pytest.mark.parametrize("dtype, scale, rtol", [
    (np.float64, 1.0, 1e-12), (np.float64, 1e150, 1e-12),
    (np.float32, 1.0, 1e-5), (np.float32, 1e17, 1e-5),
], ids=["float64", "float64_1e150", "float32", "float32_1e17"])
def test_updates_match_textbook_equations(dtype, scale, rtol, request):
    """20 steps, p starting at 0 so that p_after - p_before is the update to
    within a rounding of p. Each element keeps its gradient's sign, so no
    update is near 0. Gradients of 1e150 (float64) and 1e17 (float32) keep V,
    up to 1000 times the textbook v, finite: their steps are finite too."""
    if dtype == np.float32:
        request.getfixturevalue("float32_mode")
    rng = np.random.default_rng(20)
    n = 2 * _BLOCK + 3
    sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    gs = [(scale * sign * (0.5 + np.abs(rng.standard_normal(n)))).astype(dtype)
          for _ in range(20)]
    p = Tensor(np.zeros(n), requires_grad=True)
    state = AdamState(lr=1e-3)
    for g, want in zip(gs, textbook_updates(np.zeros(n), gs, 1e-3)):
        before = p.data.copy()
        adam_step({"p": p}, {"p": Tensor(g)}, state)
        assert p.data.dtype == state.m["p"].dtype == state.v["p"].dtype == dtype
        got = p.data.astype(np.float64) - before
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0)


def test_float32_computes_and_stores_in_float32(float32_mode):
    """Parameters, moments and every pass stay float32 under either numpy
    promotion rule: a float64 scalar would promote a pass to float64 under
    numpy 2 and round differently. The oracle is written with float32 scalars
    and float32 arrays, in the kernel's order."""
    rng = np.random.default_rng(32)
    f = np.float32
    n = _BLOCK + 7
    p = Tensor(rng.standard_normal(n), requires_grad=True)
    want_p = p.data.copy()
    want_m = np.zeros(n, f)
    want_v = np.zeros(n, f)
    state = AdamState(lr=1e-3)
    for k in range(1, 8):
        g = Tensor(rng.standard_normal(n))
        assert g.data.dtype == f
        adam_step({"p": p}, {"p": g}, state)
        c = np.sqrt((1.0 - 0.999) / (1.0 - 0.999**k))
        step = 1e-3 * (1.0 - 0.9) / ((1.0 - 0.9**k) * c)
        want_m = f(0.9) * want_m + g.data
        want_v = f(0.999) * want_v + g.data * g.data
        want_p = want_p - want_m / (np.sqrt(want_v) + f(1e-8 / c)) * f(step)
        assert want_p.dtype == want_m.dtype == want_v.dtype == f
        for got, want in ((p.data, want_p), (state.m["p"], want_m), (state.v["p"], want_v)):
            assert got.dtype == f
            assert np.array_equal(got, want)


def test_finite_gradient_whose_sum_overflows_is_accepted():
    """The one-pass check sums the gradient; this sum overflows, so the exact
    elementwise test decides, and accepts it. g*g overflows as well, so V is
    inf and each element's step is 0, as the textbook form's is."""
    p = Tensor(np.array([1.0, -2.0, 0.0, 3.5]), requires_grad=True)
    before = p.data.copy()
    g = np.array([1e308, 1e308, -1e308, -1e308])
    state = AdamState()
    with pytest.warns(RuntimeWarning, match="overflow"):
        adam_step({"p": p}, {"p": Tensor(g)}, state)
    assert state.step_count == 1
    assert np.array_equal(p.data, before)
    assert np.array_equal(state.m["p"], g)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_bad_element_deep_in_a_three_block_parameter_moves_nothing(bad):
    rng = np.random.default_rng(3)
    params = {"a": Tensor(rng.standard_normal(5), requires_grad=True),
              "b": Tensor(rng.standard_normal(3 * _BLOCK), requires_grad=True)}
    state = AdamState()
    adam_step(params, {name: Tensor(rng.standard_normal(t.shape)) for name, t in params.items()},
              state)
    before = copy.deepcopy(({name: t.data for name, t in params.items()}, state))
    g_b = rng.standard_normal(3 * _BLOCK)
    g_b[2 * _BLOCK + 17] = bad
    with pytest.raises(ValueError, match="non-finite gradient for parameter 'b'"):
        adam_step(params, {"a": Tensor(rng.standard_normal(5)), "b": Tensor(g_b)}, state)
    data, s = before
    assert state.step_count == s.step_count == 1
    for name, t in params.items():
        assert np.array_equal(t.data, data[name])
        assert np.array_equal(state.m[name], s.m[name])
        assert np.array_equal(state.v[name], s.v[name])


def generator_run(shape, steps, factored, seed=0):
    """`steps` Adam steps on a learnable z (N, d) and a per-channel-linear
    generator w (shape) under the loss mse(channel_gemv(z, w), target), z
    first as in store order. With `factored` Adam gets w's gradient as
    `backward` returns it; without, as a Tensor of its `.data`, built before
    the step. Returns z, w, and w's moments."""
    rng = np.random.default_rng(seed)
    n, d = shape[:2]
    z = Tensor(rng.standard_normal((n, d)), requires_grad=True)
    w = Tensor(rng.standard_normal(shape) / d, requires_grad=True)
    target = rng.standard_normal((n, *shape[2:])).astype(get_default_dtype())
    params, state = {"embed.z": z, "head.w_phi": w}, AdamState(lr=1e-2)
    for _ in range(steps):
        grads = backward(mse(channel_gemv(z, w), target), [z, w])
        assert isinstance(grads[w], OuterGrad)
        named = {"embed.z": grads[z], "head.w_phi": grads[w]}
        if not factored:
            named["head.w_phi"] = Tensor(grads[w].data)
        adam_step(params, named, state)
    return z.data, w.data, state.m["head.w_phi"], state.v["head.w_phi"]


@pytest.mark.parametrize("shape, dtype", [
    ((7, 7, 24, 36), "float64"),
    ((7, 7, 96, 336), "float64"),
    ((21, 8, 96, 128), "float64"),
    ((3, 5, 2, 7000), "float64"),
    ((2, 3, 2, _BLOCK // 2 + 50), "float64"),
    ((7, 7, 96, 336), "float32"),
], ids=["ili", "ettm2", "weather", "uneven_rows", "row_above_block", "ettm2_float32"])
def test_factored_generator_gradient_steps_like_its_dense_form(request, shape, dtype):
    """Adam on `channel_gemv`'s factored weight gradient equals Adam on its
    dense form bit for bit: z, w and w's moments over five steps. z moves in
    the same call before w, so this also pins the copy of z the factored
    gradient holds. One channel's block fits in `_BLOCK` (ili), spans whole
    rows (ettm2, weather, uneven_rows) or splits a row (row_above_block)."""
    if dtype == "float32":
        request.getfixturevalue("float32_mode")
    factored = generator_run(shape, 5, factored=True)
    dense = generator_run(shape, 5, factored=False)
    for got, want in zip(factored, dense):
        assert got.dtype == np.dtype(dtype)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("u_bad, v_bad", [
    ((0, 1, np.nan), None), ((2, 0, np.inf), None), ((1, 2, -np.inf), None),
    (None, (1, 5, np.nan)), (None, (0, 0, -np.inf)),
    ((1, 0, np.inf), "zero_channel"),
    ((1, 0, 1e200), (1, 3, -1e200)),
], ids=["nan_z", "inf_z", "-inf_z", "nan_g", "-inf_g", "inf_times_zero", "overflow"])
def test_bad_factored_gradient_refused_like_dense(u_bad, v_bad):
    """A NaN or inf in either factor, or a product that overflows, raises the
    dense form's message, and nothing moves."""
    rng = np.random.default_rng(5)
    u, v = rng.standard_normal((3, 4)), rng.standard_normal((3, 6))
    if u_bad is not None:
        u[u_bad[0], u_bad[1]] = u_bad[2]
    if v_bad == "zero_channel":
        v[1] = 0.0
    elif v_bad is not None:
        v[v_bad[0], v_bad[1]] = v_bad[2]
    factored = OuterGrad(u, v, (3, 4, 2, 3))
    with np.errstate(all="ignore"):
        dense = Tensor(factored.data)
    messages = []
    for g in (dense, factored):
        p = Tensor(rng.standard_normal((3, 4, 2, 3)), requires_grad=True)
        before, state = p.data.copy(), AdamState()
        with pytest.raises(ValueError) as err:
            adam_step({"head.w_phi": p}, {"head.w_phi": g}, state)
        messages.append(str(err.value))
        assert np.array_equal(p.data, before) and state.step_count == 0 and not state.m
    assert messages == ["non-finite gradient for parameter 'head.w_phi'"] * 2


def test_finite_gradient_with_huge_factors_is_accepted():
    """Factors of 1e200 and 1e-200 multiply to ordinary numbers: the check
    from the factors passes them, and the step equals the dense form's."""
    rng = np.random.default_rng(6)
    u, v = 1e200 * rng.standard_normal((3, 4)), 1e-200 * rng.standard_normal((3, 6))
    results = []
    for g in (OuterGrad(u, v, (3, 4, 6)), Tensor((u[:, :, None] * v[:, None, :]))):
        p = Tensor(np.ones((3, 4, 6)), requires_grad=True)
        state = AdamState()
        adam_step({"p": p}, {"p": g}, state)
        results.append((p.data, state.m["p"], state.v["p"]))
    for got, want in zip(*results):
        assert np.array_equal(got, want)
