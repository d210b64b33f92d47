import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hnmvts.numcore import AdamState, Tensor, adam_step, get_default_dtype, set_default_dtype
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
    """The unblocked per-parameter update, one whole-array pass per ufunc."""
    state.step_count += 1
    k = state.step_count
    corr1 = 1.0 - state.beta1**k
    corr2 = 1.0 - state.beta2**k
    for name, p in params.items():
        g_arr = grads[name].data
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p)
            state.m[name] = m
            state.v[name] = np.zeros_like(p)
        v = state.v[name]
        buf = np.empty_like(p)
        m *= state.beta1
        np.multiply(g_arr, 1.0 - state.beta1, out=buf)
        m += buf
        v *= state.beta2
        np.multiply(g_arr, g_arr, out=buf)
        buf *= 1.0 - state.beta2
        v += buf
        np.multiply(v, 1.0 / corr2, out=buf)
        np.sqrt(buf, out=buf)
        buf += state.eps
        np.divide(m, buf, out=buf)
        buf *= state.lr / corr1
        p -= buf


B = _BLOCK


@settings(max_examples=25, deadline=None)
@given(
    params=st.lists(
        st.tuples(st.sampled_from([1, B - 1, B, B + 1, 3 * B + 5]),
                  st.sampled_from(["flat", "row", "column"])),
        min_size=1, max_size=4,
    ),
    dtype=st.sampled_from([np.float64, np.float32]),
    scale=st.sampled_from([1e-6, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_update_matches_unblocked_bit_for_bit(params, dtype, scale, seed):
    rng = np.random.default_rng(seed)
    shapes = [{"flat": (n,), "row": (1, n), "column": (n, 1)}[form] for n, form in params]
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
