"""Adam optimizer with bias correction.

m_k = b1*m_{k-1} + (1-b1)*g        mhat = m_k / (1 - b1^k)
v_k = b2*v_{k-1} + (1-b2)*g^2      vhat = v_k / (1 - b2^k)
p  -= lr * mhat / (sqrt(vhat) + eps)

State is kept per parameter name; `adam_step` mutates the parameter tensors
in place (the one sanctioned mutation path) and is fully deterministic.

Every gradient is checked (shape and finiteness) before anything moves: a
bad gradient raises with the step count, every moment and every parameter
as they were before the call.

The update is cache-blocked. Each parameter is updated one contiguous block
of at most `_BLOCK` elements at a time, so the block's slices of p, g, m, v
and one scratch buffer per dtype stay in L2 across the thirteen elementwise
passes, instead of each pass streaming the whole array through memory; a
parameter of at most one block takes a single pass. Each block runs the same
ufuncs in the same order with the same constants as an unblocked update, so
the result is bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor

__all__ = ["AdamState", "adam_step"]

# Elements per block: 32 Ki float64 is 256 KiB per array, about 1.3 MB for
# the five arrays a block touches, which fits a 2 MB L2.
_BLOCK = 32 * 1024


@dataclass
class AdamState:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, Tensor], grads: dict[str, Tensor], state: AdamState) -> None:
    """One Adam update over a named parameter set, in place.

    Raises ValueError naming the parameter if its gradient is non-finite or
    shaped differently from the parameter; nothing is updated then.
    """
    checked = []
    for name, p in params.items():
        g_arr = grads[name].data
        if g_arr.shape != p.data.shape:
            raise ValueError(
                f"gradient for '{name}' has shape {g_arr.shape}, parameter is {p.data.shape}"
            )
        if not np.all(np.isfinite(g_arr)):
            raise ValueError(f"non-finite gradient for parameter '{name}'")
        checked.append((name, p.data, g_arr))
    state.step_count += 1
    k = state.step_count
    corr1 = 1.0 - state.beta1**k
    corr2 = 1.0 - state.beta2**k
    scratch: dict[np.dtype, np.ndarray] = {}
    for name, p, g in checked:
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        v = state.v[name]
        size = min(p.size, _BLOCK)
        buf = scratch.get(p.dtype)
        if buf is None or buf.size < size:
            buf = scratch[p.dtype] = np.empty(size, p.dtype)
        # Tensor data, m and v are C-contiguous, so these are views
        flat = [a.reshape(-1) for a in (p, g, m, v)]
        for lo in range(0, p.size, _BLOCK):
            hi = min(lo + _BLOCK, p.size)
            _update(*(a[lo:hi] for a in flat), buf[: hi - lo], state, corr1, corr2)


def _update(p, g, m, v, buf, state: AdamState, corr1: float, corr2: float) -> None:
    """The Adam update of one block, in place; `buf` is scratch of the block's size."""
    m *= state.beta1
    np.multiply(g, 1.0 - state.beta1, out=buf)
    m += buf
    v *= state.beta2
    np.multiply(g, g, out=buf)
    buf *= 1.0 - state.beta2
    v += buf
    np.multiply(v, 1.0 / corr2, out=buf)
    np.sqrt(buf, out=buf)
    buf += state.eps
    np.divide(m, buf, out=buf)
    buf *= state.lr / corr1
    p -= buf
