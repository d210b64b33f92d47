"""Adam optimizer with bias correction, in ten elementwise passes.

The textbook update (Kingma & Ba, arXiv 1412.6980) at step k is

m_k = b1*m_{k-1} + (1-b1)*g        mhat = m_k / (1 - b1^k)
v_k = b2*v_{k-1} + (1-b2)*g^2      vhat = v_k / (1 - b2^k)
p  -= lr * mhat / (sqrt(vhat) + eps)

The state holds the moments scaled, M = m / (1-b1) and V = v / (1-b2), so
the gradient enters unscaled and the bias corrections fold into scalars:

M  = b1*M + g                      c_k = sqrt((1-b2) / (1-b2^k))
V  = b2*V + g^2                    s_k = lr*(1-b1) / ((1-b1^k) * c_k)
p -= s_k * M / (sqrt(V) + eps_k)   eps_k = eps / c_k

This is the textbook update in real arithmetic; only the rounding differs.
It takes ten passes per element (two for M, three for V, five for p)
where the textbook form takes thirteen. The scalars are built once per step
in each parameter's dtype, so a float32 parameter is updated in float32
under either numpy promotion rule.

V is up to 1/(1-b2) = 1000 times the textbook v, so it stays finite only
while |g| is below about 4e152 in float64 (5.8e17 in float32). Past that,
sqrt(V) is inf and the element's step is 0, as the textbook step is once
g*g overflows. M, up to ten times |g|, overflows only for gradients within
a factor of ten of the dtype's largest value; that element's step is NaN.

State is kept per parameter name; `adam_step` mutates the parameter tensors
in place (the one sanctioned mutation path) and is fully deterministic.

Every gradient is checked (shape and finiteness) before anything moves: a
bad gradient raises with the step count, every moment and every parameter
as they were before the call. The finiteness check is one sum: an inf or
NaN element makes it non-finite, so a finite sum proves every element
finite, and only a non-finite sum runs the exact elementwise test, which
then decides (a finite gradient whose sum overflows passes). All of a
step's checks run under one `np.errstate`. The sum is numpy's own, on the
calling thread: a BLAS dot of a large gradient can wake BLAS's worker
thread, and on ILI-sized steps that made training bimodal.

The update is cache-blocked. Each parameter is updated one contiguous block
of at most `_BLOCK` elements at a time, so the block's slices of p, g, M, V
and one scratch buffer per dtype stay in cache across the ten elementwise
passes, instead of each pass streaming the whole array through memory; a
parameter of at most one block is updated in one call, on its own shape.
Each block runs the same ufuncs in the same order with the same constants
as an unblocked update, so the result is bit-identical to it.

A per-channel-linear generator's weight gradient arrives factored, as an
`OuterGrad` with g[n, j, s] = u[n, j] * v[n, s] (see `channel_gemv`), and
is never written out whole:

* its check is exact from the factors: fl(max_j |u[n, j]| * max_s |v[n, s]|)
  is the largest |g| in channel n, because rounding is monotone, so it is
  finite exactly when every element of the channel is; a NaN or inf in a
  factor makes it non-finite too. That costs O(N (d + prod(S))), not a pass
  over the N d prod(S) elements;
* its update builds each block's gradient with one broadcast multiply into
  a second scratch buffer per dtype, then runs the same `_update` on the
  same slices of p, M and V. Each element is the one product u[n, j] *
  v[n, s] that the dense form holds, so the result is bit-identical. A
  block holds whole rows (j) of one channel, or part of one row. When one
  channel's (d, prod(S)) block fits in a block, as at the ILI shape, the
  dense form is built instead: it stays in cache, and one multiply over it
  ran faster than several block-sized ones.

u is a copy of the embeddings z taken during backward, not z itself: Adam
updates `embed.z` in place before it reaches `head.*.w_phi` (store order),
and a gradient built from the updated z would be wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import OuterGrad, Tensor

__all__ = ["AdamState", "adam_step"]

# Elements per block: 32 Ki float64 is 256 KiB per array, about 1.3 MB for
# the five arrays a block touches. That exceeds a 1 MiB L2, yet on a 2-vCPU
# AMD EPYC (1 MiB L2 per core, 32 MiB L3) blocks of 16 Ki to 128 Ki elements
# updated 2.06 M float64 parameters in the same 5.1-5.3 ms, against 5.7 ms at
# 8 Ki and 6.2 ms unblocked: a block saves the trip to memory between passes,
# which any block well inside the L3 avoids. 32 Ki sits in that flat range.
_BLOCK = 32 * 1024


@dataclass
class AdamState:
    """Hyperparameters, the step count and the per-parameter moments.

    `m[name]` holds the first moment scaled by 1/(1-beta1) and `v[name]` the
    second scaled by 1/(1-beta2): the textbook m and v are
    `(1 - beta1) * m[name]` and `(1 - beta2) * v[name]`.
    """

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, Tensor], grads: dict[str, Tensor | OuterGrad],
              state: AdamState) -> None:
    """One Adam update over a named parameter set, in place.

    A gradient is a Tensor or a factored `OuterGrad`, as `backward` returns
    them. Raises ValueError naming the parameter if its gradient is
    non-finite or shaped differently from the parameter; nothing is updated
    then.
    """
    checked = []
    with np.errstate(over="ignore", invalid="ignore"):  # for every check's sums and products
        for name, p in params.items():
            g = grads[name]
            if g.shape != p.data.shape:
                raise ValueError(f"gradient for '{name}' has shape {g.shape}, "
                                 f"parameter is {p.data.shape}")
            if not _finite(g):
                raise ValueError(f"non-finite gradient for parameter '{name}'")
            # a factored gradient whose channel fits in a block is built whole
            if not isinstance(g, OuterGrad) or g.size // len(g.u) <= _BLOCK:
                g = g.data
            checked.append((name, p.data, g))
    state.step_count += 1
    k = state.step_count
    c = math.sqrt((1.0 - state.beta2) / (1.0 - state.beta2**k))
    step = state.lr * (1.0 - state.beta1) / ((1.0 - state.beta1**k) * c)
    consts = (state.beta1, state.beta2, state.eps / c, step)
    # per dtype: the update's scratch, and a factored gradient's blocks
    scratch: dict[np.dtype, np.ndarray] = {}
    gscratch: dict[np.dtype, np.ndarray] = {}
    # 0-d arrays in each dtype: a float64 scalar would promote a float32 block
    # to float64 under numpy 2, and a ufunc takes a 0-d array without converting it
    scalars: dict[np.dtype, tuple] = {}
    for name, p, g in checked:
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        v = state.v[name]
        size = min(p.size, _BLOCK)
        buf = _grown(scratch, p.dtype, size)
        if p.dtype not in scalars:
            scalars[p.dtype] = tuple(np.array(x, p.dtype) for x in consts)
        if size == p.size:  # one block (so a dense gradient): the arrays as they are
            _update(p, g, m, v, buf[:size].reshape(p.shape), *scalars[p.dtype])
            continue
        # Tensor data, m and v are C-contiguous, so these are views
        p, m, v = (a.reshape(-1) for a in (p, m, v))
        if isinstance(g, OuterGrad):
            blocks = _outer_blocks(g, _grown(gscratch, p.dtype, size))
        else:
            g = g.reshape(-1)
            blocks = ((lo, g[lo : lo + _BLOCK]) for lo in range(0, p.size, _BLOCK))
        for lo, gb in blocks:
            hi = lo + gb.size
            _update(p[lo:hi], gb, m[lo:hi], v[lo:hi], buf[: hi - lo], *scalars[p.dtype])


def _grown(scratch: dict, dtype: np.dtype, size: int) -> np.ndarray:
    """`scratch[dtype]`, made or replaced so it holds at least `size` elements."""
    buf = scratch.get(dtype)
    if buf is None or buf.size < size:
        buf = scratch[dtype] = np.empty(size, dtype)
    return buf


def _finite(grad: Tensor | OuterGrad) -> bool:
    """Whether every element of a gradient is finite: a Tensor's by their sum
    and, only if that is not finite, elementwise; an `OuterGrad`'s by each
    channel's largest element, from its factors (see the module docstring).
    The caller ignores overflow and invalid values around it."""
    if isinstance(grad, OuterGrad):
        peak = np.abs(grad.u).max(axis=1) * np.abs(grad.v).max(axis=1)
        return bool(np.isfinite(peak).all())
    g = grad.data
    return math.isfinite(np.add.reduce(g, axis=None)) or bool(np.isfinite(g).all())


def _outer_blocks(g: OuterGrad, out: np.ndarray):
    """(start, block) over the flattened gradient g, each block built in `out`.

    A block is one broadcast product u * v over whole rows (j) of one channel,
    as many as fit in `_BLOCK` elements, or over part of one row when a row
    alone is larger.
    """
    u, v = g.u, g.v
    n, d = u.shape
    s = v.shape[1]
    cols = min(s, _BLOCK)
    rows = min(d, _BLOCK // cols)
    for c in range(n):
        for j in range(0, d, rows):
            j1 = min(j + rows, d)
            for t in range(0, s, cols):
                t1 = min(t + cols, s)
                block = out[: (j1 - j) * (t1 - t)]
                np.multiply(u[c, j:j1, None], v[c, None, t:t1], out=block.reshape(j1 - j, t1 - t))
                yield (c * d + j) * s + t, block


def _update(p, g, m, v, buf, beta1, beta2, eps, step) -> None:
    """The Adam update of one block, in place, on the scaled moments; `buf` is
    scratch of the block's size and the scalars are in the block's dtype."""
    m *= beta1
    m += g
    v *= beta2
    np.square(g, out=buf)
    v += buf
    np.sqrt(v, out=buf)
    buf += eps
    np.divide(m, buf, out=buf)
    buf *= step
    p -= buf
