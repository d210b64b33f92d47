"""Dense tensor type, the model's array kernels and their written-out gradients.

Tensors wrap contiguous row-major numpy arrays in the package-wide default
dtype (float64 unless switched to float32). A model stores its arrays as
Tensors; `requires_grad` marks the trainable ones.

The kernels work on plain arrays and are exactly what the forecasting models
run: one fused Linear+ReLU layer (`relu_product`), the per-channel final
layer over every slot (`channel_dot`, one `channel_product` per slot), the
`per_channel_linear` weight generator (`channel_gemv`), the mean squared
error and the moving average. Each differentiable kernel has a gradient
function beside it (`relu_product_grad`, `channel_dot_grad`,
`channel_gemv_grad`, `mse_grad`) that maps the gradient reaching its output
to its operands', and `ForecastModel.loss` calls them in reverse order.
`channel_gemv`'s weight gradient stays factored (`OuterGrad`) up to the
optimizer, which builds it block by block where it consumes it.

A training step's graph is one node: `ForecastModel.loss` makes it with
`_make_node`, its parents the model's trainables and its backward the whole
written-out step. `backward` traces that node into a `Tape` and hands each
trainable its gradient. Under `no_grad` (see `_GRAD_ENABLED`) no node is
recorded.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "DimensionError",
    "Tensor",
    "OuterGrad",
    "Tape",
    "backward",
    "no_grad",
    "set_default_dtype",
    "get_default_dtype",
    "relu_product",
    "relu_product_grad",
    "channel_dot",
    "channel_dot_grad",
    "channel_gemv",
    "channel_gemv_grad",
    "channel_product",
    "mse",
    "mse_grad",
    "moving_average",
]


class DimensionError(ValueError):
    """Raised when operand shapes are incompatible; the message names both."""


_DEFAULT_DTYPE = np.float64
_GRAD_ENABLED = True


def set_default_dtype(dtype) -> None:
    """Switch the package dtype (np.float64 or np.float32)."""
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise ValueError(f"unsupported dtype {dt}; use float64 or float32")
    _DEFAULT_DTYPE = dt.type


def get_default_dtype():
    return _DEFAULT_DTYPE


class no_grad:
    """Context manager that disables graph recording inside the block."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    """Dense multi-dimensional float array, optionally on the gradient graph.

    `data` is always a contiguous row-major ndarray of the default dtype.
    Leaves created with requires_grad=True are trainable parameters; a node
    made by `_make_node` records its parents.
    """

    __slots__ = ("data", "requires_grad", "_parents", "_grad_fns", "_grad_in")

    def __init__(self, data, requires_grad: bool = False):
        # kept as is if a C-contiguous ndarray of the package dtype, else cast or copied
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE, order="C")
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fns: tuple[Callable[[np.ndarray], np.ndarray], ...] = ()
        self._grad_in: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.item())

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class OuterGrad:
    """A gradient kept as its two factors: grad[n, j, *s] = u[n, j] * v[n, s].

    u is (N, d) and v (N, prod(S)); `shape` is (N, d, *S). `channel_gemv_grad`
    gives the generator weight this gradient. `data` is the dense array, built on
    first access and kept; each element is the one product u[n, j] * v[n, s],
    as the dense form computes it, so both forms hold the same bits.
    """

    __slots__ = ("u", "v", "shape", "_data")

    def __init__(self, u: np.ndarray, v: np.ndarray, shape: tuple[int, ...]):
        self.u, self.v, self.shape, self._data = u, v, tuple(shape), None

    @property
    def size(self) -> int:
        return self.u.size * self.v.shape[1]

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            self._data = (self.u[:, :, None] * self.v[:, None, :]).reshape(self.shape)
        return self._data


def _dense(g):
    """A gradient as an ndarray, building an `OuterGrad`'s dense form."""
    return g.data if isinstance(g, OuterGrad) else g


def _make_node(
    out_data: np.ndarray,
    parents: Sequence[Tensor],
    grad_fns: Sequence[Callable[[np.ndarray], np.ndarray]],
    grad_in: Callable[[np.ndarray], np.ndarray] | None = None,
) -> Tensor:
    """The op's output tensor; on the graph when a parent needs a gradient.

    `grad_fns[i]` maps the gradient reaching the output to parent i's. With
    `grad_in`, that gradient first passes through `grad_in`, once per
    backward pass, and every `grad_fns[i]` receives the result.
    """
    out = Tensor(out_data)
    if _GRAD_ENABLED:
        for p in parents:
            if p.requires_grad:
                out.requires_grad, out._grad_in = True, grad_in
                out._parents, out._grad_fns = tuple(parents), tuple(grad_fns)
                break
    return out


# plain-array kernels and their gradients ------------------------------------


# Rows per GEMM when a stack of matrices meets one 2-D matrix. The BLAS
# threads pack each GEMM's operands into buffers that stay resident: one GEMM
# over a 1024-window MLP batch grew RSS by 38 MB more than 1024-row blocks
# (2 MB per operand at width 256, float64), which run as fast as 2048-row ones.
_ROW_BLOCK = 1024


def _bias_relu(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x = max(x + b, 0) in place, equal bit for bit to `np.where(x + b > 0, x + b, 0.0)`.

    `fmax` maps NaN and -inf to 0 and may keep -0.0; adding +0.0 turns -0.0
    into +0.0 and leaves every other value as it is. It is several times
    faster than `np.where`'s scalar-broadcast path.
    """
    x += b
    np.fmax(x, 0.0, out=x)
    x += 0.0
    return x


def _stacked_rows(x: np.ndarray, m: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """x (*B, n, k) @ m (k, p), a stack of matrices as 2-D GEMMs over the flattened rows.

    Each block holds whole (n, k) matrices, about `_ROW_BLOCK` rows. Every
    output element is still one dot product over k, but BLAS picks its
    kernel by the GEMM's size, so for some widths the last bits differ from
    numpy's per-matrix products; for the MLP trunk widths the benchmark and
    tests pin (96, 128, 256) they agree bit for bit. A 2-D x, or a product
    with a dimension of 1, takes numpy's `x @ m` (gemv or numpy's own loop).
    With `bias`, each block becomes `_bias_relu(block, bias)` in cache.
    """
    n = x.shape[-2]
    if x.ndim < 3 or min(n, *m.shape) < 2:
        return x @ m if bias is None else _bias_relu(x @ m, bias)
    rows = x.reshape(-1, x.shape[-1])
    out = np.empty((rows.shape[0], m.shape[1]), dtype=np.promote_types(x.dtype, m.dtype))
    step = max(1, _ROW_BLOCK // n) * n
    for r in range(0, rows.shape[0], step):
        block = out[r : r + step]
        np.matmul(rows[r : r + step], m, out=block)
        if bias is not None:
            _bias_relu(block, bias)
    return out.reshape(*x.shape[:-1], m.shape[1])


def relu_product(h: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One Linear+ReLU layer on plain arrays, a new array: relu(h @ w + b) for
    h (*B, n, k), w (k, p) and b (p,), by `_stacked_rows`, equal bit for bit
    to numpy's `np.where(pre > 0, pre, 0.0)` of `pre = h @ w + b`."""
    if h.ndim < 2 or w.ndim != 2 or b.shape != w.shape[1:]:
        raise DimensionError(
            f"relu_product needs h (..., n, k), w (k, p) and b (p,), got {h.shape}, {w.shape}, "
            f"{b.shape}"
        )
    if h.shape[-1] != w.shape[0]:
        raise DimensionError(f"relu_product inner dimensions disagree: {h.shape} @ {w.shape}")
    return _stacked_rows(h, w, b)


def relu_product_grad(h: np.ndarray, w: np.ndarray, out: np.ndarray, g: np.ndarray,
                      grad_h: bool = True):
    """(grad_h, grad_w, grad_b) of `relu_product`'s out = relu(h @ w + b) for the
    gradient g reaching out; grad_h is None unless `grad_h`.

    The gradient is masked once, gm = g * (out > 0) (out > 0 exactly where
    pre > 0, NaN, +-0, +-inf and subnormals included). grad_h is gm @ w.T,
    run as the forward runs its product, and grad_b sums gm over its rows.
    grad_w is one GEMM over all rows, rows(h).T @ rows(gm): for a 2-D h that
    is numpy's h.T @ gm bit for bit; for a stack it sums each weight gradient
    over the R = B*n rows in another order than per-matrix products summed
    over B, within 2 R eps (|rows(h)|.T @ |rows(gm)|) of them.
    """
    gm = g * (out > 0)
    gw = h.reshape(-1, w.shape[0]).T @ gm.reshape(-1, w.shape[1])
    gb = gm.sum(axis=tuple(range(gm.ndim - 1)))
    return (_stacked_rows(gm, w.T) if grad_h else None), gw, gb


def _to_channel_major(arr: np.ndarray) -> np.ndarray:
    """(*B, N, q) -> (N, prod(B), q); channel axis leads, batch flattened.

    One `reshape` to (prod(B), N, q), which a rank-3 array skips, and one
    `transpose`, with no axis normalisation. For a contiguous array of rank 3
    or more this is the view `np.moveaxis(arr, -2, 0).reshape(N, -1, q)` gives,
    stride for stride; at rank 2 only the stride of the length-1 batch axis
    differs. The products taken over it are the same bit for bit (tests
    hold ranks 2 to 4 to the moveaxis form).
    """
    return (arr if arr.ndim == 3 else arr.reshape(-1, *arr.shape[-2:])).transpose(1, 0, 2)


def _from_channel_major(arr: np.ndarray, batch_shape: tuple[int, ...]) -> np.ndarray:
    """(N, prod(B), q) -> (*B, N, q), by one `transpose` and one `reshape`."""
    return arr.transpose(1, 0, 2).reshape(*batch_shape, arr.shape[0], arr.shape[2])


def channel_dot(weights: Sequence[np.ndarray], hidden: Sequence[np.ndarray]) -> np.ndarray:
    """The per-channel final layer over every slot i, a new array:
    out[..., n, h] = sum_i sum_q w_i[n, h, q] * v_i[..., n, q].

    w_i (N, H, D_i) holds each channel's (H x D_i) matrix and v_i (*B, N, D_i)
    its hidden states. The slots' `channel_product`s, of one shape, are summed
    into the first one's buffer in slot order.
    """
    out = channel_product(weights[0], hidden[0])
    for w, v in zip(weights[1:], hidden[1:], strict=True):
        product = channel_product(w, v)
        if product.shape != out.shape:  # no broadcast: each slot's gradient keeps its shape
            raise DimensionError(f"channel_dot slots disagree: {out.shape} vs {product.shape}")
        out += product
    return out


def channel_dot_grad(g: np.ndarray, weights: Sequence[np.ndarray], hidden: Sequence[np.ndarray],
                     grad_hidden: bool = False):
    """`channel_dot`'s backward for the gradient g (*B, N, H) reaching its output:
    each slot's weight gradient (N, H, D_i) and, with `grad_hidden`, each hidden
    state's (*B, N, D_i), else None. Each runs as a matmul batched over the
    channel axis, on channel-major views."""
    gc = _to_channel_major(g)
    gws = [gc.swapaxes(1, 2) @ _to_channel_major(v) for v in hidden]
    if not grad_hidden:
        return gws, None
    return gws, [_from_channel_major(gc @ w, g.shape[:-2]) for w in weights]


def channel_product(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One slot of `channel_dot`: w (N, H, D) applied to v (*B, N, D).

    One matmul batched over the channel axis, on v's channel-major view,
    that BLAS writes straight into that view of a new row-major (*B, N, H)
    array (no transposed copy), which a caller may write to in place.
    """
    if w.ndim != 3 or v.ndim < 2:
        raise DimensionError(f"channel_dot needs w (N, H, D) and v (..., N, D), got {w.shape}, "
                             f"{v.shape}")
    if w.shape[0] != v.shape[-2] or w.shape[-1] != v.shape[-1]:
        raise DimensionError(
            f"channel_dot shapes disagree: w {w.shape} vs v {v.shape} "
            "(need matching channel and trailing axes)"
        )
    vc, wt = _to_channel_major(v), w.swapaxes(1, 2)
    if vc.shape[1] == 1:  # one window: the channel-major product is row-major already
        return (vc @ wt).reshape(v.shape[:-1] + w.shape[1:2])
    out = np.empty(v.shape[:-1] + w.shape[1:2], dtype=np.promote_types(w.dtype, v.dtype))
    np.matmul(vc, wt, out=_to_channel_major(out))
    return out


def channel_gemv(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each channel's embedding times its own stack of blocks: out[n] = sum_j z[n, j] * w[n, j].

    With z of shape (N, d) and w of shape (N, d, *S) the result has shape
    (N, *S). It is the per_channel_linear weight generator (w = `w_phi`
    (N, d, H, D)). Each channel's w[n] is read as one contiguous (d, prod(S))
    matrix, and the forward is z[n] @ w[n], a GEMV per channel; within
    d eps sum_j |z||w| of the exact sum.
    """
    if z.ndim != 2 or w.ndim < 2 or w.shape[:2] != z.shape:
        raise DimensionError(f"channel_gemv needs z (N, d) and w (N, d, ...), got {z.shape}, "
                             f"{w.shape}")
    n, d = z.shape
    return (z[:, None, :] @ w.reshape(n, d, -1)).reshape(n, *w.shape[2:])


def channel_gemv_grad(z: np.ndarray, w: np.ndarray, g: np.ndarray, grad_z: bool = True):
    """(grad_z, grad_w) of `channel_gemv` for the gradient g (N, *S) reaching its
    output; grad_z is None unless `grad_z`.

    * grad_w, z[n, j] * g[n], d scaled copies of g per channel; each element
      is one product, so it is exact. It is returned as its factors, an
      `OuterGrad` of a copy of z and g as (N, prod(S)), so no (N, d, *S)
      array is written unless something reads `.data`. z is copied because
      the optimizer updates z in place before it reaches w;
    * grad_z, w[n] @ g[n], a GEMV per channel; within prod(S) eps sum |w||g|.
    """
    n, d = z.shape
    gw = OuterGrad(z.copy(), g.reshape(n, -1), w.shape)
    if not grad_z:
        return None, gw
    return (w.reshape(n, d, -1) @ g.reshape(n, -1, 1)).reshape(n, d), gw


def mse(pred: np.ndarray, target: np.ndarray):
    """(loss, diff): the mean of (pred - target)^2 over every element, a scalar,
    and the difference pred - target that `mse_grad` reads. The value is
    numpy's mean of np.square(diff) in its own steps, bit for bit, without
    np.mean's Python overhead."""
    if pred.shape != target.shape:
        raise DimensionError(f"mse needs pred and target of one shape, got {pred.shape} and "
                             f"{target.shape}")
    diff = pred - target
    return np.add.reduce(np.square(diff), axis=None) / diff.size, diff


def mse_grad(diff: np.ndarray, g: np.ndarray) -> np.ndarray:
    """pred's gradient under `mse` for the gradient g reaching the loss:
    (2 diff) (g / size), the derivative of the square times that of the
    mean, in that order."""
    out = 2.0 * diff
    out *= g / diff.size
    return out


# plain-array moving average ------------------------------------------------


def moving_average(x: np.ndarray, kernel: int) -> np.ndarray:
    """Centered moving average along the last axis with replicate padding.

    `kernel` must be odd and no longer than the last axis. Runs in O(length)
    in one buffer per call: a +0.0 column, then the replicate-padded rows.
    A cumsum runs in place over the padded part, after which column j
    holds the sum of the first j padded values, so window i's sum is column
    i + kernel minus column i. The additions are those of a cumsum over the
    padded rows alone, in the same order, and window 0 subtracts the +0.0
    column, so every trend is bit-identical to the concatenate, cumsum and
    shifted-difference form. (Running the cumsum over the zero column too
    would turn a running sum of -0.0 into +0.0.) Being linear along the
    last axis, it equals x @ moving_average(np.eye(length), kernel).
    """
    length = x.shape[-1]
    if kernel % 2 == 0:
        raise ValueError(f"moving_average kernel must be odd, got {kernel}")
    if not 1 <= kernel <= length:
        raise ValueError(f"moving_average kernel {kernel} out of range for length {length}")
    if kernel == 1:
        return x.copy()
    half = (kernel - 1) // 2
    buf = np.empty((*x.shape[:-1], 1 + length + 2 * half), dtype=np.result_type(x, 1.0))
    buf[..., 0] = 0.0
    buf[..., 1 : 1 + half] = x[..., :1]
    buf[..., 1 + half : 1 + half + length] = x
    buf[..., 1 + half + length :] = x[..., -1:]
    body = buf[..., 1:]
    np.cumsum(body, axis=-1, out=body)
    out = buf[..., kernel:] - buf[..., :length]
    out /= kernel
    return out


# tape and backward ----------------------------------------------------------


class Tape:
    """Topologically ordered record of the ops reachable from a root tensor."""

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "Tape":
        """The post-order of a depth-first walk that pushes a node, as its own
        marker, then its unvisited parents: popped unseen a node is expanded,
        popped again emitted, and any later pop of it is a duplicate push.
        Nodes are keyed by identity (a Tensor hashes as its object)."""
        order: list[Tensor] = []
        emitted: dict[Tensor, bool] = {}  # False once expanded, True once in `order`
        stack = [root]
        while stack:
            node = stack.pop()
            done = emitted.get(node)
            if done is None:
                if not node._parents:  # a leaf is expanded and emitted at once
                    emitted[node] = True
                    order.append(node)
                    continue
                emitted[node] = False
                stack.append(node)
                for p in node._parents:
                    if p.requires_grad and p not in emitted:
                        stack.append(p)
            elif not done:
                emitted[node] = True
                order.append(node)
        return cls(order)

    def __len__(self):
        return len(self.nodes)


def backward(
    loss: Tensor, params: Iterable[Tensor] | None = None
) -> dict[Tensor, Tensor | OuterGrad]:
    """Reverse-mode gradients of a scalar loss.

    Returns a map from each reached requires_grad leaf to its gradient
    (same shape as the leaf). When `params` is given, every listed parameter
    appears in the map; parameters off the graph get zero gradients.

    Nodes are visited in reverse trace order (`Tape.trace`), which fixes the
    order in which a shared node's contributions are summed. A gradient is a
    `Tensor`, except for a leaf whose whole gradient is one
    factored contribution (`channel_gemv`'s weight): that leaf gets the
    `OuterGrad` itself. Either form's `.data` is the dense array. A second
    contribution to the same node, or a factored gradient reaching a
    non-leaf, is made dense first, so every op's gradient function receives
    an ndarray.
    """
    if loss.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    acc = {loss: np.array(1.0, loss.data.dtype).reshape(loss.shape)}  # node -> its gradient so far
    leaf_grads: dict[Tensor, Tensor | OuterGrad] = {}
    for node in reversed(Tape.trace(loss).nodes):
        g = acc.pop(node, None)
        if g is None:
            continue
        parents = node._parents
        if not parents:
            if node.requires_grad:
                leaf_grads[node] = g if isinstance(g, OuterGrad) else Tensor(g)
            continue
        g = _dense(g)
        if node._grad_in is not None:
            g = node._grad_in(g)
        for parent, fn in zip(parents, node._grad_fns):
            if parent.requires_grad:
                contrib = fn(g)
                prev = acc.get(parent)
                acc[parent] = contrib if prev is None else _dense(prev) + _dense(contrib)
    if params is not None:
        for p in params:
            if p not in leaf_grads:
                leaf_grads[p] = Tensor(np.zeros_like(p.data))
    return leaf_grads
