"""Dense tensor type with reverse-mode differentiation.

Tensors wrap contiguous row-major numpy arrays in the package-wide default
dtype (float64 unless switched to float32). Every differentiable op builds a
graph node holding its parents and local-gradient closures; `backward` traces
the graph into a `Tape` and replays it in reverse topological order.

The op set is deliberately small: exactly the primitives the forecasting
models need (broadcasting arithmetic, the product of two matrices, one fused
Linear+ReLU layer, the per-channel final layer `channel_dot` and weight
generator `channel_gemv`, the square, the mean of every element, reshape).
Data that no gradient reaches stays off the graph: the moving average and
its transpose work on plain arrays.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "DimensionError",
    "Tensor",
    "Tape",
    "backward",
    "no_grad",
    "set_default_dtype",
    "get_default_dtype",
    "add",
    "sub",
    "mul",
    "matmul",
    "linear_relu",
    "channel_dot",
    "channel_gemv",
    "square",
    "tmean",
    "reshape",
    "moving_average",
    "moving_average_adjoint",
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


def _contig(arr: np.ndarray) -> np.ndarray:
    """Row-major view/copy that keeps 0-d arrays 0-d."""
    return arr if arr.flags["C_CONTIGUOUS"] else np.ascontiguousarray(arr)


class Tensor:
    """Dense multi-dimensional float array, optionally on the gradient graph.

    `data` is always a contiguous row-major ndarray of the default dtype.
    Leaves created with requires_grad=True are trainable parameters; op
    outputs inherit participation from their parents.
    """

    __slots__ = ("data", "requires_grad", "_parents", "_grad_fns", "_grad_in")

    def __init__(self, data, requires_grad: bool = False):
        arr = _contig(np.asarray(data, dtype=_DEFAULT_DTYPE))
        self.data = arr
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
        return float(self.data.reshape(-1)[0])

    # operator sugar -------------------------------------------------------
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


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
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._grad_fns = tuple(grad_fns)
        out._grad_in = grad_in
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# primitive ops ------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data
    return _make_node(
        out,
        (a, b),
        (lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(g, b.shape)),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data - b.data
    return _make_node(
        out,
        (a, b),
        (lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(-g, b.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data
    return _make_node(
        out,
        (a, b),
        (
            lambda g: _unbroadcast(g * b.data, a.shape),
            lambda g: _unbroadcast(g * a.data, b.shape),
        ),
    )


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
    """x (*B, n, k) @ m (k, p) as 2-D GEMMs over the flattened rows.

    Each block holds whole (n, k) matrices, about `_ROW_BLOCK` rows. Every
    output element is still one dot product over k, but BLAS picks its
    kernel by the GEMM's size, so for some widths the last bits differ from
    numpy's per-matrix products; for the MLP trunk widths the benchmark and
    tests pin (96, 128, 256) they agree bit for bit. Callers keep products
    with a dimension of 1 on numpy's path: numpy runs those with gemv or a
    loop of its own, not GEMM. With `bias`, each block becomes
    `_bias_relu(block, bias)` while it is still in cache.
    """
    n = x.shape[-2]
    rows = x.reshape(-1, x.shape[-1])
    out = np.empty((rows.shape[0], m.shape[1]), dtype=np.result_type(x, m))
    step = max(1, _ROW_BLOCK // n) * n
    for r in range(0, rows.shape[0], step):
        block = out[r : r + step]
        np.matmul(rows[r : r + step], m, out=block)
        if bias is not None:
            _bias_relu(block, bias)
    return out.reshape(*x.shape[:-1], m.shape[1])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """The product a @ b of two matrices.

    The MLP layers do not come here: `linear_relu` runs their products.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul needs two matrices, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    return _make_node(a.data @ b.data, (a, b), (lambda g: g @ b.data.T, lambda g: a.data.T @ g))


def linear_relu(h: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """One Linear+ReLU layer, relu(h @ w + b), as one graph node.

    h is (*B, n, k), w (k, p) and b (p,). A stack of matrices (h of 3 or
    more dimensions, n, k and p all above 1) runs as `_stacked_rows`' GEMMs,
    each block taking its bias and ReLU while still in cache; any other h
    takes numpy's `h @ w`. Bias and ReLU then equal numpy's
    `np.where(pre > 0, pre, 0.0)` of `pre = product + b` bit for bit.

    The backward masks the incoming gradient once, gm = g * (out > 0)
    (out > 0 exactly where pre > 0, NaN, +-0, +-inf and subnormals
    included). `grad_h` is gm @ w.T, row-blocked like the forward, and
    `grad_b` sums gm over its rows. `grad_w` is one GEMM over all rows,
    rows(h).T @ rows(gm): for a 2-D h that is numpy's h.T @ gm bit for bit;
    for a stack it sums each weight gradient over the R = B*n rows in
    another order than per-matrix products summed over B, within
    2 R eps (|rows(h)|.T @ |rows(gm)|) of them.
    """
    h, w, b = _as_tensor(h), _as_tensor(w), _as_tensor(b)
    if h.ndim < 2 or w.ndim != 2 or b.shape != w.shape[1:]:
        raise DimensionError(
            f"linear_relu needs h (..., n, k), w (k, p) and b (p,), got {h.shape}, {w.shape}, "
            f"{b.shape}"
        )
    if h.shape[-1] != w.shape[0]:
        raise DimensionError(f"linear_relu inner dimensions disagree: {h.shape} @ {w.shape}")
    k, p = w.shape
    stacked = h.ndim > 2 and min(h.shape[-2], k, p) > 1
    if stacked:
        out = _stacked_rows(h.data, w.data, b.data)
    else:
        out = _bias_relu(h.data @ w.data, b.data)

    def grad_h(gm):
        return _stacked_rows(gm, w.data.T) if stacked else gm @ w.data.T

    def grad_w(gm):
        return h.data.reshape(-1, k).T @ gm.reshape(-1, p)

    return _make_node(
        out,
        (h, w, b),
        (grad_h, grad_w, lambda gm: _unbroadcast(gm, b.shape)),
        grad_in=lambda g: g * (out > 0),
    )


def _to_channel_major(arr: np.ndarray) -> np.ndarray:
    """(*B, N, q) -> (N, prod(B), q); channel axis leads, batch flattened.

    One `reshape` to (prod(B), N, q) and one `transpose` for every rank,
    with no axis normalisation. For a contiguous array of rank 3 or more
    this is the view `np.moveaxis(arr, -2, 0).reshape(N, -1, q)` gives,
    stride for stride; at rank 2 only the stride of the length-1 batch axis
    differs. The products taken over it are the same bit for bit (tests
    hold ranks 2 to 4 to the moveaxis form).
    """
    return arr.reshape(-1, *arr.shape[-2:]).transpose(1, 0, 2)


def _from_channel_major(arr: np.ndarray, batch_shape: tuple[int, ...]) -> np.ndarray:
    """(N, prod(B), q) -> (*B, N, q), by one `transpose` and one `reshape`."""
    return arr.transpose(1, 0, 2).reshape(*batch_shape, arr.shape[0], arr.shape[2])


def channel_dot(w: Tensor, v: Tensor) -> Tensor:
    """The per-channel final layer: out[..., n, h] = sum_q w[n, h, q] * v[..., n, q].

    With w of shape (N, H, D) and v of shape (*B, N, D) the result has shape
    (*B, N, H): each channel's (H x D) matrix applied to its hidden states.
    Forward and both gradients run as matmuls batched over the channel axis.
    """
    w, v = _as_tensor(w), _as_tensor(v)
    if w.ndim != 3 or v.ndim < 2:
        raise DimensionError(f"channel_dot needs w (N, H, D) and v (..., N, D), got {w.shape}, "
                             f"{v.shape}")
    if w.shape[0] != v.shape[-2] or w.shape[-1] != v.shape[-1]:
        raise DimensionError(
            f"channel_dot shapes disagree: w {w.shape} vs v {v.shape} "
            "(need matching channel and trailing axes)"
        )
    b_shape = v.shape[:-2]
    vm = _to_channel_major(v.data)       # (N, Bp, D)
    out = _from_channel_major(vm @ w.data.swapaxes(1, 2), b_shape)

    def grad_w(g):
        return _to_channel_major(g).swapaxes(1, 2) @ vm

    def grad_v(g):
        return _from_channel_major(_to_channel_major(g) @ w.data, b_shape)

    return _make_node(out, (w, v), (grad_w, grad_v))


def channel_gemv(z: Tensor, w: Tensor) -> Tensor:
    """Each channel's embedding times its own stack of blocks: out[n] = sum_j z[n, j] * w[n, j].

    With z of shape (N, d) and w of shape (N, d, *S) the result has shape
    (N, *S). It is the per_channel_linear weight generator (w = `w_phi`
    (N, d, H, D)). Each channel's w[n] is read as one contiguous (d, prod(S))
    matrix, so every kernel streams it in rows:

    * forward, z[n] @ w[n], a GEMV per channel; within d eps sum_j |z||w| of
      the exact sum;
    * grad_w, z[n, j] * g[n], d scaled copies of g per channel; each element
      is one product, so it is exact;
    * grad_z, w[n] @ g[n], a GEMV per channel; within prod(S) eps sum |w||g|.
    """
    z, w = _as_tensor(z), _as_tensor(w)
    if z.ndim != 2 or w.ndim < 2 or w.shape[:2] != z.shape:
        raise DimensionError(f"channel_gemv needs z (N, d) and w (N, d, ...), got {z.shape}, "
                             f"{w.shape}")
    n, d = z.shape
    wm = w.data.reshape(n, d, -1)
    out = (z.data[:, None, :] @ wm).reshape(n, *w.shape[2:])

    def grad_z(g):
        return (wm @ g.reshape(n, -1, 1)).reshape(n, d)

    def grad_w(g):
        return (z.data[:, :, None] * g.reshape(n, 1, -1)).reshape(w.shape)

    return _make_node(out, (z, w), (grad_z, grad_w))


def square(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    return _make_node(a.data * a.data, (a,), (lambda g: g * (2.0 * a.data),))


def tmean(a: Tensor) -> Tensor:
    """The mean of every element, a scalar."""
    a = _as_tensor(a)
    return _make_node(a.data.mean(), (a,), (lambda g: np.broadcast_to(g, a.shape) / a.size,))


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    out = a.data.reshape(shape)
    return _make_node(_contig(out), (a,), (lambda g: g.reshape(a.shape),))


# plain-array moving average and its transpose -------------------------------


def moving_average(x: np.ndarray, kernel: int) -> np.ndarray:
    """Centered moving average along the last axis with replicate padding.

    `kernel` must be odd and no longer than the last axis. Runs in O(length)
    in one buffer per call: a +0.0 column, then the replicate-padded rows.
    A cumsum runs in place over the padded part, after which column j
    holds the sum of the first j padded values, and the window sums are one
    subtraction of two column ranges (`_window_means`). The additions are
    those of a cumsum over the padded rows alone, in the same order, and
    window 0 subtracts the +0.0 column, so every trend is bit-identical to
    the concatenate, cumsum and shifted-difference form. (Running the cumsum
    over the zero column too would turn a running sum of -0.0 into +0.0.)
    Its transpose is `moving_average_adjoint`.
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
    return _window_means(buf, kernel, 0, length)


def moving_average_adjoint(g: np.ndarray, kernel: int) -> np.ndarray:
    """g @ A for the (length x length) operator A of `moving_average(., kernel)`:
    a weight matrix times A. O(length) per row of g.

    Takes the window means of g zero-padded by kernel - 1 on each side, in
    one buffer laid out like `moving_average`'s, and folds the means of
    the windows that land on replicate-padding columns into the edges. Only
    the window means the result reads are taken. The additions and their
    order are those of a cumsum over the padded g alone, every window's
    mean and a copy of the middle ones, so the result is bit-identical to
    that form.
    """
    if kernel == 1:
        return g
    length, half = g.shape[-1], (kernel - 1) // 2
    buf = np.zeros((*g.shape[:-1], 1 + length + 2 * (kernel - 1)), dtype=np.result_type(g, 1.0))
    buf[..., kernel : kernel + length] = g
    body = buf[..., 1:]
    np.cumsum(body, axis=-1, out=body)
    dx = _window_means(buf, kernel, half, half + length)
    dx[..., 0] += _window_means(buf, kernel, 0, half).sum(axis=-1)
    dx[..., -1] += _window_means(buf, kernel, half + length, length + kernel - 1).sum(axis=-1)
    return dx


def _window_means(buf: np.ndarray, kernel: int, lo: int, hi: int) -> np.ndarray:
    """Means of windows lo..hi-1 of width `kernel` over the values after buf[..., 0].

    buf[..., 0] is +0.0 and buf[..., j] the running sum of the first j
    values after it, so window i's sum is buf[..., i + kernel] - buf[..., i].
    """
    out = buf[..., kernel + lo : kernel + hi] - buf[..., lo:hi]
    out /= kernel
    return out


# tape and backward ----------------------------------------------------------


class Tape:
    """Topologically ordered record of the ops reachable from a root tensor."""

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "Tape":
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        return cls(order)

    def __len__(self):
        return len(self.nodes)


def backward(loss: Tensor, params: Iterable[Tensor] | None = None) -> dict[Tensor, Tensor]:
    """Reverse-mode gradients of a scalar loss.

    Returns a map from each reached requires_grad leaf to its gradient
    (same shape as the leaf). When `params` is given, every listed parameter
    appears in the map; parameters off the graph get zero gradients.
    """
    if loss.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    tape = Tape.trace(loss)
    acc: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    leaf_grads: dict[Tensor, Tensor] = {}
    for node in reversed(tape.nodes):
        g = acc.pop(id(node), None)
        if g is None:
            continue
        if not node._parents:
            if node.requires_grad:
                leaf_grads[node] = Tensor(g)
            continue
        if node._grad_in is not None:
            g = node._grad_in(g)
        for parent, fn in zip(node._parents, node._grad_fns):
            if not parent.requires_grad:
                continue
            contrib = fn(g)
            pid = id(parent)
            if pid in acc:
                acc[pid] = acc[pid] + contrib
            else:
                acc[pid] = contrib
    if params is not None:
        for p in params:
            if p not in leaf_grads:
                leaf_grads[p] = Tensor(np.zeros_like(p.data))
    return leaf_grads
