"""Dense tensor type with reverse-mode differentiation.

Tensors wrap contiguous row-major numpy arrays in the package-wide default
dtype (float64 unless switched to float32). Every differentiable op builds a
graph node holding its parents and local-gradient closures; `backward` traces
the graph into a `Tape` and replays it in reverse topological order.

The op set is deliberately small: exactly the primitives the forecasting
models need (broadcasting arithmetic, matmul, per-channel contraction, ReLU,
reductions, shape ops). Data that no gradient reaches stays off the graph:
the moving average and its transpose work on plain arrays.
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
    "channel_dot",
    "relu",
    "square",
    "tsum",
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

    __slots__ = ("data", "requires_grad", "_parents", "_grad_fns")

    def __init__(self, data, requires_grad: bool = False):
        arr = _contig(np.asarray(data, dtype=_DEFAULT_DTYPE))
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fns: tuple[Callable[[np.ndarray], np.ndarray] | None, ...] = ()

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

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make_node(
    out_data: np.ndarray,
    parents: Sequence[Tensor],
    grad_fns: Sequence[Callable[[np.ndarray], np.ndarray] | None],
) -> Tensor:
    out = Tensor(out_data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._grad_fns = tuple(grad_fns)
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


def _stacked_rows(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x (*B, n, k) @ m (k, p) as 2-D GEMMs over the flattened rows.

    Each block holds whole (n, k) matrices, about `_ROW_BLOCK` rows. Every
    output element is still one dot product over k, but BLAS picks its
    kernel by the GEMM's size, so for some widths the last bits differ from
    numpy's per-matrix products; for the MLP trunk widths the benchmark and
    tests pin (96, 128, 256) they agree bit for bit. Callers keep products
    with a dimension of 1 on numpy's path: numpy runs those with gemv or a
    loop of its own, not GEMM.
    """
    n = x.shape[-2]
    rows = x.reshape(-1, x.shape[-1])
    out = np.empty((rows.shape[0], m.shape[1]), dtype=np.result_type(x, m))
    step = max(1, _ROW_BLOCK // n) * n
    for r in range(0, rows.shape[0], step):
        np.matmul(rows[r : r + step], m, out=out[r : r + step])
    return out.reshape(*x.shape[:-1], m.shape[1])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast.

    A stack of matrices times one 2-D matrix, the MLP layer's form, runs as
    row-blocked 2-D GEMMs (`_stacked_rows`) in the forward and in `grad_a`.
    `grad_b` stays a stacked product summed over the leading axes: one GEMM
    over all rows would sum each weight gradient in another order, which
    changes trained weights in the last bits.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    stacked = a.ndim > 2 and b.ndim == 2 and min(a.shape[-2], *b.shape) > 1
    out = _stacked_rows(a.data, b.data) if stacked else a.data @ b.data

    def grad_a(g):
        if stacked:
            return _stacked_rows(g, b.data.T)
        return _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)

    def grad_b(g):
        return _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)

    return _make_node(out, (a, b), (grad_a, grad_b))


def _to_channel_major(arr: np.ndarray, batch_nd: int) -> np.ndarray:
    """(*B, N, q) -> (N, prod(B), q); channel axis leads, batch flattened."""
    if batch_nd == 0:
        return arr.reshape(arr.shape[0], 1, arr.shape[1])
    moved = np.moveaxis(arr, -2, 0)
    n, q = moved.shape[0], moved.shape[-1]
    return moved.reshape(n, -1, q)


def _from_channel_major(arr: np.ndarray, batch_shape: tuple[int, ...], trailing: tuple[int, ...]) -> np.ndarray:
    """(N, prod(B), prod(S)) -> (*B, N, *S)."""
    n = arr.shape[0]
    if not batch_shape:
        return arr.reshape(n, *trailing)
    spread = arr.reshape(n, *batch_shape, -1)
    moved = np.moveaxis(spread, 0, len(batch_shape))
    return moved.reshape(*batch_shape, n, *trailing)


def channel_dot(w: Tensor, v: Tensor) -> Tensor:
    """Per-channel contraction over the trailing axis.

    out[..., n, s] = sum_q w[n, s, q] * v[..., n, q]

    With w of shape (N, *S, q) and v of shape (*B, N, q) the result has shape
    (*B, N, *S). Realizes both the per-channel final layer (w = weights
    (N, H, D), v = hidden states) and the per-channel weight generator
    (w = (N, H, D, d), v = embeddings (N, d)). Forward and both gradients run
    as matmuls batched over the channel axis.
    """
    w, v = _as_tensor(w), _as_tensor(v)
    if w.ndim < 2 or v.ndim < 2:
        raise DimensionError(f"channel_dot needs >=2-d operands, got {w.shape}, {v.shape}")
    if w.shape[0] != v.shape[-2] or w.shape[-1] != v.shape[-1]:
        raise DimensionError(
            f"channel_dot shapes disagree: w {w.shape} vs v {v.shape} "
            "(need matching channel and trailing axes)"
        )
    n, q = w.shape[0], w.shape[-1]
    s_shape = w.shape[1:-1]
    b_shape = v.shape[:-2]
    wm = w.data.reshape(n, -1, q)                      # (N, Sp, q)
    vm = _to_channel_major(v.data, len(b_shape))       # (N, Bp, q)
    out_m = vm @ wm.swapaxes(1, 2)                     # (N, Bp, Sp)
    out = _from_channel_major(out_m, b_shape, s_shape)

    def grad_w(g):
        gm = _to_channel_major(g.reshape(*b_shape, n, -1), len(b_shape))
        return (gm.swapaxes(1, 2) @ vm).reshape(w.shape)

    def grad_v(g):
        gm = _to_channel_major(g.reshape(*b_shape, n, -1), len(b_shape))
        dv = gm @ wm                                   # (N, Bp, q)
        return _from_channel_major(dv, b_shape, (q,))

    return _make_node(out, (w, v), (grad_w, grad_v))


def relu(a: Tensor) -> Tensor:
    """max(a, 0), equal bit for bit to `np.where(a > 0, a, 0.0)`.

    `fmax` maps NaN and -inf to 0 and may keep -0.0; adding +0.0 turns -0.0
    into +0.0 and leaves every other value as it is. It is several times
    faster than `np.where`'s scalar-broadcast path.
    """
    a = _as_tensor(a)
    out = np.fmax(a.data, 0.0)
    out += 0.0
    return _make_node(out, (a,), (lambda g: g * (a.data > 0),))


def square(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    return _make_node(a.data * a.data, (a,), (lambda g: g * (2.0 * a.data),))


def _norm_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(sorted(a % ndim for a in axis))


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _norm_axes(axis, a.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)

    def grad_fn(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return np.broadcast_to(g, a.shape).copy()

    return _make_node(out, (a,), (grad_fn,))


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _norm_axes(axis, a.ndim)
    count = int(np.prod([a.shape[i] for i in axes])) if axes else 1
    out = a.data.mean(axis=axes, keepdims=keepdims)

    def grad_fn(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return np.broadcast_to(g, a.shape) / count

    return _make_node(out, (a,), (grad_fn,))


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    out = a.data.reshape(shape)
    return _make_node(_contig(out), (a,), (lambda g: g.reshape(a.shape),))


# plain-array moving average and its transpose -------------------------------


def _window_sums(arr: np.ndarray, kernel: int) -> np.ndarray:
    """Sliding sums of width `kernel` along the last axis (length - kernel + 1 out)."""
    cs = np.cumsum(arr, axis=-1)
    head = cs[..., kernel - 1 :]
    tail = np.concatenate(
        [np.zeros_like(cs[..., :1]), cs[..., : arr.shape[-1] - kernel]], axis=-1
    )
    return head - tail


def moving_average(x: np.ndarray, kernel: int) -> np.ndarray:
    """Centered moving average along the last axis with replicate padding.

    `kernel` must be odd and no longer than the last axis. Runs in O(length)
    via cumulative sums; its transpose is `moving_average_adjoint`.
    """
    length = x.shape[-1]
    if kernel % 2 == 0:
        raise ValueError(f"moving_average kernel must be odd, got {kernel}")
    if not 1 <= kernel <= length:
        raise ValueError(f"moving_average kernel {kernel} out of range for length {length}")
    if kernel == 1:
        return x.copy()
    half = (kernel - 1) // 2
    padded = np.concatenate(
        [np.repeat(x[..., :1], half, axis=-1), x, np.repeat(x[..., -1:], half, axis=-1)],
        axis=-1,
    )
    return _window_sums(padded, kernel) / kernel


def moving_average_adjoint(g: np.ndarray, kernel: int) -> np.ndarray:
    """g @ A for the (length x length) operator A of `moving_average(., kernel)`:
    a weight matrix times A. O(length) per row of g."""
    if kernel == 1:
        return g
    length, half = g.shape[-1], (kernel - 1) // 2
    # window-sum the zero-padded g, then fold the replicate-padding columns
    # into the edges
    zeros = np.zeros_like(g[..., :1])
    gp = np.concatenate([np.repeat(zeros, kernel - 1, axis=-1), g,
                         np.repeat(zeros, kernel - 1, axis=-1)], axis=-1)
    d_padded = _window_sums(gp, kernel) / kernel     # length + kernel - 1
    dx = d_padded[..., half : half + length].copy()
    dx[..., 0] += d_padded[..., :half].sum(axis=-1)
    dx[..., -1] += d_padded[..., half + length :].sum(axis=-1)
    return dx


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
        for parent, fn in zip(node._parents, node._grad_fns):
            if not parent.requires_grad or fn is None:
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
