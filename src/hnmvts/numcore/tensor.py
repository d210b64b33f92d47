"""Dense tensor type with reverse-mode differentiation.

Tensors wrap contiguous row-major numpy arrays in the package-wide default
dtype (float64 unless switched to float32). Every differentiable op builds a
graph node holding its parents and local-gradient closures; `backward` traces
the graph into a `Tape` and replays it in reverse topological order.

The op set is deliberately small: exactly the primitives the forecasting
models need (broadcasting arithmetic, the product of two matrices, one fused
Linear+ReLU layer, the per-channel final layer over every slot `channel_dot`
and weight generator `channel_gemv`, the mean squared error, reshape).
`channel_gemv`'s weight gradient stays factored (`OuterGrad`) up to the
optimizer, which builds it block by block where it consumes it.
Data that no gradient reaches stays off the graph: the moving average works
on plain arrays, `channel_dot` takes a plain-array operand as data, and no
op records a node under `no_grad` (see `grad_enabled`) or when no operand
needs a gradient. So a forecast taken without a graph runs the same ops, each
forward through its array kernel (`relu_product`, `channel_product`).
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
    "grad_enabled",
    "set_default_dtype",
    "get_default_dtype",
    "add",
    "mul",
    "matmul",
    "linear_relu",
    "relu_product",
    "channel_dot",
    "channel_gemv",
    "channel_product",
    "mse",
    "reshape",
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


def grad_enabled() -> bool:
    """Whether ops record the graph: False inside a `no_grad` block."""
    return _GRAD_ENABLED


class Tensor:
    """Dense multi-dimensional float array, optionally on the gradient graph.

    `data` is always a contiguous row-major ndarray of the default dtype.
    Leaves created with requires_grad=True are trainable parameters; op
    outputs inherit participation from their parents.
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
        return float(self.data.reshape(-1)[0])

    # operator sugar -------------------------------------------------------
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class OuterGrad:
    """A gradient kept as its two factors: grad[n, j, *s] = u[n, j] * v[n, s].

    u is (N, d) and v (N, prod(S)); `shape` is (N, d, *S). `channel_gemv`
    gives its weight this gradient. `data` is the dense array, built on
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


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
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


def relu_product(h: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`linear_relu`'s forward on plain arrays, a new array: relu(h @ w + b) for
    h (*B, n, k), w (k, p) and b (p,), by `_stacked_rows`, equal bit for bit
    to numpy's `np.where(pre > 0, pre, 0.0)` of `pre = h @ w + b`."""
    if h.ndim < 2 or w.ndim != 2 or b.shape != w.shape[1:]:
        raise DimensionError(
            f"linear_relu needs h (..., n, k), w (k, p) and b (p,), got {h.shape}, {w.shape}, "
            f"{b.shape}"
        )
    if h.shape[-1] != w.shape[0]:
        raise DimensionError(f"linear_relu inner dimensions disagree: {h.shape} @ {w.shape}")
    return _stacked_rows(h, w, b)


def linear_relu(h: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """One Linear+ReLU layer, relu(h @ w + b), as one graph node; its forward
    is `relu_product`.

    The backward masks the incoming gradient once, gm = g * (out > 0)
    (out > 0 exactly where pre > 0, NaN, +-0, +-inf and subnormals
    included). `grad_h` is gm @ w.T, run as the forward runs its product,
    and `grad_b` sums gm over its rows. `grad_w` is one GEMM over all rows,
    rows(h).T @ rows(gm): for a 2-D h that is numpy's h.T @ gm bit for bit;
    for a stack it sums each weight gradient over the R = B*n rows in
    another order than per-matrix products summed over B, within
    2 R eps (|rows(h)|.T @ |rows(gm)|) of them.
    """
    h, w, b = _as_tensor(h), _as_tensor(w), _as_tensor(b)
    out = relu_product(h.data, w.data, b.data)
    if not _GRAD_ENABLED:
        return Tensor(out)
    return _make_node(
        out,
        (h, w, b),
        (lambda gm: _stacked_rows(gm, w.data.T),
         lambda gm: h.data.reshape(-1, w.shape[0]).T @ gm.reshape(-1, w.shape[1]),
         lambda gm: _unbroadcast(gm, b.shape)),
        grad_in=lambda g: g * (out > 0),
    )


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


def channel_dot(weights: Sequence[Tensor], hidden: Sequence) -> Tensor:
    """The per-channel final layer over every slot i, as one graph node:
    out[..., n, h] = sum_i sum_q w_i[n, h, q] * v_i[..., n, q].

    w_i (N, H, D_i) holds each channel's (H x D_i) matrix and v_i (*B, N, D_i)
    its hidden states, a Tensor or a plain array (data: it gets no gradient).
    The forward sums the slots' `channel_product`s, of one shape, into the
    first one's buffer; each slot's gradients run as matmuls batched over the
    channel axis. No node is built under `no_grad` or when none is needed.
    """
    vs = [v.data if isinstance(v, Tensor) else v for v in hidden]
    out = channel_product(weights[0].data, vs[0])
    for w, v in zip(weights[1:], vs[1:], strict=True):
        product = channel_product(w.data, v)
        if product.shape != out.shape:  # no broadcast: each slot's gradient keeps its shape
            raise DimensionError(f"channel_dot slots disagree: {out.shape} vs {product.shape}")
        out += product
    if not _GRAD_ENABLED:
        return Tensor(out)
    parents, fns = [], []
    for w, v, vd in zip(weights, hidden, vs):
        if w.requires_grad:
            parents.append(w)
            fns.append(lambda g, vd=vd: _to_channel_major(g).swapaxes(1, 2) @ _to_channel_major(vd))
        if isinstance(v, Tensor) and v.requires_grad:
            parents.append(v)
            fns.append(lambda g, wd=w.data, b=out.shape[:-2]:
                       _from_channel_major(_to_channel_major(g) @ wd, b))
    return _make_node(out, parents, fns)


def channel_product(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One slot of `channel_dot`'s forward: w (N, H, D) applied to v (*B, N, D).

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
    out = np.empty(v.shape[:-1] + w.shape[1:2], dtype=np.result_type(w, v))
    np.matmul(vc, wt, out=_to_channel_major(out))
    return out


def channel_gemv(z: Tensor, w: Tensor) -> Tensor:
    """Each channel's embedding times its own stack of blocks: out[n] = sum_j z[n, j] * w[n, j].

    With z of shape (N, d) and w of shape (N, d, *S) the result has shape
    (N, *S). It is the per_channel_linear weight generator (w = `w_phi`
    (N, d, H, D)). Each channel's w[n] is read as one contiguous (d, prod(S))
    matrix, so every kernel streams it in rows:

    * forward, z[n] @ w[n], a GEMV per channel; within d eps sum_j |z||w| of
      the exact sum;
    * grad_w, z[n, j] * g[n], d scaled copies of g per channel; each element
      is one product, so it is exact. It is returned as its factors, an
      `OuterGrad` of a copy of z and g as (N, prod(S)), so no (N, d, *S)
      array is written unless something reads `.data`. z is copied because
      the optimizer updates z in place before it reaches w;
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
        return OuterGrad(z.data.copy(), g.reshape(n, -1), w.shape)

    return _make_node(out, (z, w), (grad_z, grad_w))


def mse(pred: Tensor, target: np.ndarray) -> Tensor:
    """The mean of (pred - target)^2 over every element, a scalar, as one graph node.

    `target` is data, a plain array of pred's shape; only pred gets a
    gradient. The value is the mean of np.square(pred - target), and
    the gradient (2 (pred - target)) (g / size): the derivative of the square
    times that of the mean, in that order.
    """
    pred = _as_tensor(pred)
    if pred.shape != target.shape:
        raise DimensionError(f"mse needs pred and target of one shape, got {pred.shape} and "
                             f"{target.shape}")
    diff = pred.data - target

    def grad_pred(g):
        out = 2.0 * diff
        out *= g / diff.size
        return out

    # numpy's mean in its own steps, bit for bit, without np.mean's Python overhead
    return _make_node(np.add.reduce(np.square(diff), axis=None) / diff.size, (pred,), (grad_pred,))


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    return _make_node(a.data.reshape(shape), (a,), (lambda g: g.reshape(a.shape),))


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
    tape = Tape.trace(loss)
    acc: dict[Tensor, np.ndarray | OuterGrad] = {loss: np.ones_like(loss.data)}
    leaf_grads: dict[Tensor, Tensor | OuterGrad] = {}
    for node in reversed(tape.nodes):
        g = acc.pop(node, None)
        if g is None:
            continue
        if not node._parents:
            if node.requires_grad:
                leaf_grads[node] = g if isinstance(g, OuterGrad) else Tensor(g)
            continue
        g = _dense(g)
        if node._grad_in is not None:
            g = node._grad_in(g)
        for parent, fn in zip(node._parents, node._grad_fns):
            if not parent.requires_grad:
                continue
            contrib = fn(g)
            prev = acc.get(parent)
            acc[parent] = contrib if prev is None else _dense(prev) + _dense(contrib)
    if params is not None:
        for p in params:
            if p not in leaf_grads:
                leaf_grads[p] = Tensor(np.zeros_like(p.data))
    return leaf_grads
