"""Base forecasting models: per-channel hidden states plus a final linear map.

Every backbone turns a lookback window (..., N, T), a plain array, into one
hidden state per channel and per output slot: `prepare(x)` computes on plain
arrays what the forward reads of it (data a trainer may keep; `reads` names
it), and `forward_hidden` turns that list into the hidden states. `apply_final`
then maps each channel's hidden state to the horizon with that slot's
bias-free (N, H, D) weights, one (H x D) matrix per channel, summed over slots
by one `channel_dot`. A backbone is described by its `config()`; the arrays it
owns (`shapes()` names them and gives their shapes) live in the model's array
store, which it reads by name. Two backbones ship:

* DLinearBackbone - moving-average trend/seasonal decomposition with identity
  hidden maps (D = T) and one final layer per branch; it owns no arrays. Being
  linear, its two final layers `fold` into one, which a baked model applies to
  the input directly.
* MlpBackbone - a trunk of Linear+ReLU layers shared across channels, owning
  `trunk.i.w` (fan_in, width) and `trunk.i.b` (width,). That one stack's names
  and shapes, fan-in draws, forward and backward (`stack_shapes`,
  `draw_fan_in`, `stack_forward`, `stack_backward`) also build, run and
  train the `shared_mlp` weight generator.
"""

from __future__ import annotations

import numpy as np

from .numcore import (DimensionError, Tensor, channel_dot, moving_average, relu_product,
                      relu_product_grad)

__all__ = ["DLinearBackbone", "MlpBackbone", "decompose", "from_config", "apply_final",
           "uniform_fan_in", "draw_fan_in", "stack_shapes", "stack_forward", "stack_backward"]


def uniform_fan_in(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """U(-1/sqrt(fan_in), 1/sqrt(fan_in)) init, the plain-linear-layer default."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def draw_fan_in(rng: np.random.Generator, shapes: dict) -> dict[str, np.ndarray]:
    """Fan-in draws in `shapes` order; a bias shares the fan-in of the weight `*.w` before it."""
    out = {}
    for name, shape in shapes.items():
        if name.endswith(".w"):
            fan_in = shape[0]
        out[name] = uniform_fan_in(rng, shape, fan_in)
    return out


def stack_shapes(prefix: str, fan_in: int, widths) -> dict[str, tuple[int, ...]]:
    """A Linear+ReLU stack's `<prefix>.i.w` (fan_in, width), then `<prefix>.i.b` (width,)."""
    if min(widths, default=1) < 1:
        raise ValueError(f"layer widths must be >= 1, got {tuple(widths)}")
    out = {}
    for i, width in enumerate(widths):
        out[f"{prefix}.{i}.w"], out[f"{prefix}.{i}.b"] = (fan_in, width), (width,)
        fan_in = width
    return out


def stack_forward(h: np.ndarray, arrays: list[np.ndarray], acts: list | None = None) -> np.ndarray:
    """relu(h @ w + b) for each layer by `relu_product`, `arrays` in `stack_shapes`
    order; with `acts`, each layer's output is appended to it, for `stack_backward`."""
    for w, b in zip(arrays[::2], arrays[1::2]):
        h = relu_product(h, w, b)
        if acts is not None:
            acts.append(h)
    return h


def stack_backward(h: np.ndarray, arrays: list[np.ndarray], acts: list[np.ndarray],
                   g: np.ndarray, grad_input: bool = False):
    """`stack_forward`'s backward by `relu_product_grad`, last layer first, for
    the gradient g reaching its output: (h's gradient, None unless
    `grad_input`; the arrays' gradients in `stack_shapes` order)."""
    grads = [None] * len(arrays)
    for i in range(len(acts) - 1, -1, -1):
        g, grads[2 * i], grads[2 * i + 1] = relu_product_grad(
            acts[i - 1] if i else h, arrays[2 * i], acts[i], g, grad_input or i > 0)
    return g, grads


def decompose(x: np.ndarray, kernel: int) -> tuple[np.ndarray, np.ndarray]:
    """Split (..., N, T) into (trend, seasonal) with trend + seasonal == x.

    Trend is the centered moving average (odd kernel, replicate padding);
    seasonal is the residual.
    """
    trend = moving_average(x, kernel)
    return trend, x - trend


class DLinearBackbone:
    """Trend/seasonal decomposition with identity hidden maps (D = T); owns no
    arrays, all capacity lives in the two final layers (one per branch)."""

    kind = "dlinear"

    def __init__(self, lookback: int, kernel: int = 25):
        if not 1 <= kernel <= lookback:
            raise ValueError(f"kernel {kernel} out of range for lookback {lookback}")
        if kernel % 2 == 0:
            raise ValueError(f"decomposition kernel must be odd, got {kernel}")
        self.lookback = lookback
        self.kernel = kernel
        self.reads = f"decompose(kernel={kernel})"

    @property
    def slots(self) -> list[tuple[str, int]]:
        return [("trend", self.lookback), ("seasonal", self.lookback)]

    def prepare(self, x: np.ndarray) -> list[np.ndarray]:
        """The trend and seasonal parts of x (`decompose`)."""
        return list(decompose(x, self.kernel))

    def forward_hidden(self, inputs: list[np.ndarray], acts: list | None = None) -> list:
        """Hidden states in `slots` order, the trend, then the seasonal part:
        `prepare`'s arrays themselves, data that no gradient reaches (`acts`
        stays empty)."""
        return inputs

    def fold(self, trend_w: np.ndarray, seasonal_w: np.ndarray) -> np.ndarray:
        """The one (N, H, T) matrix W_s + (W_t - W_s) A, A the moving average of
        `decompose`: W_t A x + W_s (x - A x) as a single product with x. A is
        built by that moving average itself: applied to the rows of the
        identity it gives A^T."""
        a_t = moving_average(np.eye(self.lookback, dtype=trend_w.dtype), self.kernel)
        return seasonal_w + (trend_w - seasonal_w) @ a_t.T

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return {}

    def parameters(self) -> dict[str, Tensor]:
        return {}

    def config(self) -> dict:
        return {"kind": self.kind, "lookback": self.lookback, "kernel": self.kernel}


class MlpBackbone:
    """Channel-shared trunk of Linear+ReLU layers; D is the last width.

    `weights` maps at least the names in `shapes()` to tensors (a model
    passes its whole array store); without it the trunk is drawn from `rng`.
    """

    kind = "mlp"
    reads = "lookback"

    def __init__(self, lookback: int, hidden_widths: tuple[int, ...] = (128,), *,
                 rng: np.random.Generator | None = None,
                 weights: dict[str, Tensor] | None = None):
        if not hidden_widths:
            raise ValueError("MlpBackbone needs at least one layer width")
        self.lookback = lookback
        self.hidden_widths = tuple(hidden_widths)
        self._shapes = stack_shapes("trunk", lookback, self.hidden_widths)
        if weights is None:
            if rng is None:
                raise ValueError("MlpBackbone needs an rng when weights are not supplied")
            weights = {name: Tensor(a, requires_grad=True)
                       for name, a in draw_fan_in(rng, self._shapes).items()}
        self.weights = weights

    @property
    def hidden_dim(self) -> int:
        return self.hidden_widths[-1]

    @property
    def slots(self) -> list[tuple[str, int]]:
        return [("out", self.hidden_dim)]

    def prepare(self, x: np.ndarray) -> list[np.ndarray]:
        """The lookback itself: the trunk reads nothing precomputable from it."""
        return [x]

    def forward_hidden(self, inputs: list[np.ndarray], acts: list | None = None) -> list:
        """The trunk's output on the lookback, the one hidden state of the `out`
        slot; with `acts`, every layer's output is appended to it (`hidden_grads`)."""
        return [stack_forward(inputs[0], [self.weights[n].data for n in self._shapes], acts)]

    def hidden_grads(self, inputs: list[np.ndarray], acts: list[np.ndarray],
                     g: np.ndarray) -> dict[str, np.ndarray]:
        """The trunk arrays' gradients by name, for the gradient g reaching
        `forward_hidden`'s hidden state on `inputs`, which kept `acts`."""
        arrays = [self.weights[n].data for n in self._shapes]
        return dict(zip(self._shapes, stack_backward(inputs[0], arrays, acts, g)[1]))

    def shapes(self) -> dict[str, tuple[int, ...]]:
        """Names and shapes of the trunk's arrays (see `stack_shapes`)."""
        return dict(self._shapes)

    def parameters(self) -> dict[str, Tensor]:
        return {name: self.weights[name] for name in self.shapes()}

    def config(self) -> dict:
        return {"kind": self.kind, "lookback": self.lookback,
                "hidden_widths": list(self.hidden_widths)}


def from_config(cfg, arrays: dict[str, Tensor]):
    """The backbone a `schema.BackboneConfig` describes, reading its arrays from
    `arrays` by name; nothing is copied or checked here."""
    if cfg.kind == DLinearBackbone.kind:
        return DLinearBackbone(cfg.lookback, cfg.kernel)
    return MlpBackbone(cfg.lookback, cfg.hidden_widths, weights=arrays)


def apply_final(weights: list[np.ndarray], hidden: list[np.ndarray]) -> np.ndarray:
    """Sum over slots of y_hat[..., n] = W[n] @ h[..., n], each slot's (N, H, D)
    weights applied to its (..., N, D) hidden state, by one `channel_dot`."""
    if len(weights) != len(hidden):
        raise DimensionError(f"{len(weights)} final layers for {len(hidden)} hidden states")
    return channel_dot(weights, hidden)
