"""Base forecasting models: per-channel hidden states plus a final linear map.

Every backbone turns a lookback window (..., N, T) into one hidden state per
channel and per output slot; a FinalLayer then maps each channel's hidden
state to the horizon with a bias-free (H x D) matrix. Two backbones ship:

* DLinearBackbone - moving-average trend/seasonal decomposition with identity
  hidden maps (D = T) and one final layer per branch.
* MlpBackbone - a trunk of Linear+ReLU layers shared across channels.
"""

from __future__ import annotations

import numpy as np

from .numcore import (
    DimensionError,
    Tensor,
    add,
    channel_dot,
    matmul,
    moving_average,
    relu,
    sub,
)

__all__ = [
    "FinalLayer",
    "DLinearBackbone",
    "MlpBackbone",
    "decompose",
    "from_config",
    "apply_final",
    "uniform_fan_in",
]


def uniform_fan_in(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """U(-1/sqrt(fan_in), 1/sqrt(fan_in)) init, the plain-linear-layer default."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class FinalLayer:
    """Bias-free per-channel ("individual") final linear map: y_hat[n] = W[n] @ h[n].

    `weights` is (N, H, D): one (H x D) matrix per channel.
    """

    def __init__(self, weights: Tensor):
        if weights.ndim != 3:
            raise DimensionError(f"final-layer weights must be (N,H,D), got {weights.shape}")
        self.weights = weights

    def apply(self, hidden: Tensor) -> Tensor:
        """Map hidden states (..., N, D) to forecasts (..., N, H)."""
        if hidden.shape[-1] != self.weights.shape[-1] or hidden.shape[-2] != self.weights.shape[0]:
            raise DimensionError(
                f"final layer {self.weights.shape} incompatible with hidden {hidden.shape}"
            )
        return channel_dot(self.weights, hidden)

    @staticmethod
    def init_per_channel(rng: np.random.Generator, n: int, horizon: int, d: int) -> "FinalLayer":
        w = uniform_fan_in(rng, (n, horizon, d), fan_in=d)
        return FinalLayer(Tensor(w, requires_grad=True))


def decompose(x: Tensor, kernel: int) -> tuple[Tensor, Tensor]:
    """Split (..., N, T) into (trend, seasonal) with trend + seasonal == x.

    Trend is the centered moving average (odd kernel, replicate padding);
    seasonal is the residual.
    """
    trend = moving_average(x, kernel)
    seasonal = sub(x, trend)
    return trend, seasonal


class DLinearBackbone:
    """Trend/seasonal decomposition with identity hidden maps (D = T).

    Carries no trainable parameters of its own; all capacity lives in the
    two final layers (one per branch).
    """

    kind = "dlinear"

    def __init__(self, lookback: int, kernel: int = 25):
        if not 1 <= kernel <= lookback:
            raise ValueError(f"kernel {kernel} out of range for lookback {lookback}")
        if kernel % 2 == 0:
            raise ValueError(f"decomposition kernel must be odd, got {kernel}")
        self.lookback = lookback
        self.kernel = kernel

    @property
    def slots(self) -> list[tuple[str, int]]:
        return [("trend", self.lookback), ("seasonal", self.lookback)]

    def forward_hidden(self, x: Tensor) -> list[Tensor]:
        """Hidden states in `slots` order: trend, then seasonal."""
        return list(decompose(x, self.kernel))

    def parameters(self) -> dict[str, Tensor]:
        return {}

    def config(self) -> dict:
        return {"kind": self.kind, "lookback": self.lookback, "kernel": self.kernel}


class MlpBackbone:
    """Channel-shared trunk of Linear+ReLU layers; D is the last width."""

    kind = "mlp"

    def __init__(self, lookback: int, hidden_widths: tuple[int, ...] = (128,), *,
                 rng: np.random.Generator | None = None,
                 weights: list[tuple[Tensor, Tensor]] | None = None):
        if not hidden_widths:
            raise ValueError("MlpBackbone needs at least one layer width")
        self.lookback = lookback
        self.hidden_widths = tuple(int(w) for w in hidden_widths)
        if min(self.hidden_widths) < 1:
            raise ValueError(f"MlpBackbone widths must be >= 1, got {self.hidden_widths}")
        if weights is not None:
            self.layers = weights
        else:
            if rng is None:
                raise ValueError("MlpBackbone needs an rng when weights are not supplied")
            self.layers = []
            fan_in = lookback
            for width in self.hidden_widths:
                w = Tensor(uniform_fan_in(rng, (fan_in, width), fan_in), requires_grad=True)
                b = Tensor(uniform_fan_in(rng, (width,), fan_in), requires_grad=True)
                self.layers.append((w, b))
                fan_in = width

    @property
    def hidden_dim(self) -> int:
        return self.hidden_widths[-1]

    @property
    def slots(self) -> list[tuple[str, int]]:
        return [("out", self.hidden_dim)]

    def forward_hidden(self, x: Tensor) -> list[Tensor]:
        """The trunk's output, the one hidden state of the `out` slot."""
        h = x
        for w, b in self.layers:
            h = relu(add(matmul(h, w), b))
        return [h]

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        for i, (w, b) in enumerate(self.layers):
            out[f"trunk.{i}.w"] = w
            out[f"trunk.{i}.b"] = b
        return out

    def config(self) -> dict:
        return {
            "kind": self.kind,
            "lookback": self.lookback,
            "hidden_widths": list(self.hidden_widths),
        }


def from_config(cfg: dict, arrays: dict[str, np.ndarray]):
    """Rebuild a backbone from its `config()` and arrays named as its `parameters()`.

    The arrays are wrapped, not copied; missing names raise KeyError.
    """
    kind = cfg["kind"]
    if kind == DLinearBackbone.kind:
        return DLinearBackbone(cfg["lookback"], cfg["kernel"])
    if kind == MlpBackbone.kind:
        weights = [
            tuple(Tensor(arrays[f"trunk.{i}.{p}"], requires_grad=True) for p in "wb")
            for i in range(len(cfg["hidden_widths"]))
        ]
        return MlpBackbone(cfg["lookback"], cfg["hidden_widths"], weights=weights)
    raise ValueError(f"unknown backbone kind '{kind}'")


def apply_final(finals: list[FinalLayer], hidden: list[Tensor]) -> Tensor:
    """Sum over slots of each final layer applied to its slot's hidden state."""
    if len(finals) != len(hidden):
        raise DimensionError(f"{len(finals)} final layers for {len(hidden)} hidden states")
    out = finals[0].apply(hidden[0])
    for layer, h in zip(finals[1:], hidden[1:]):
        out = add(out, layer.apply(h))
    return out
