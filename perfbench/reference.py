"""NumPy references the program's outputs are checked against.

Nothing here imports the package: windows are sliced from the raw values the
benchmark generated, and forecasts are recomputed from a model's exported
arrays with plain NumPy.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

EPS = 1e-5


def split_bounds(t: int, ratios) -> tuple[int, int]:
    """Chronological split boundaries at floor(cumulative ratio * t)."""
    total = sum(ratios)
    return int(t * ratios[0] // total), int(t * (ratios[0] + ratios[1]) // total)


def windows(segment: np.ndarray, lookback: int, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Stride-1 channel-major (x, y) views of a (t x N) segment: (W, N, T), (W, N, H)."""
    view = sliding_window_view(segment, lookback + horizon, axis=0)  # (W, N, T+H)
    return view[..., :lookback], view[..., lookback:]


def _revin(x):
    mean = x.mean(axis=-1, keepdims=True)
    std = np.sqrt(((x - mean) ** 2).mean(axis=-1, keepdims=True))
    return (x - mean) / (std + EPS), mean, std


@functools.lru_cache(maxsize=4)
def _band(t: int, kernel: int) -> np.ndarray:
    """Replicate-padded centered moving average as one banded (T x T) matrix."""
    half = (kernel - 1) // 2
    band = np.zeros((t, t))
    rows = np.repeat(np.arange(t), kernel)
    cols = np.clip(rows + np.tile(np.arange(-half, half + 1), t), 0, t - 1)
    np.add.at(band, (rows, cols), 1.0 / kernel)
    return band


def _moving_average(x: np.ndarray, kernel: int) -> np.ndarray:
    """The same replicate-padded centered average by running sums (cheaper, not exact)."""
    half = (kernel - 1) // 2
    padded = np.concatenate(
        [np.repeat(x[..., :1], half, axis=-1), x,
         np.repeat(x[..., -1:], kernel - 1 - half, axis=-1)], axis=-1)
    sums = np.cumsum(padded, axis=-1)
    sums = np.concatenate([np.zeros_like(sums[..., :1]), sums], axis=-1)
    return (sums[..., kernel:] - sums[..., :-kernel]) / kernel


def _final(weights, hidden):
    return np.einsum("nhd,bnd->bnh", weights, hidden, optimize=True)


def forward(forms: dict[str, dict], backbone: dict, x: np.ndarray,
            fast: bool = False) -> dict[str, np.ndarray]:
    """Raw-scale forecasts (B, N, H) of RevIN-wrapped baseline or baked models.

    `forms` maps a name to that model's exported arrays; the forms share
    one backbone config, so DLinear's decomposition is computed once, as a
    banded matrix product, or by running sums if `fast` (the speed probes'
    reference work, which need the program's cost, not an exact check).
    """
    x_norm, mean, std = _revin(x)
    out = {}
    if backbone["kind"] == "dlinear":
        if fast:
            trend = _moving_average(x_norm, backbone["kernel"])
        else:
            trend = x_norm @ _band(x.shape[-1], backbone["kernel"]).T
        seasonal = x_norm - trend
        for name, a in forms.items():
            out[name] = _final(a["final.trend.w"], trend) + _final(a["final.seasonal.w"], seasonal)
    else:
        for name, a in forms.items():
            h = x_norm
            for i in range(len(backbone["hidden_widths"])):
                h = np.maximum(h @ a[f"trunk.{i}.w"] + a[f"trunk.{i}.b"], 0.0)
            out[name] = _final(a["final.out.w"], h)
    return {name: y * (std + EPS) + mean for name, y in out.items()}


def errors(pred: np.ndarray, y: np.ndarray) -> dict[str, float]:
    diff = pred - y
    return {"mse": float(np.mean(diff * diff)), "mae": float(np.mean(np.abs(diff)))}


def window_mean_mse(x: np.ndarray, y: np.ndarray) -> float:
    """MSE of forecasting every horizon step as the lookback mean."""
    return float(np.mean((y - x.mean(axis=-1, keepdims=True)) ** 2))
