"""Reversible per-window instance normalization.

Each lookback window is standardized per channel with its own mean and
population standard deviation; forecasts are mapped back with the same
statistics. Statistics only, no learnable affine parameters. The lookback
is data, so the statistics and the normalized input are plain arrays; only
`revin_reverse`, which meets the forecast, works on the gradient graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import Tensor

__all__ = ["InstanceStats", "EPS", "revin_forward", "revin_reverse", "revin_apply"]

EPS = 1e-5


@dataclass
class InstanceStats:
    """Per-channel lookback statistics, kept with a trailing singleton axis
    (shape (..., N, 1)) so they broadcast over time steps directly."""

    mean: np.ndarray
    std: np.ndarray


def revin_forward(x: np.ndarray) -> tuple[np.ndarray, InstanceStats]:
    """Standardize (..., N, T) per channel over the last axis.

    x_norm[n] = (x[n] - mean[n]) / (std[n] + eps), population std.
    Constant channels are safe: std 0 simply leaves the eps denominator.
    """
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    std = np.sqrt((centered * centered).mean(axis=-1, keepdims=True))
    x_norm = centered / (std + EPS)
    return x_norm, InstanceStats(mean=mean, std=std)


def revin_reverse(y_norm: Tensor, stats: InstanceStats) -> Tensor:
    """Map a normalized forecast (..., N, H) back to the original scale."""
    return y_norm * (stats.std + EPS) + stats.mean


def revin_apply(y: np.ndarray, stats: InstanceStats) -> np.ndarray:
    """Normalize a raw-scale target with existing lookback statistics."""
    return (y - stats.mean) / (stats.std + EPS)
