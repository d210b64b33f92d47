"""Reversible per-window instance normalization.

Each lookback window is standardized per channel with its own mean and
population standard deviation; forecasts are mapped back with the same
statistics. Statistics only, no learnable affine parameters. The lookback
is data, so the statistics and the normalized input are plain arrays; only
`revin_reverse` on a Tensor forecast works on the gradient graph. A map on
plain arrays takes `out` as a ufunc does, the input itself included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import Tensor

__all__ = ["InstanceStats", "EPS", "revin_center", "revin_forward", "revin_reverse",
           "revin_apply"]

EPS = 1e-5


@dataclass
class InstanceStats:
    """Per-channel lookback statistics, kept with a trailing singleton axis
    (shape (..., N, 1)) so they broadcast over time steps directly."""

    mean: np.ndarray
    std: np.ndarray


def _last_mean(x: np.ndarray) -> np.ndarray:
    """x.mean(axis=-1, keepdims=True) by the steps of numpy's own mean, its
    values bit for bit, without np.mean's Python overhead."""
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean /= x.shape[-1]
    return mean


def revin_center(x: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(x - mean, mean) of (..., N, T), the mean per channel over the last axis."""
    mean = _last_mean(x)
    return np.subtract(x, mean, out=out), mean


def revin_forward(x: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, InstanceStats]:
    """Standardize (..., N, T) per channel over the last axis.

    x_norm[n] = (x[n] - mean[n]) / (std[n] + eps), population std.
    Constant channels are safe: std 0 simply leaves the eps denominator.
    """
    centered, mean = revin_center(x, out)
    std = _last_mean(np.square(centered))
    np.sqrt(std, out=std)
    centered /= std + EPS
    return centered, InstanceStats(mean=mean, std=std)


def revin_reverse(y_norm, stats: InstanceStats, out: np.ndarray | None = None):
    """Map a normalized forecast (..., N, H) to the raw scale; a Tensor maps on the graph."""
    if isinstance(y_norm, Tensor):
        return y_norm * (stats.std + EPS) + stats.mean
    out = np.multiply(y_norm, stats.std + EPS, out=out)
    out += stats.mean
    return out


def revin_apply(y: np.ndarray, stats: InstanceStats, out: np.ndarray | None = None) -> np.ndarray:
    """Normalize a raw-scale target with existing lookback statistics."""
    out = np.subtract(y, stats.mean, out=out)
    out /= stats.std + EPS
    return out
