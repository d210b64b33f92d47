"""Series ingestion, splitting, windowing, correlation, synthetic generation.

Storage is time-major: a SeriesTable holds a (t x N) value matrix. Windows
handed to models are channel-major (N x T lookback, N x H target), matching
the per-channel final-layer math.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numcore import Tensor, spawn_rng

__all__ = [
    "LoadError",
    "WindowError",
    "SeriesTable",
    "WindowSet",
    "SplitSpec",
    "SynthSpec",
    "load_csv",
    "chrono_split",
    "make_windows",
    "pearson_corr",
    "gen_synthetic",
]


class LoadError(ValueError):
    """CSV ingestion failure; the message carries the row/column location."""


class WindowError(ValueError):
    """Segment too short for the requested lookback + horizon."""


@dataclass
class SeriesTable:
    """A full multivariate series: (t x N) values plus channel names."""

    values: Tensor
    channel_names: list[str]

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError(f"SeriesTable values must be 2-d, got shape {self.values.shape}")
        if self.values.shape[1] != len(self.channel_names):
            raise ValueError(
                f"{self.values.shape[1]} value columns vs {len(self.channel_names)} channel names"
            )
        if len(set(self.channel_names)) != len(self.channel_names):
            raise ValueError("channel names must be unique")

    @property
    def t(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    def rows(self, start: int, stop: int) -> "SeriesTable":
        return SeriesTable(
            Tensor(self.values.data[start:stop].copy()),
            list(self.channel_names),
        )


class WindowSet:
    """Stride-1 supervised windows over one segment, gathered in batches.

    Holds the segment once, channel-major (N x t), plus the origin index of
    each window; window i has lookback values[:, o:o+T] and target
    values[:, o+T:o+T+H] with o = origins[i]. Slicing or indexing with an
    index array selects a subset and shares the segment.
    """

    __slots__ = ("values", "origins", "lookback", "horizon")

    def __init__(self, values: np.ndarray, origins: np.ndarray, lookback: int, horizon: int):
        self.values = values
        self.origins = origins
        self.lookback = lookback
        self.horizon = horizon

    def __len__(self) -> int:
        return len(self.origins)

    def __getitem__(self, key) -> "WindowSet":
        origins = self.origins[key]
        if origins.ndim != 1:
            raise TypeError("index a WindowSet with a slice or a 1-d index array")
        return WindowSet(self.values, origins, self.lookback, self.horizon)

    def batch(self, idx) -> tuple[np.ndarray, np.ndarray]:
        """Lookbacks (B, N, T) and targets (B, N, H) of the windows at `idx`.

        `idx` is a slice or an index array into this set; indexing the span
        views with an array copies into fresh C-contiguous arrays.
        """
        start = self.origins[idx]
        x = _spans(self.values, self.lookback)[start]
        y = _spans(self.values, self.horizon)[start + self.lookback]
        return x, y


def _spans(values: np.ndarray, width: int) -> np.ndarray:
    """View (t - width + 1, N, width): every length-`width` span of an (N, t) series."""
    return sliding_window_view(values, width, axis=1).transpose(1, 0, 2)


@dataclass
class SplitSpec:
    """Chronological split ratios (normalized to sum 1) and optional truncation."""

    ratios: tuple[float, float, float] = (0.7, 0.2, 0.1)
    truncate_to: int | None = None

    def __post_init__(self):
        r = tuple(float(x) for x in self.ratios)
        if len(r) != 3 or any(x < 0 for x in r):
            raise ValueError(f"ratios must be three nonnegative numbers, got {self.ratios}")
        total = sum(r)
        if total <= 0:
            raise ValueError("ratios must not all be zero")
        self.ratios = tuple(x / total for x in r)
        if self.truncate_to is not None and self.truncate_to < 1:
            raise ValueError(f"truncate_to must be positive, got {self.truncate_to}")


def load_csv(path: str | Path, timestamp_column: str | None = None) -> SeriesTable:
    """Read a header-first CSV into a SeriesTable.

    If `timestamp_column` is given, that column is validated as strictly
    increasing and dropped from the values. Every other cell must be a
    finite number; blanks and non-numeric cells are rejected with their
    row/column location (1-based, header = row 1).
    """
    path = Path(path)
    if not path.exists():
        raise LoadError(f"no such file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise LoadError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        ts_idx: int | None = None
        if timestamp_column is not None:
            if timestamp_column not in header:
                raise LoadError(f"{path}: timestamp column '{timestamp_column}' not in header")
            ts_idx = header.index(timestamp_column)
        names = [h for i, h in enumerate(header) if i != ts_idx]
        rows: list[list[float]] = []
        prev_ts: str | float | None = None
        for rownum, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise LoadError(f"{path}: row {rownum} has {len(record)} cells, expected {len(header)}")
            vals = []
            for colnum, cell in enumerate(record):
                cell = cell.strip()
                if colnum == ts_idx:
                    ts = _parse_timestamp(cell)
                    if prev_ts is not None:
                        try:
                            increasing = ts > prev_ts
                        except TypeError:
                            raise LoadError(
                                f"{path}: mixed timestamp types at row {rownum}"
                            ) from None
                        if not increasing:
                            raise LoadError(
                                f"{path}: non-monotone timestamp at row {rownum}, "
                                f"column '{header[colnum]}'"
                            )
                    prev_ts = ts
                    continue
                if cell == "":
                    raise LoadError(
                        f"{path}: missing value at row {rownum}, column '{header[colnum]}'"
                    )
                try:
                    v = float(cell)
                except ValueError:
                    raise LoadError(
                        f"{path}: non-numeric cell '{cell}' at row {rownum}, "
                        f"column '{header[colnum]}'"
                    ) from None
                if not np.isfinite(v):
                    raise LoadError(
                        f"{path}: non-finite value at row {rownum}, column '{header[colnum]}'"
                    )
                vals.append(v)
            rows.append(vals)
    if len(rows) < 2:
        raise LoadError(f"{path}: need at least 2 data rows, got {len(rows)}")
    return SeriesTable(Tensor(np.asarray(rows)), names)


def _parse_timestamp(cell: str):
    """Numeric if possible, else the raw string (ISO datetimes sort correctly)."""
    try:
        return float(cell)
    except ValueError:
        return cell


def chrono_split(
    table: SeriesTable, spec: SplitSpec
) -> tuple[SeriesTable, SeriesTable, SeriesTable]:
    """Contiguous train/val/test segments at floor(cumulative ratio * t)."""
    t = table.t
    if spec.truncate_to is not None:
        t = min(t, spec.truncate_to)
    r1, r2, _ = spec.ratios
    # epsilon shields floor() from float error in the cumulative ratios,
    # e.g. 0.7 + 0.2 == 0.8999999999999999
    b1 = int(np.floor(r1 * t + 1e-9))
    b2 = int(np.floor((r1 + r2) * t + 1e-9))
    return table.rows(0, b1), table.rows(b1, b2), table.rows(b2, t)


def make_windows(table: SeriesTable, lookback: int, horizon: int) -> WindowSet:
    """All stride-1 (lookback, horizon) windows, ordered by origin index.

    There are t - (lookback + horizon) + 1 of them; shorter tables raise
    WindowError naming the required length.
    """
    if lookback < 1 or horizon < 1:
        raise ValueError(f"lookback and horizon must be positive, got {lookback}, {horizon}")
    t = table.t
    needed = lookback + horizon
    if t < needed:
        raise WindowError(
            f"segment has {t} timesteps but lookback+horizon requires at least {needed}"
        )
    values = np.ascontiguousarray(table.values.data.T)
    return WindowSet(values, np.arange(t - needed + 1), lookback, horizon)


def pearson_corr(table: SeriesTable) -> Tensor:
    """Channel-by-channel Pearson correlation matrix (N x N).

    Zero-variance channels get zero correlation with everything (unit
    diagonal) and a warning rather than an error.
    """
    x = table.values.data
    t = x.shape[0]
    centered = x - x.mean(axis=0, keepdims=True)
    std = np.sqrt((centered * centered).mean(axis=0))
    degenerate = std < 1e-300
    if degenerate.any():
        bad = [table.channel_names[i] for i in np.nonzero(degenerate)[0]]
        warnings.warn(f"zero-variance channels {bad}: correlations set to 0", stacklevel=2)
    safe_std = np.where(degenerate, 1.0, std)
    standardized = centered / safe_std
    corr = (standardized.T @ standardized) / t
    corr[degenerate, :] = 0.0
    corr[:, degenerate] = 0.0
    corr = np.clip(corr, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return Tensor(corr)


@dataclass
class SynthSpec:
    """Grouped correlated-channel generator settings.

    Channels with the same entry in `groups` share a latent AR(1) signal;
    `rho` is the target within-group correlation and `sigma` adds white
    measurement noise on top (diluting the correlation toward
    rho / (1 + sigma^2), so keep it small when rho matters).
    """

    n_channels: int
    timesteps: int
    groups: Sequence[int] = field(default_factory=list)
    rho: float = 0.9
    sigma: float = 0.0
    ar_coeff: float = 0.9

    def __post_init__(self):
        if not self.groups:
            self.groups = [0] * self.n_channels
        if len(self.groups) != self.n_channels:
            raise ValueError(
                f"group assignment has {len(self.groups)} entries for {self.n_channels} channels"
            )
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {self.rho}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        if self.timesteps < 2:
            raise ValueError("timesteps must be >= 2")


def gen_synthetic(spec: SynthSpec, seed: int) -> SeriesTable:
    """Deterministic grouped series: x_c = sqrt(rho)*latent_g + sqrt(1-rho)*noise_c (+ sigma*white).

    Latents are unit-variance stationary AR(1) processes, one per group, so
    same-group channels have population correlation `rho` (before sigma).
    """
    rng = spawn_rng(seed, 101)
    t, n = spec.timesteps, spec.n_channels
    group_ids = sorted(set(spec.groups))
    latents = {g: _ar1(rng, t, spec.ar_coeff) for g in group_ids}
    a = np.sqrt(spec.rho)
    b = np.sqrt(1.0 - spec.rho)
    values = np.empty((t, n))
    for c in range(n):
        own = rng.standard_normal(t)
        values[:, c] = a * latents[spec.groups[c]] + b * own
    if spec.sigma > 0:
        values += spec.sigma * rng.standard_normal((t, n))
    names = [f"ch{c}_g{spec.groups[c]}" for c in range(n)]
    return SeriesTable(Tensor(values), names)


def _ar1(rng: np.random.Generator, t: int, phi: float) -> np.ndarray:
    """Stationary unit-variance AR(1) path."""
    innov_scale = np.sqrt(1.0 - phi * phi)
    x = np.empty(t)
    x[0] = rng.standard_normal()
    eps = rng.standard_normal(t - 1)
    for i in range(1, t):
        x[i] = phi * x[i - 1] + innov_scale * eps[i - 1]
    return x
