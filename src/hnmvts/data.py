"""Series ingestion, splitting, windowing, correlation, synthetic generation.

Storage is time-major: a SeriesTable holds a (t x N) value matrix. Windows
handed to models are channel-major (N x T lookback, N x H target), matching
the per-channel final-layer math.
"""

from __future__ import annotations

import copy
import csv
import io
import itertools
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
    values[:, o+T:o+T+H] with o = origins[i]. The two span views over the
    segment, lookbacks (t - T + 1, N, T) and targets (t - T - H + 1, N, H),
    each indexed by origin, are built once here. Slicing or indexing with
    an index array selects a subset that shares the segment and both
    views, so `batch` is two gathers and builds nothing per call.
    """

    __slots__ = ("values", "origins", "lookback", "horizon", "_lookbacks", "_targets")

    def __init__(self, values: np.ndarray, origins: np.ndarray, lookback: int, horizon: int):
        self.values = values
        self.origins = origins
        self.lookback = lookback
        self.horizon = horizon
        self._lookbacks = _spans(values, lookback)
        self._targets = _spans(values, horizon)[lookback:]

    def __len__(self) -> int:
        return len(self.origins)

    def __getitem__(self, key) -> "WindowSet":
        origins = self.origins[key]
        if origins.ndim != 1:
            raise TypeError("index a WindowSet with a slice or a 1-d index array")
        subset = copy.copy(self)
        subset.origins = origins
        return subset

    def batch(self, idx) -> tuple[np.ndarray, np.ndarray]:
        """Lookbacks (B, N, T) and targets (B, N, H) of the windows at `idx`.

        `idx` is a slice or an index array into this set; indexing the span
        views with the origins array copies into fresh C-contiguous arrays,
        the same values a view built per call gives.
        """
        start = self.origins[idx]
        return self._lookbacks[start], self._targets[start]


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
    """Read a header-first, UTF-8 CSV into a SeriesTable.

    The header names the columns and must name each channel once. Every
    later record must have exactly as many cells, so a blank or
    whitespace-only line is an error. A cell may be quoted and is stripped
    of surrounding whitespace; each value cell must then be a finite number
    as Python's `float` reads it. Blank, non-numeric, nan, inf and
    overflowing cells are rejected with their row/column location (1-based,
    header = row 1). If `timestamp_column` is given, that column is dropped
    from the values; its cells must be all numbers or all strings (compared
    as text, so ISO datetimes sort correctly), strictly increasing.
    """
    path = Path(path)
    if not path.exists():
        raise LoadError(f"no such file: {path}")
    try:
        with path.open("rb") as fh:
            parsed = _parse_plain(fh, timestamp_column)
            if parsed is None:
                fh.seek(0)
                text = fh.read().decode("utf-8")
    except OSError as err:
        raise LoadError(f"{path}: cannot read: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise LoadError(f"{path}: not UTF-8 text at byte {err.start}") from None
    names, values = parsed if parsed is not None else _parse_records(path, text, timestamp_column)
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise LoadError(f"{path}: duplicate channel name '{name}'")
        seen.add(name)
    return SeriesTable(Tensor(values), names)


def _records(path: Path, text: str):
    """(row number, cells) of each CSV record, counting the header as row 1.

    A record the csv module refuses (a field over its size limit, say) is a
    LoadError naming the row.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    for rownum in itertools.count(1):
        try:
            record = next(reader)
        except StopIteration:
            return
        except csv.Error as err:
            raise LoadError(f"{path}: row {rownum}: {err}") from None
        yield rownum, record


def _parse_records(path: Path, text: str, timestamp_column: str | None):
    """(channel names, values) read cell by cell: the definition of a valid file.

    Raises LoadError at the first bad record or cell, in file order.
    """
    records = _records(path, text)
    first = next(records, None)
    if first is None:
        raise LoadError(f"{path}: empty file")
    header = [h.strip() for h in first[1]]
    ts_idx: int | None = None
    if timestamp_column is not None:
        if timestamp_column not in header:
            raise LoadError(f"{path}: timestamp column '{timestamp_column}' not in header")
        ts_idx = header.index(timestamp_column)
    names = [h for i, h in enumerate(header) if i != ts_idx]
    rows: list[list[float]] = []
    prev_ts: str | float | None = None
    for rownum, record in records:
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
    return names, np.asarray(rows)


# bytes a float() spelling can hold once stripped (digits, underscore, sign,
# point, exponent, inf/infinity/nan), plus the zero that pads short stamps
_FLOAT_BYTES = np.zeros(256, dtype=bool)
_FLOAT_BYTES[list(b"\x000123456789_+-.eEinfatyINFATY")] = True
# a timestamp column wider than this is left to the loop, which bounds the
# (rows x width) byte matrix built to compare stamps
_MAX_STAMP_WIDTH = 64
# data lines are checked and parsed in blocks of about this many bytes, which
# bounds the loader's working memory beside the table it returns
_BLOCK_BYTES = 1 << 18


def _parse_plain(fh, timestamp_column: str | None):
    """`_parse_records`'s result for a plainly written file, or None.

    `fh` is the file opened in binary mode. Plain: a header line that is
    not blank, no quote or lone carriage return, and data lines of
    printable ASCII. There a record is a line, and numpy's C reader parses
    a value cell only if `float` does, to the same double (it refuses the
    underscores `float` allows). So `np.loadtxt` plus vectorised checks
    (cells per line, row count, finite values, stamps all numeric or all
    text and strictly increasing) accept only files the loop accepts, with
    the same result. Anything else returns None and is left to the loop,
    which then raises its located error.
    """
    line = fh.readline()
    head = line[:-2] if line.endswith(b"\r\n") else line[:-1]
    # the csv module of Python 3.10 refuses NUL, and every version refuses a
    # field over its size limit
    limit = csv.field_size_limit()
    if not head or len(head) > limit or any(c in head for c in (b'"', b"\r", b"\x00")):
        return None
    # a header that is not UTF-8 holds the file's first bad byte: load_csv
    # reports it as the whole-file decode would
    header = [h.strip() for h in head.decode("utf-8").split(",")]
    ts_idx: int | None = None
    if timestamp_column is not None:
        if timestamp_column not in header:
            return None
        ts_idx = header.index(timestamp_column)
    names = [h for i, h in enumerate(header) if i != ts_idx]
    values, stamps = [], []
    while lines := fh.readlines(_BLOCK_BYTES):
        block = _plain_block(b"".join(lines), len(header), ts_idx, limit)
        if block is None:
            return None
        values.append(block[0])
        stamps.append(block[1])
    if sum(len(v) for v in values) < 2:
        return None
    if ts_idx is not None:
        if len({s.dtype.kind for s in stamps}) != 1:  # text in one block, numbers in another
            return None
        keys = np.concatenate(stamps)
        if not (keys[1:] > keys[:-1]).all():
            return None
    return names, np.concatenate(values)


def _plain_block(block: bytes, n_cols: int, ts_idx: int | None, limit: int):
    """(values, stamps) of whole data lines, checked as `_parse_plain` says, or None.

    Stamps are bytes if every stamp is text, else floats; None without a
    timestamp column.
    """
    # a CRLF line reads as its LF form; a lone CR fails the control-byte check
    block = block.replace(b"\r\n", b"\n")
    if b'"' in block:
        return None
    data = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(data == 10)
    if np.count_nonzero(data < 32) != len(ends):  # a control byte
        return None
    if not block.endswith(b"\n"):
        ends = np.append(ends, len(data))
    n = len(ends)
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends - starts
    # the reader skips blank lines, and warns on a block of nothing else
    if lengths.min() == 0 or lengths.max() > limit:
        return None
    # every line holds exactly n_cols - 1 commas: with that many in all,
    # line r must hold the r-th run of them
    commas = np.flatnonzero(data == 44)
    if len(commas) != n * (n_cols - 1):
        return None
    bounds = np.column_stack([starts - 1, commas.reshape(n, n_cols - 1), ends])
    if (np.diff(bounds, axis=1) <= 0).any():
        return None
    text_stamps = False
    if ts_idx is not None:
        stamps = _field_bytes(data, bounds[:, ts_idx] + 1, bounds[:, ts_idx + 1])
        if stamps is None:
            return None
        # a sign can only lead a float or follow its exponent
        signs = np.isin(stamps[:, 1:], tuple(b"+-"))
        exponents = np.isin(stamps[:, :-1], tuple(b"eE"))
        not_float = (~_FLOAT_BYTES[stamps]).any(axis=1) | (signs & ~exponents).any(axis=1)
        # all text, or else all must parse as numbers below
        text_stamps = bool(not_float.all())
    usecols = [i for i in range(n_cols) if not (text_stamps and i == ts_idx)]
    try:  # a non-ASCII byte fails the decode, a malformed cell the reader
        table = np.loadtxt(
            io.StringIO(block.decode("ascii")), dtype=np.float64, delimiter=",",
            comments=None, usecols=usecols, ndmin=2,
        )
    except ValueError:
        return None
    if len(table) != n:  # a line the reader dropped
        return None
    if ts_idx is None:
        values, keys = table, None
    elif text_stamps:
        values, keys = table, stamps.view(f"S{stamps.shape[1]}").ravel()
    else:
        values, keys = np.delete(table, ts_idx, axis=1), table[:, ts_idx]
    if not np.isfinite(values).all():
        return None
    return values, keys


def _field_bytes(data: np.ndarray, left: np.ndarray, right: np.ndarray):
    """Row i = data[left[i]:right[i]], zero-padded to the widest field; None if
    a field is empty, blank-edged or wider than `_MAX_STAMP_WIDTH`."""
    widths = right - left
    if widths.min() == 0 or widths.max() > _MAX_STAMP_WIDTH:
        return None
    cols = np.arange(widths.max())
    inside = cols < widths[:, None]
    out = np.where(inside, data[np.minimum(left[:, None] + cols, len(data) - 1)], np.uint8(0))
    if (out[:, 0] == 32).any() or (out[np.arange(len(out)), widths - 1] == 32).any():
        return None
    return out


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


def pearson_corr(table: SeriesTable) -> np.ndarray:
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
    return corr


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
