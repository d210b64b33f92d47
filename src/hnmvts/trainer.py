"""Mini-batch MSE training with Adam, validation checkpointing, and timing.

One epoch = seeded shuffle, batches of `batch_size` (short final batch
kept), one Adam step per batch. The loss lives in RevIN-normalized space
when the model is RevIN-wrapped, raw space otherwise; validation MSE and all
reported metrics are always raw-scale. The returned model carries the
parameters of the best-validation epoch.

RevIN has no affine pair, so what it and the model's `prepare` compute from
a window is data, the same in every epoch. `train` therefore prepares its
training and its validation set once per call (`PreparedSet`), in one of two
tiers. Under RevIN a set always holds each window's mean and std. It also
holds what the model's forward reads (`prepare`'s arrays: DLinear's trend
and seasonal parts, or the lookback) and, for the training set, the target
the loss compares with, if together they fit in CACHE_BYTES (64 MiB); a
step then only gathers rows and takes the loss node (`ForecastModel.loss`:
the forward and `mse`, with the whole step's backward written out). A set
beyond that rebuilds them per batch. Either way every result is
bit-identical to the per-batch form, and the one-time preparation counts in
the first epoch's seconds.
"""

from __future__ import annotations

import csv
import math
import numbers
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data import WindowSet
from .normalization import EPS, InstanceStats, revin_apply, revin_forward, revin_reverse
from .numcore import AdamState, Tensor, adam_step, backward, spawn_rng

__all__ = ["TrainConfig", "TrainHistory", "TrainingError", "PreparedSet", "train", "evaluate"]


class TrainingError(RuntimeError):
    """Aborted run (non-finite loss/gradient) with location diagnostics."""


@dataclass
class TrainConfig:
    lookback: int = 336
    horizon: int = 96
    batch_size: int = 64
    lr: float = 1e-4
    max_epochs: int = 20
    seed: int = 0
    early_stop_patience: int | None = None

    def __post_init__(self):
        for name in ("lookback", "horizon", "batch_size", "max_epochs", "seed",
                     "early_stop_patience"):
            value = getattr(self, name)
            if not (_is_int(value) or (value is None and name == "early_stop_patience")):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("lookback", "horizon", "batch_size", "max_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if isinstance(self.lr, bool) or not isinstance(self.lr, numbers.Real):
            raise ValueError(f"lr must be a real number, got {self.lr!r}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and greater than 0, got {self.lr}")
        if self.early_stop_patience is not None and self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be positive when set")


def _is_int(value) -> bool:
    """A Python int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_mse: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    # {"train": count, "val": count} of `PreparedSet.degenerate` windows
    degenerate_windows: dict[str, int] = field(default_factory=dict)

    @property
    def best_epoch(self) -> int:
        """Index of the lowest validation MSE (first occurrence on ties)."""
        if not self.val_mse:
            raise ValueError("empty history")
        return int(np.argmin(self.val_mse))

    @property
    def n_epochs(self) -> int:
        return len(self.val_mse)

    def to_csv(self, path: str | Path) -> None:
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "val_mse", "seconds"])
            for i in range(self.n_epochs):
                writer.writerow(
                    [i, repr(self.train_loss[i]), repr(self.val_mse[i]), repr(self.seconds[i])]
                )


# A set's inputs and targets are cached when together they take at most this
# many bytes. Every set the benchmark trains on fits (the ETTm2-shaped
# training subset's trend, seasonal part and targets take 18.4 MB, the
# ILI-shaped one's 3.3 MB); a whole ETTm2 training split (34 129 windows of
# 7 x 336 float64, 642 MB per array) does not, and its steps rebuild them.
CACHE_BYTES = 64 * 2**20
# windows per chunk while a set is prepared, evaluate's batch size
_CHUNK = 256


class PreparedSet:
    """A window set with the input work a model's steps would repeat each epoch, done once.

    `revin` and `reads` record the model it was made for, and `prepare` is
    that model's. Per window it holds, from the ops a step runs, on chunks
    of windows:

    * under RevIN, the lookback's `mean` and `std`, (n, N, 1) each;
    * `inputs`, what the model's `prepare` makes of the model input (the
      normalised lookback under RevIN, the raw one otherwise): DLinear's
      trend and seasonal parts, or the lookback itself;
    * made `for_loss` under RevIN, the normalised `target`, (n, N, H).

    Each op works per window, so every value equals the one computed per
    batch bit for bit. `inputs` and `target` are kept only when together
    they take at most CACHE_BYTES; otherwise both are None and a step
    rebuilds them per batch from the raw windows and the statistics.

    `evaluate` refuses a set made for a model with another `revin` or
    `reads` (a baked DLinear reads the lookback where an unfolded one reads
    the trend and seasonal parts), or made `for_loss`, as it scores raw
    targets: a validation set holds no normalised targets.
    """

    def __init__(self, model, windows: WindowSet, for_loss: bool = False):
        self.windows = windows
        self.revin = bool(model.revin)
        self.reads = model.reads
        self.prepare = model.prepare
        self.for_loss = for_loss
        values = windows.values
        n, channels = len(windows), values.shape[0]
        holds_target = for_loss and self.revin
        # what `prepare` makes of one window, read off the arrays it makes of none
        empty = self.prepare(np.empty((0, channels, windows.lookback), values.dtype))
        per_window = sum(a.itemsize * math.prod(a.shape[1:]) for a in empty)
        per_window += holds_target * channels * windows.horizon * values.itemsize
        self.mean = self.std = self.inputs = self.target = None
        if self.revin:
            self.mean = np.empty((n, channels, 1), values.dtype)
            self.std = np.empty_like(self.mean)
        if n * per_window <= CACHE_BYTES:
            self.inputs = [np.empty((n,) + a.shape[1:], a.dtype) for a in empty]
            if holds_target:
                self.target = np.empty((n, channels, windows.horizon), values.dtype)
        if self.mean is None and self.inputs is None:
            return
        for start in range(0, n, _CHUNK):
            rows = slice(start, start + _CHUNK)
            x, y = windows.batch(rows)
            if self.revin:
                x, stats = revin_forward(x)
                self.mean[rows], self.std[rows] = stats.mean, stats.std
                if self.target is not None:
                    self.target[rows] = revin_apply(y, stats)
            if self.inputs is not None:
                for held, a in zip(self.inputs, self.prepare(x)):
                    held[rows] = a

    def __len__(self) -> int:
        return len(self.windows)

    @property
    def degenerate(self) -> int:
        """Windows with a lookback channel whose RevIN std is at most EPS, so that
        RevIN scales its target by up to 1/EPS; 0 for a model without RevIN."""
        if self.std is None:
            return 0
        return int(np.count_nonzero((self.std <= EPS).any(axis=(1, 2))))


class _Batch(NamedTuple):
    inputs: list[np.ndarray]  # what the model's `forward_prepared` reads
    y: np.ndarray  # targets: raw when stats is given, else in the model's scale
    stats: InstanceStats | None  # the lookbacks' RevIN statistics


def _stack_batch(prepared: PreparedSet, idx) -> _Batch:
    """One batch for the steps and the validation pass: rows gathered from a
    prepared set, or, when it holds no inputs, rebuilt from `WindowSet.batch`
    with `revin_apply` and the model's `prepare`. `revin_apply` normalises a
    gathered batch, a fresh array, in place; read-only views (a slice) keep
    their values and get a new array."""
    stats = None
    if prepared.mean is not None and prepared.target is None:
        stats = InstanceStats(prepared.mean[idx], prepared.std[idx])
    if prepared.inputs is None:
        x, y = prepared.windows.batch(idx)
        if stats is not None:
            x = revin_apply(x, stats, out=x if x.flags.writeable else None)
        return _Batch(prepared.prepare(x), y, stats)
    if isinstance(idx, slice):  # views
        y = prepared.windows.targets(idx) if prepared.target is None else prepared.target[idx]
        return _Batch([a[idx] for a in prepared.inputs], y, stats)
    # `take` copies an index array's rows as indexing does, faster
    y = prepared.windows.targets(idx) if prepared.target is None else prepared.target.take(idx, 0)
    return _Batch([a.take(idx, 0) for a in prepared.inputs], y, stats)


def _batch_loss(model, batch: _Batch) -> Tensor:
    """The batch's loss node (`ForecastModel.loss`), against the target in the model's scale."""
    return model.loss(batch.inputs,
                      batch.y if batch.stats is None else revin_apply(batch.y, batch.stats))


def train(model, train_windows: WindowSet, val_windows: WindowSet,
          cfg: TrainConfig) -> tuple["object", TrainHistory]:
    """Optimize the model, returning it with best-validation parameters.

    Deterministic: (model init, data, cfg) fixes the result bit-exactly.
    Non-finite losses or gradients abort with epoch/batch/parameter-norm
    diagnostics rather than training on garbage.
    """
    if not train_windows:
        raise ValueError("empty training set")
    if not val_windows:
        raise ValueError("empty validation set")
    for windows in (train_windows, val_windows):
        if (windows.lookback, windows.horizon) != (cfg.lookback, cfg.horizon):
            raise ValueError(
                f"windows are ({windows.lookback}, {windows.horizon}) but config wants "
                f"({cfg.lookback}, {cfg.horizon})"
            )
        _check_fits(model, windows)
    params = model.parameters()
    if not params:
        raise ValueError("the model has no trainable arrays")
    param_list = list(params.values())
    state = AdamState(lr=cfg.lr)
    shuffle_rng = spawn_rng(cfg.seed, 7)
    history = TrainHistory()
    # one snapshot per call, filled at epoch 0 (the best so far by definition)
    # and refreshed in place at each improving epoch but the last
    best_snapshot = {name: np.empty_like(p.data) for name, p in params.items()}
    t0 = time.perf_counter()  # the first epoch's seconds include preparing both sets
    train_set = PreparedSet(model, train_windows, for_loss=True)
    val_set = PreparedSet(model, val_windows)
    history.degenerate_windows = {"train": train_set.degenerate, "val": val_set.degenerate}
    n = len(train_set)
    for epoch in range(cfg.max_epochs):
        if epoch:
            t0 = time.perf_counter()
        order = shuffle_rng.permutation(n)
        total_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            # an overflow, invalid value or division by zero in the forward or
            # backward stops the run where it happens; Adam runs outside, as it
            # checks every gradient before it moves any parameter
            try:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    loss = _batch_loss(model, _stack_batch(train_set, idx))
                    loss_val = loss.item()
                    if not math.isfinite(loss_val):
                        raise TrainingError(_diagnostics("loss", epoch, start, params, loss_val))
                    grads = backward(loss, param_list)
            except FloatingPointError as err:
                raise TrainingError(_diagnostics(str(err), epoch, start, params)) from err
            named_grads = {name: grads[p] for name, p in params.items()}
            try:
                adam_step(params, named_grads, state)
            except ValueError as err:
                raise TrainingError(
                    _diagnostics(str(err), epoch, start, params, loss_val)
                ) from err
            # free this step's loss node and gradients before the next batch's forward
            del loss, grads, named_grads
            total_loss += loss_val * len(idx)
        seconds = time.perf_counter() - t0
        # a diverged model fails its validation pass the way it would fail a step
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                val_mse = evaluate(model, val_set)["mse"]
        except FloatingPointError as err:
            raise TrainingError(_diagnostics(str(err), epoch, None, params)) from err
        if not np.isfinite(val_mse):
            raise TrainingError(_diagnostics(f"val_mse={val_mse}", epoch, None, params))
        history.train_loss.append(total_loss / n)
        history.val_mse.append(val_mse)
        history.seconds.append(seconds)
        # nothing changes the parameters after the last epoch, so it needs no copy
        if history.best_epoch == epoch < cfg.max_epochs - 1:
            for name, p in params.items():
                np.copyto(best_snapshot[name], p.data)
        if (
            cfg.early_stop_patience is not None
            and epoch - history.best_epoch >= cfg.early_stop_patience
        ):
            break
    if history.best_epoch != epoch:  # after the best epoch itself the parameters are the snapshot
        for name, p in params.items():
            p.data[:] = best_snapshot[name]
    return model, history


def _check_fits(model, windows) -> None:
    """Refuse windows, or a PreparedSet's, of another shape than the model's."""
    windows = windows.windows if isinstance(windows, PreparedSet) else windows
    have = (windows.lookback, windows.horizon, len(windows.values))
    want = (model.backbone.lookback, model.horizon, len(model.channel_names))
    if have != want:
        raise ValueError(f"the windows have (lookback, horizon, channels) {have}, but the "
                         f"model has {want}")


def _diagnostics(what: str, epoch: int, batch_start: int | None, params,
                 loss_val: float | None = None) -> str:
    """The TrainingError message; `batch_start` None places it in the validation pass."""
    norms = ", ".join(f"{name}={_norm(p.data):.3e}" for name, p in sorted(params.items()))
    loss = "" if loss_val is None else f": loss={loss_val}"
    where = "in validation" if batch_start is None else f"batch offset {batch_start}"
    return (
        f"non-finite training aborted ({what}){loss} at epoch {epoch}, "
        f"{where}; parameter norms: {norms}"
    )


def _norm(a: np.ndarray) -> float:
    """Euclidean norm of a, scaled by max |a| so that finite values cannot overflow."""
    peak = float(np.max(np.abs(a)))
    if peak == 0.0 or not np.isfinite(peak):
        return peak
    return peak * float(np.linalg.norm(a / peak))


def evaluate(model, windows, batch_size: int = 256) -> dict[str, float]:
    """Raw-scale MSE and MAE over every window, channel, and horizon step.

    `windows` is a WindowSet, or a PreparedSet made for this model and not
    for the loss (`train` validates on one), of the model's lookback, horizon
    and channel count; anything else raises a ValueError. Each batch runs
    the model's forward path on plain arrays, `forecast` on `WindowSet.batch`'s
    arrays (views of an evenly spaced set, never written) or `forward_prepared`
    on a prepared batch, and the errors run in the forecast's buffer. The final
    weights are taken once per call, so a hyper model generates them once.
    """
    if not windows:
        raise ValueError("empty evaluation set")
    if not _is_int(batch_size) or batch_size < 1:
        raise ValueError(f"batch_size must be a positive integer, got {batch_size!r}")
    _check_fits(model, windows)
    prepared = isinstance(windows, PreparedSet)
    if prepared:
        made, wanted = (windows.revin, windows.reads), (bool(model.revin), model.reads)
        if made != wanted:
            raise ValueError(f"the PreparedSet was made for revin={made[0]}, reads={made[1]}, "
                             f"but the model has revin={wanted[0]}, reads={wanted[1]}")
        if windows.for_loss:
            raise ValueError("the PreparedSet was made for the loss; evaluate scores raw targets")
    sse = sae = 0.0
    count = 0
    weights = model.final_weights()
    for start in range(0, len(windows), batch_size):
        idx = slice(start, start + batch_size)
        if prepared:
            batch = _stack_batch(windows, idx)
            err, yb = model.forward_prepared(batch.inputs, weights), batch.y
            if batch.stats is not None:
                revin_reverse(err, batch.stats, out=err)
        else:
            xb, yb = windows.batch(idx)
            err = model.forecast(xb, weights)
        err -= yb
        np.abs(err, out=err)
        sae += float(err.sum())
        np.square(err, out=err)
        sse += float(err.sum())
        count += err.size
    return {"mse": sse / count, "mae": sae / count}
