"""Mini-batch MSE training with Adam, validation checkpointing, and timing.

One epoch = seeded shuffle, batches of `batch_size` (short final batch
kept), one Adam step per batch. The loss lives in RevIN-normalized space
when the model is RevIN-wrapped, raw space otherwise; validation MSE and all
reported metrics are always raw-scale. The returned model carries the
parameters of the best-validation epoch.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import WindowSet
from .normalization import revin_apply
from .numcore import AdamState, Tensor, adam_step, backward, no_grad, spawn_rng, square, tmean

__all__ = ["TrainConfig", "TrainHistory", "TrainingError", "train", "evaluate"]


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
    shuffle: bool = True
    early_stop_patience: int | None = None

    def __post_init__(self):
        for name in ("lookback", "horizon", "batch_size", "max_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.early_stop_patience is not None and self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be positive when set")


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_mse: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)

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


def _stack_batch(windows: WindowSet, idx) -> tuple[Tensor, np.ndarray]:
    """One batch for train and evaluate: lookbacks as model input, targets raw."""
    x, y = windows.batch(idx)
    return Tensor(x), y


def _batch_loss(model, xb: Tensor, yb: np.ndarray) -> Tensor:
    if model.revin:
        pred_norm, stats = model.forward_normalized(xb)
        target_norm = revin_apply(yb, stats)
        return tmean(square(pred_norm - target_norm))
    return tmean(square(model.forward(xb) - yb))


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
    params = model.parameters()
    state = AdamState(lr=cfg.lr)
    shuffle_rng = spawn_rng(cfg.seed, 7)
    history = TrainHistory()
    best_val, best_epoch = np.inf, -1
    # one snapshot per call, refreshed in place at each improving epoch
    best_snapshot = {name: p.data.copy() for name, p in params.items()}
    n = len(train_windows)
    for epoch in range(cfg.max_epochs):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(n) if cfg.shuffle else np.arange(n)
        total_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, yb = _stack_batch(train_windows, idx)
            loss = _batch_loss(model, xb, yb)
            loss_val = loss.item()
            if not np.isfinite(loss_val):
                raise TrainingError(_diagnostics("loss", loss_val, epoch, start, params))
            grads = backward(loss, list(params.values()))
            named_grads = {name: grads[p] for name, p in params.items()}
            try:
                adam_step(params, named_grads, state)
            except ValueError as err:
                raise TrainingError(
                    _diagnostics(str(err), loss_val, epoch, start, params)
                ) from err
            # free this step's graph and gradients before the next batch's forward
            del loss, grads, named_grads
            total_loss += loss_val * len(idx)
        seconds = time.perf_counter() - t0
        val_mse = evaluate(model, val_windows)["mse"]
        history.train_loss.append(total_loss / n)
        history.val_mse.append(val_mse)
        history.seconds.append(seconds)
        if val_mse < best_val:
            best_val, best_epoch = val_mse, epoch
            for name, p in params.items():
                np.copyto(best_snapshot[name], p.data)
        if (
            cfg.early_stop_patience is not None
            and epoch - history.best_epoch >= cfg.early_stop_patience
        ):
            break
    if best_epoch != epoch:  # after the best epoch itself the parameters are the snapshot
        for name, p in params.items():
            p.data[:] = best_snapshot[name]
    return model, history


def _diagnostics(what: str, loss_val: float, epoch: int, batch_start: int, params) -> str:
    norms = ", ".join(
        f"{name}={np.linalg.norm(p.data):.3e}" for name, p in sorted(params.items())
    )
    return (
        f"non-finite training aborted ({what}): loss={loss_val} at epoch {epoch}, "
        f"batch offset {batch_start}; parameter norms: {norms}"
    )


def evaluate(model, windows: WindowSet, batch_size: int = 256) -> dict[str, float]:
    """Raw-scale MSE and MAE over every window, channel, and horizon step."""
    if not windows:
        raise ValueError("empty evaluation set")
    sse = 0.0
    sae = 0.0
    count = 0
    with no_grad():
        for start in range(0, len(windows), batch_size):
            xb, yb = _stack_batch(windows, slice(start, start + batch_size))
            diff = model.forward(xb).data - yb
            sse += float((diff * diff).sum())
            sae += float(np.abs(diff).sum())
            count += diff.size
    return {"mse": sse / count, "mae": sae / count}
