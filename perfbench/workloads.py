"""Workload definitions and the seeded tables they run on.

A workload fixes a dataset shape (channels, length, split, period), a
backbone, the three model forms and a training budget. Its table is made
from the run's seed alone: correlated AR(1) channels from the package's
`gen_synthetic` plus one seasonal component per channel group, scaled and
shifted per channel. Channel levels, scales and group amplitudes are fixed,
so every seed poses a problem of the same difficulty and only the noise and
the seasonal phases change.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

FORMS = ("baseline", "hn_shared", "hn_pcl")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_channels: int
    timesteps: int
    groups: tuple[int, ...]
    rho: float
    period: int
    ratios: tuple[float, float, float]
    start: str
    step_minutes: int
    backbone: str
    lookback: int
    horizon: int
    batch_size: int
    kernel: int = 25
    mlp_widths: tuple[int, ...] = ()
    embed_dim: int | None = None
    shared_hidden: tuple[int, ...] = ()
    lr: float = 1e-3
    epochs: int = 2
    # per-form overrides of lr, epochs and train_repeats
    form_lr: dict = field(default_factory=dict)
    form_epochs: dict = field(default_factory=dict)
    form_repeats: dict = field(default_factory=dict)
    # train on every `stride`-th window of the train and val splits; the
    # test split is always evaluated whole
    stride: int = 1
    # timed repeats: whole setups, whole training rounds of the three forms,
    # and rounds of (evaluations, one `hnmvts eval`, serving blocks)
    setup_repeats: int = 4
    train_repeats: int = 5
    tail_rounds: int = 3
    eval_repeats: int = 1
    # share of `--seconds` spent serving, over all tail rounds
    serve_share: float = 1.0
    # seconds of each kind's reference work at which figures are stated
    # (`speed.py`): the medians over the reference runs, rounded
    ref_s: dict = field(default_factory=dict)

    @property
    def d(self) -> int:
        return self.n_channels if self.embed_dim is None else self.embed_dim


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ettm2_dlinear",
            why="ETTm2 shape with DLinear: bandwidth-bound Adam over 3.16M "
                "trainables, decomposition in every form, 11k-window test split",
            n_channels=7, timesteps=57_600, groups=(0, 0, 1, 1, 2, 2, 2), rho=0.8,
            period=96, ratios=(6, 2, 2), start="2016-07-01T00:00", step_minutes=15,
            backbone="dlinear", lookback=336, horizon=96, batch_size=64, kernel=25,
            lr=1e-3, epochs=2, stride=80, setup_repeats=3, train_repeats=3,
            # the no-hidden shared generator starts with weights ~10x a plain
            # layer's scale and needs a larger step to converge in budget
            form_lr={"hn_shared": 1e-2}, form_epochs={"hn_shared": 24},
            # a baseline training takes a few tenths of a second
            form_repeats={"baseline": 5},
            ref_s=dict(setup=5.0e-3, train=1.8e-2, eval=8.6e-3, eval_cmd=1.4e-2,
                       serve_single=5.9e-4, serve_batch=6.1e-3),
        ),
        Workload(
            name="weather_mlp",
            why="Weather shape with an MLP trunk: matmul-bound steps, no "
                "decomposition, d < N and a generator with a hidden layer",
            n_channels=21, timesteps=17_568, groups=tuple(i % 4 for i in range(21)),
            rho=0.7, period=144, ratios=(7, 1, 2), start="2020-01-01T00:00",
            step_minutes=10, backbone="mlp", lookback=96, horizon=96, batch_size=64,
            mlp_widths=(256, 128), embed_dim=8, shared_hidden=(64,),
            lr=3e-3, epochs=3, stride=24, setup_repeats=3, train_repeats=2,
            form_repeats={"baseline": 3, "hn_shared": 3},
            ref_s=dict(setup=1.4e-2, train=2.0e-2, eval=1.2e-2, eval_cmd=2.6e-2,
                       serve_single=4.7e-4, serve_batch=1.1e-2),
        ),
        Workload(
            name="ili_dlinear",
            why="ILI shape with DLinear: tiny steps, so per-op dispatch, tape "
                "tracing and per-epoch trainer costs dominate",
            n_channels=7, timesteps=966, groups=(0, 0, 0, 1, 1, 1, 1), rho=0.5,
            period=52, ratios=(7, 1, 2), start="2002-01-01T00:00", step_minutes=7 * 24 * 60,
            backbone="dlinear", lookback=36, horizon=24, batch_size=32, kernel=25,
            lr=1e-3, epochs=20, stride=1, setup_repeats=15, train_repeats=6, tail_rounds=6,
            eval_repeats=20, serve_share=0.5,
            ref_s=dict(setup=4.9e-3, train=1.0e-3, eval=8.3e-4, eval_cmd=5.9e-3,
                       serve_single=2.0e-4, serve_batch=7.5e-4),
        ),
    )
}


def smoke(w: Workload) -> Workload:
    """The same workload at a size that runs in a second or two."""
    small = {
        "dlinear": dict(lookback=24, horizon=8, kernel=5),
        "mlp": dict(lookback=24, horizon=8, mlp_widths=(16, 8)),
    }[w.backbone]
    return replace(
        w, timesteps=min(w.timesteps, 1200), period=24, batch_size=16, epochs=6, form_epochs={},
        form_repeats={}, stride=1, setup_repeats=2, train_repeats=2, tail_rounds=2,
        eval_repeats=1,
        shared_hidden=(8,) if w.shared_hidden else (), **small,
    )


def channel_levels(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed per-channel offsets and scales (the same for every seed)."""
    c = np.arange(n)
    return 10.0 * np.sin(1.3 * c + 0.4), 1.0 + 0.25 * (c % 5)


def make_table(w: Workload, seed: int, gen_synthetic, synth_spec) -> np.ndarray:
    """The (t x N) raw values of this workload's table for `seed`."""
    ar = gen_synthetic(
        synth_spec(w.n_channels, w.timesteps, groups=list(w.groups), rho=w.rho,
                   sigma=0.1, ar_coeff=0.5),
        seed,
    ).values.data
    rng = np.random.default_rng([int(seed), 0x5EA5])
    n_groups = max(w.groups) + 1
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(n_groups, 2))
    amp = 1.0 + 0.5 * np.arange(n_groups)
    t = np.arange(w.timesteps)[:, None] * (2.0 * np.pi / w.period)
    season = amp * (np.sin(t + phase[:, 0]) + 0.5 * np.sin(2.0 * t + phase[:, 1]))
    level, scale = channel_levels(w.n_channels)
    return level + scale * (ar + season[:, list(w.groups)])


def write_csv(w: Workload, values: np.ndarray, path: Path) -> None:
    """Header `date,ch0..`; timestamps are ISO minutes, cells round-trip exactly."""
    stamps = np.datetime64(w.start, "m") + np.arange(len(values)) * np.timedelta64(
        w.step_minutes, "m"
    )
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + [f"ch{c}" for c in range(values.shape[1])])
        for stamp, row in zip(stamps.astype(str), values.tolist()):
            writer.writerow([stamp] + [repr(v) for v in row])
