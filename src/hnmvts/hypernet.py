"""Channel embeddings, weight generators, and the model in its three forms.

A model is its config (a `schema.ModelConfig`) plus one store of named
arrays. The config alone decides every array's name and shape
(`_array_shapes`); the store is checked against it once, when the model is
built, and a missing, foreign or mis-shaped array raises a `StoreError`
naming it. The names:

* `trunk.i.w`, `trunk.i.b` - the backbone's own arrays (MLP trunk only);
* `final.<slot>.w` (N, H, D) - a baseline or baked model's final layers;
* `embed.z` (N, d) - a hyper model's channel embeddings;
* `head.<slot>.w_phi`, or `head.<slot>.mlp.i.w` / `.b` - the generator of
  one slot's final layer.

Each channel owns a learnable d-vector; a generator maps it to that
channel's final-layer matrix. Two generator modes:

* per_channel_linear - W[n] = sum_j z[n, j] w_phi[n, j], one d x H x D block
  per channel, stored d-major as `w_phi` (N, d, H, D); `hidden` is [].
* shared_mlp - one small MLP applied to every channel's embedding: the
  `backbones` Linear+ReLU stack of widths `hidden`, then a bias-free output
  layer `head.<slot>.mlp.<len(hidden)>.w`.

Generated weights do not depend on the input window, so `bake` materializes
them once after training and drops the generator, leaving exactly the plain
backbone's arrays.
One forward path, `forward_prepared` (`forward_hidden`, then `apply_final`'s
one node), trains on the graph and serves `forecast` and `trainer.evaluate`.
"""

from __future__ import annotations

import csv
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import backbones
from .backbones import apply_final, draw_fan_in, stack_forward, stack_shapes, uniform_fan_in
from .data import SeriesTable, pearson_corr
from .normalization import InstanceStats, revin_center, revin_forward, revin_reverse
from .numcore import (Tensor, channel_gemv, channel_product, grad_enabled, matmul, no_grad,
                      pca_project, relu_product, reshape)
from .schema import GeneratorConfig, ModelConfig, StoreError

__all__ = ["ForecastModel", "StoreError", "init_embeddings", "init_generator",
           "generate_weights", "bake", "param_count", "build_baseline", "build_hyper",
           "export_embeddings"]


def init_embeddings(train: SeriesTable, d: int) -> np.ndarray:
    """(N, d) embeddings: the training split's channel correlation rows
    projected on their principal components; deterministic given the data."""
    n = train.n_channels
    if not 1 <= d <= n:
        raise ValueError(f"embedding dim d={d} out of range for {n} channels")
    return pca_project(pearson_corr(train), d)


def _generator_shapes(gen, prefix: str, n: int, d: int, horizon: int, dim: int) -> dict:
    """Names and shapes of the generator `gen` (a `GeneratorConfig`) of a width-`dim`
    slot, in store order."""
    if gen.mode == "per_channel_linear":
        return {f"{prefix}.w_phi": (n, d, horizon, dim)}
    hidden = gen.hidden
    return {**stack_shapes(f"{prefix}.mlp", d, hidden),
            f"{prefix}.mlp.{len(hidden)}.w": (hidden[-1] if hidden else d, horizon * dim)}


def init_generator(z: np.ndarray, horizon: int, hidden_dim: int, gen: GeneratorConfig,
                   rng: np.random.Generator) -> list[np.ndarray]:
    """The arrays of generator `gen` in store order, with scale-matched initialization.

    per_channel_linear returns [w_phi] in z's dtype, each channel's block
    drawn from the plain-layer uniform fan-in law scaled by 1/|z[n]| so the
    initial generated W matches a directly-initialized (H x D) layer in
    distribution. Channel by channel, the draws fill an (H, D, d) block
    whose d axis then moves to the front of that channel's slot, so the
    values do not depend on the stored layout, and no array but w_phi is
    ever as large as it. shared_mlp returns each hidden layer's weight and
    bias, then the bias-free output weight, drawn by fan-in; the output weight
    is then rescaled to U(-1/sqrt(D), 1/sqrt(D)) and divided by the RMS over
    channels of its input's norm at init (|z[n]| or the last hidden
    activation), so that the generated W matches a plain layer in scale too.
    """
    n, d = z.shape
    shapes = _generator_shapes(gen, "head", n, d, horizon, hidden_dim)
    if gen.mode == "shared_mlp":
        arrays = list(draw_fan_in(rng, shapes).values())
        h = z
        for w, b in zip(arrays[:-1:2], arrays[1:-1:2]):
            h = relu_product(h, w, b)
        rms = float(np.sqrt(np.mean(np.sum(np.square(h), axis=1))))
        arrays[-1] *= np.sqrt(arrays[-1].shape[0] / hidden_dim) / (rms if rms >= 1e-8 else 1.0)
        return arrays
    norms = np.linalg.norm(z, axis=1)
    norms = np.where(norms < 1e-8, 1.0, norms)
    w_phi = np.empty(shapes["head.w_phi"], dtype=z.dtype)
    for c in range(n):
        block = uniform_fan_in(rng, (horizon, hidden_dim, d), fan_in=hidden_dim)
        w_phi[c] = np.moveaxis(block / norms[c], -1, 0)
    return [w_phi]


def generate_weights(mode: str, z: Tensor, gen: list[Tensor], horizon: int) -> Tensor:
    """The (N, H, D) final-layer weights a generator encodes for embeddings z;
    `gen` holds the generator's arrays in store order (see `init_generator`)."""
    if mode == "per_channel_linear":
        return channel_gemv(z, gen[0])
    flat = matmul(stack_forward(z, gen[:-1]), gen[-1])
    return reshape(flat, (z.shape[0], horizon, flat.shape[1] // horizon))


def _array_shapes(cfg: ModelConfig, backbone) -> dict[str, tuple[int, ...]]:
    """Every array's name and shape, in store order, as a model config decides
    them; `backbone` is the one `cfg.backbone` describes."""
    n, horizon = len(cfg.channel_names), cfg.horizon
    shapes = backbone.shapes()
    if cfg.variant != "hyper":
        shapes.update({f"final.{slot}.w": (n, horizon, dim) for slot, dim in backbone.slots})
        return shapes
    d = cfg.embedding.dim
    shapes["embed.z"] = (n, d)
    for slot, dim in backbone.slots:
        shapes.update(_generator_shapes(cfg.generator, f"head.{slot}", n, d, horizon, dim))
    return shapes


class ForecastModel:
    """A model config plus one store of named arrays, in one of three forms.

    variant "baseline": trainable final layers `final.*`.
    variant "hyper":    final layers generated per forward from `embed.z`
                        and the `head.*` generators.
    variant "baked":    constant final layers materialized by `bake`; a
                        DLinear one serves their `fold` W, made here once
                        (see `forecast`).

    Building one checks the store against `_array_shapes` and sets which
    arrays train: `final.*` only in a baseline, `embed.z` only when learnable,
    every other array always. A baked model's `final.*` arrays turn
    read-only, so the fold cannot go stale.
    """

    def __init__(self, cfg: ModelConfig, arrays: dict[str, Tensor]):
        variant = cfg.variant
        self.backbone = backbones.from_config(cfg.backbone, arrays)
        shapes = _array_shapes(cfg, self.backbone)
        for name in shapes:
            if name not in arrays:
                raise StoreError(name, "is missing")
        owner = f"a {variant} model"
        if variant == "hyper":  # the generator's mode and widths decide its arrays' names
            owner += (f" with generator.mode {cfg.generator.mode!r} and generator.hidden "
                      f"{list(cfg.generator.hidden)}")
        for name in arrays:
            if name not in shapes:
                raise StoreError(name, f"is not part of {owner}")
        for name, t in arrays.items():
            if t.shape != shapes[name]:
                raise StoreError(name, f"has shape {t.shape}, expected {shapes[name]}")
        for name, t in arrays.items():
            t.requires_grad = (variant == "baseline" if name.startswith("final.")
                               else cfg.embedding.learnable if name == "embed.z" else True)
        self._cfg = cfg
        self._arrays = arrays
        self.variant = variant
        self.revin = cfg.revin
        self.horizon = cfg.horizon
        self.channel_names = list(cfg.channel_names)
        slots = [slot for slot, _ in self.backbone.slots]
        if variant == "hyper":
            self._mode = cfg.generator.mode
            self._heads = [[k for k in shapes if k.startswith(f"head.{s}.")] for s in slots]
        else:
            self._finals = [f"final.{s}.w" for s in slots]
        self._folded = None
        if variant == "baked":
            for name in self._finals:
                arrays[name].data.flags.writeable = False
            if isinstance(self.backbone, backbones.DLinearBackbone):
                self._folded = self.backbone.fold(*(arrays[n].data for n in self._finals))
        # names what `prepare` computes: models with equal `reads` prepare equal arrays
        self.reads = "lookback" if self._folded is not None else self.backbone.reads

    # forward paths --------------------------------------------------------
    def final_weights(self) -> list[Tensor]:
        """Each slot's (N, H, D) final-layer weights, in `backbone.slots` order;
        a hyper model generates them from its embeddings here."""
        a = self._arrays
        if self.variant != "hyper":
            return [a[name] for name in self._finals]
        return [generate_weights(self._mode, a["embed.z"], [a[name] for name in names],
                                 self.horizon) for names in self._heads]

    def prepare(self, x: np.ndarray) -> list[np.ndarray]:
        """What `forward_prepared` reads of x, the RevIN-normalised lookback (the
        raw one without RevIN): [x] for a folded model, else the backbone's."""
        return [x] if self._folded is not None else self.backbone.prepare(x)

    def forward_prepared(self, inputs: list[np.ndarray], weights: list | None = None) -> Tensor:
        """Normalised-scale forecast (..., N, H) from `prepare`'s arrays: the
        backbone's `forward_hidden`, then `apply_final` with `weights`, the
        `final_weights()`, which a caller may pass (`trainer.evaluate` takes them
        once per call); a folded model's is its fold's `channel_product` of [x]."""
        if self._folded is not None:
            return Tensor(channel_product(self._folded, inputs[0]))
        if weights is None:
            weights = self.final_weights()
        return apply_final(weights, self.backbone.forward_hidden(inputs))

    def forecast(self, x: np.ndarray, weights: list | None = None,
                 overwrite_x: bool = False) -> np.ndarray:
        """`forward` on plain arrays under `no_grad`, a new array: RevIN's statistics,
        then `forward_prepared`'s `.data` on `prepare`'s arrays, mapped back in
        its buffer. It writes x only with `overwrite_x`, normalising it in
        place, and takes `weights` as `forward_prepared` does. Through a folded
        model RevIN's scale cancels, W((x - mu) / (std + eps)) * (std + eps) +
        mu = W (x - mu) + mu: it serves that centred `channel_product`, whose
        precision does not depend on the series' level, and computes no std.
        """
        if not self.revin:
            return self.forward_prepared(self.prepare(x), weights).data
        if self._folded is not None:
            centered, mean = revin_center(x, x if overwrite_x else None)
            pred = channel_product(self._folded, centered)
            pred += mean
            return pred
        x_norm, stats = revin_forward(x, x if overwrite_x else None)
        pred = self.forward_prepared(self.prepare(x_norm), weights).data
        return revin_reverse(pred, stats, out=pred)

    def forward(self, x: Tensor) -> Tensor:
        """Raw-scale forecast (..., N, H) for a lookback (..., N, T); x is not written.

        The lookback is data: no gradient reaches it, so RevIN and the
        backbone's input side run on its plain array, and only the hidden
        states that meet the final layers join the graph. With no graph to
        record (under `no_grad`, or through a folded model) it is `forecast`.
        """
        if self._folded is not None or not grad_enabled():
            return Tensor(self.forecast(x.data))
        if not self.revin:
            return self.forward_prepared(self.prepare(x.data))
        x_norm, stats = revin_forward(x.data)
        return revin_reverse(self.forward_prepared(self.prepare(x_norm)), stats)

    def forward_normalized(self, x: Tensor) -> tuple[Tensor, InstanceStats]:
        """Normalized-scale forecast plus the lookback statistics."""
        if not self.revin:
            raise ValueError("forward_normalized requires a RevIN-wrapped model")
        x_norm, stats = revin_forward(x.data)
        return self.forward_prepared(self.prepare(x_norm)), stats

    # parameter bookkeeping -------------------------------------------------
    def all_arrays(self) -> dict[str, Tensor]:
        """The array store: every array by name, trainable or constant."""
        return self._arrays

    def parameters(self) -> dict[str, Tensor]:
        """Trainable tensors by name (embedding included only if learnable)."""
        return {name: t for name, t in self._arrays.items() if t.requires_grad}

    def hyper_parameters(self) -> dict[str, Tensor]:
        """The hypernetwork-added trainables: embedding plus generators."""
        return {k: t for k, t in self.parameters().items() if k.startswith(("embed.", "head."))}

    def param_count(self, trainable_only: bool = False) -> int:
        arrays = self.parameters() if trainable_only else self._arrays
        return int(sum(t.size for t in arrays.values()))

    # serialisation ----------------------------------------------------------
    def config(self) -> ModelConfig:
        """The model's config tree; `ForecastModel(config(), all_arrays())` rebuilds the model."""
        return self._cfg


def bake(model: ForecastModel) -> ForecastModel:
    """A model's final layers as constants: a hyper model's generated weights,
    or copies of a baseline's trained ones, with exactly the arrays of the
    matching baseline. A baked model is returned unchanged."""
    if model.variant == "baked":
        return model
    arrays = {name: Tensor(t.data.copy()) for name, t in model.backbone.parameters().items()}
    with no_grad():
        for (slot, _), w in zip(model.backbone.slots, model.final_weights()):
            arrays[f"final.{slot}.w"] = Tensor(w.data.copy())
    cfg = replace(model.config(), variant="baked", embedding=None, generator=None)
    return ForecastModel(cfg, arrays)


def param_count(n: int, horizon: int, hidden_dim: int, d: int, learnable_z: bool = True,
                mode: str = "per_channel_linear", heads: int = 1,
                gen_hidden: Sequence[int] = ()) -> int:
    """Closed-form count of hypernetwork-added trainables.

    per_channel_linear: heads * N*H*D*d, plus N*d when the embedding trains.
    shared_mlp: per head, the MLP's weights (hidden biases included, no
    output bias), plus the same optional N*d.
    """
    if min(n, horizon, hidden_dim, d, heads) < 1:
        raise ValueError("all sizes must be positive")
    if mode == "per_channel_linear":
        total = heads * n * horizon * hidden_dim * d
    elif mode == "shared_mlp":
        per_head, fan_in = 0, d
        for width in gen_hidden:
            per_head += fan_in * width + width
            fan_in = width
        per_head += fan_in * horizon * hidden_dim
        total = heads * per_head
    else:
        raise ValueError(f"unknown generator mode '{mode}'")
    if learnable_z:
        total += n * d
    return int(total)


# builders -------------------------------------------------------------------


def _config(variant: str, backbone, n: int, horizon: int, revin: bool,
            channel_names: Sequence[str] | None, **hyper) -> ModelConfig:
    """The config of a new model, read as a header's is; `hyper` holds a hyper
    model's `embedding` and `generator`."""
    return ModelConfig.from_json({
        "variant": variant, "revin": revin, "horizon": horizon,
        "channel_names": list(channel_names or [f"ch{i}" for i in range(n)]),
        "backbone": backbone.config(), **hyper})


def build_baseline(backbone, n_channels: int, horizon: int, rng: np.random.Generator, *,
                   revin: bool = True, channel_names: list[str] | None = None) -> ForecastModel:
    """Backbone with ordinary trainable per-channel final layers."""
    arrays = dict(backbone.parameters())
    for slot, dim in backbone.slots:
        arrays[f"final.{slot}.w"] = Tensor(uniform_fan_in(rng, (n_channels, horizon, dim), dim))
    cfg = _config("baseline", backbone, n_channels, horizon, revin, channel_names)
    return ForecastModel(cfg, arrays)


def build_hyper(backbone, train: SeriesTable, horizon: int, rng: np.random.Generator, *,
                d: int | None = None, mode: str = "per_channel_linear",
                gen_hidden: Sequence[int] = (), learnable_z: bool = True,
                revin: bool = True) -> ForecastModel:
    """Hyper-form model with correlation/PCA-initialized embeddings, which all
    slots share; `d` defaults to the channel count."""
    n = train.n_channels
    d = n if d is None else int(d)
    cfg = _config("hyper", backbone, n, horizon, revin, train.channel_names,
                  embedding={"dim": d, "learnable": bool(learnable_z)},
                  generator={"mode": mode, "hidden": list(gen_hidden)})
    arrays = dict(backbone.parameters())
    arrays["embed.z"] = Tensor(init_embeddings(train, d))
    for slot, dim in backbone.slots:
        gen = init_generator(arrays["embed.z"].data, horizon, dim, cfg.generator, rng)
        names = _generator_shapes(cfg.generator, f"head.{slot}", n, d, horizon, dim)
        arrays.update(zip(names, map(Tensor, gen)))
    return ForecastModel(cfg, arrays)


def export_embeddings(model: ForecastModel, path: str | Path) -> None:
    """Write the channel embeddings as CSV: channel name + d coordinates."""
    arrays = model.all_arrays()
    if "embed.z" not in arrays:
        raise ValueError("model has no embedding matrix to export")
    z = arrays["embed.z"].data
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["channel"] + [f"z{j}" for j in range(z.shape[1])])
        for name, row in zip(model.channel_names, z):
            writer.writerow([name] + [repr(float(v)) for v in row])
