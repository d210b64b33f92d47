"""Channel embeddings, weight generators, and the model in its three forms.

A model is its config (`ForecastModel.config()`, the checkpoint header)
plus one store of named arrays. The config states each fact once:
`variant`, `revin`, `horizon`, `channel_names` (N is their count), `backbone`
and, for a hyper model, `embedding` and one `generator` {"mode", "hidden"}
for every slot. It alone decides every array's name and shape
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

* per_channel_linear - W[n] = w_phi[n] . z[n], one (H x D x d) block per
  channel, no cross-channel coupling inside the generator; `hidden` is [].
* shared_mlp - one small MLP applied to every channel's embedding (channels
  as the batch axis): the `backbones` Linear+ReLU stack of widths `hidden`,
  then a bias-free output layer `head.<slot>.mlp.<len(hidden)>.w`.

Because generated weights do not depend on the input window, `bake`
materializes them once after training and drops the generator, leaving a
model with exactly the plain backbone's arrays; a baseline bakes to copies
of its own final layers. A baked DLinear model folds its two final layers
into one W (`DLinearBackbone.fold`) when it is built. RevIN has no affine
pair, so its scale cancels through W, and the model serves the centred
form W (x - mu) + mu, mu each window's per-channel lookback mean: one
per-channel product, with no decomposition and no std.
"""

from __future__ import annotations

import copy
import csv
from pathlib import Path
from typing import Sequence

import numpy as np

from . import backbones
from .backbones import apply_final, draw_fan_in, stack_forward, stack_shapes, uniform_fan_in
from .data import SeriesTable, pearson_corr
from .normalization import InstanceStats, revin_forward, revin_reverse
from .numcore import Tensor, channel_dot, matmul, no_grad, pca_project, reshape

__all__ = [
    "ForecastModel",
    "StoreError",
    "init_embeddings",
    "init_generator",
    "generate_weights",
    "bake",
    "param_count",
    "build_baseline",
    "build_hyper",
    "export_embeddings",
]

GENERATOR_MODES = ("per_channel_linear", "shared_mlp")
VARIANTS = ("baseline", "hyper", "baked")


class StoreError(ValueError):
    """An array missing from a model's store, foreign to it, or mis-shaped."""

    def __init__(self, name: str, problem: str):
        super().__init__(f"array '{name}' {problem}")
        self.name = name
        self.problem = problem


def init_embeddings(train: SeriesTable, d: int) -> np.ndarray:
    """(N, d) embeddings: channel correlation rows projected on principal components.

    Uses the training split only; deterministic given the data.
    """
    n = train.n_channels
    if not 1 <= d <= n:
        raise ValueError(f"embedding dim d={d} out of range for {n} channels")
    return pca_project(pearson_corr(train), d)


def _generator_shapes(gen: dict, prefix: str, n: int, d: int, horizon: int, dim: int) -> dict:
    """Names and shapes of the `gen`-configured generator of a width-`dim` slot, in store order."""
    if gen["mode"] == "per_channel_linear":
        if gen["hidden"]:
            raise ValueError(f"generator.hidden must be [] for per_channel_linear, "
                             f"got {gen['hidden']}")
        return {f"{prefix}.w_phi": (n, horizon, dim, d)}
    if gen["mode"] != "shared_mlp":
        raise ValueError(f"unknown generator mode '{gen['mode']}'")
    hidden = gen["hidden"]
    return {**stack_shapes(f"{prefix}.mlp", d, hidden),
            f"{prefix}.mlp.{len(hidden)}.w": (hidden[-1] if hidden else d, horizon * dim)}


def init_generator(
    z: np.ndarray,
    horizon: int,
    hidden_dim: int,
    mode: str,
    rng: np.random.Generator,
    gen_hidden: Sequence[int] = (),
) -> list[np.ndarray]:
    """One generator's arrays in store order, with scale-matched initialization.

    per_channel_linear returns [w_phi], each channel's block drawn from the
    plain-layer uniform fan-in law scaled by 1/|z[n]| so the initial
    generated W matches a directly-initialized (H x D) layer in
    distribution. shared_mlp returns each hidden layer's weight and bias,
    then the bias-free output weight, each drawn by fan-in.
    """
    n, d = z.shape
    shapes = _generator_shapes({"mode": mode, "hidden": gen_hidden}, "head", n, d, horizon,
                               hidden_dim)
    if mode == "shared_mlp":
        return list(draw_fan_in(rng, shapes).values())
    base = uniform_fan_in(rng, shapes["head.w_phi"], fan_in=hidden_dim)
    norms = np.linalg.norm(z, axis=1)
    norms = np.where(norms < 1e-8, 1.0, norms)
    return [base / norms[:, None, None, None]]


def generate_weights(mode: str, z: Tensor, gen: list[Tensor], horizon: int) -> Tensor:
    """The (N, H, D) final-layer weights a generator encodes for embeddings z.

    `gen` holds the generator's arrays in store order (see `init_generator`).
    """
    if mode == "per_channel_linear":
        return channel_dot(gen[0], z)
    flat = matmul(stack_forward(z, gen[:-1]), gen[-1])
    return reshape(flat, (z.shape[0], horizon, flat.shape[1] // horizon))


def _array_shapes(cfg: dict, backbone) -> dict[str, tuple[int, ...]]:
    """Every array's name and shape, in store order, as a model config decides them.

    `backbone` is the one `cfg["backbone"]` describes.
    """
    n, horizon = len(cfg["channel_names"]), cfg["horizon"]
    shapes = backbone.shapes()
    if cfg["variant"] != "hyper":
        shapes.update({f"final.{slot}.w": (n, horizon, dim) for slot, dim in backbone.slots})
        return shapes
    d = cfg["embedding"]["dim"]
    shapes["embed.z"] = (n, d)
    for slot, dim in backbone.slots:
        shapes.update(_generator_shapes(cfg["generator"], f"head.{slot}", n, d, horizon, dim))
    return shapes


class ForecastModel:
    """A model config plus one store of named arrays, in one of three forms.

    variant "baseline": trainable final layers `final.*`.
    variant "hyper":    final layers generated per forward from `embed.z`
                        and the `head.*` generators.
    variant "baked":    constant final layers materialized by `bake`; a
                        DLinear one serves their `fold` W, made here once,
                        as W (x - mu) + mu (W x without RevIN).

    Building one checks the store against `_array_shapes` and sets every
    array's `requires_grad`: `final.*` trains only in a baseline, `embed.z`
    only when the config calls it learnable, every other array always. A
    baked model's `final.*` arrays turn read-only, so the fold cannot go stale.
    """

    def __init__(self, cfg: dict, arrays: dict[str, Tensor]):
        variant = cfg["variant"]
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant '{variant}'")
        self.backbone = backbones.from_config(cfg["backbone"], arrays)
        shapes = _array_shapes(cfg, self.backbone)
        for name in shapes:
            if name not in arrays:
                raise StoreError(name, "is missing")
        for name, t in arrays.items():
            if name not in shapes:
                raise StoreError(name, f"is not part of a {variant} model")
            if t.shape != shapes[name]:
                raise StoreError(name, f"has shape {t.shape}, expected {shapes[name]}")
        for name, t in arrays.items():
            if name.startswith("final."):
                t.requires_grad = variant == "baseline"
            elif name == "embed.z":
                t.requires_grad = bool(cfg["embedding"]["learnable"])
            else:
                t.requires_grad = True
        self._cfg = cfg
        self._arrays = arrays
        self.variant = variant
        self.revin = cfg["revin"]
        self.horizon = cfg["horizon"]
        self.channel_names = cfg["channel_names"]
        slots = [slot for slot, _ in self.backbone.slots]
        if variant == "hyper":
            self._mode = cfg["generator"]["mode"]
            self._heads = [[k for k in shapes if k.startswith(f"head.{s}.")] for s in slots]
        else:
            self._finals = [f"final.{s}.w" for s in slots]
        self._folded = None
        if variant == "baked":
            for name in self._finals:
                arrays[name].data.flags.writeable = False
            if isinstance(self.backbone, backbones.DLinearBackbone):
                self._folded = Tensor(self.backbone.fold(*(arrays[n].data for n in self._finals)))

    # forward paths --------------------------------------------------------
    def _final_weights(self) -> list[Tensor]:
        """Each slot's (N, H, D) final-layer weights, in `backbone.slots` order."""
        a = self._arrays
        if self.variant != "hyper":
            return [a[name] for name in self._finals]
        return [generate_weights(self._mode, a["embed.z"], [a[name] for name in names],
                                 self.horizon) for names in self._heads]

    def _core(self, x: np.ndarray) -> Tensor:
        if self._folded is not None:
            return apply_final([self._folded], [Tensor(x)])
        return apply_final(self._final_weights(), self.backbone.forward_hidden(x))

    def forward(self, x: Tensor) -> Tensor:
        """Raw-scale forecast (..., N, H) for a lookback (..., N, T).

        The lookback is data: no gradient reaches it, so RevIN and the
        backbone's input side run on its plain array, and only the hidden
        states that meet the final layers join the graph.

        Through a folded model RevIN's scale cancels, W((x - mu) / (std +
        eps)) * (std + eps) + mu = W (x - mu) + mu, so it serves that form
        and computes no std. Centring before the product keeps its precision
        independent of the series' level.
        """
        if not self.revin:
            return self._core(x.data)
        if self._folded is not None:
            mean = x.data.mean(axis=-1, keepdims=True)
            return self._core(x.data - mean) + mean
        x_norm, stats = revin_forward(x.data)
        return revin_reverse(self._core(x_norm), stats)

    def forward_normalized(self, x: Tensor) -> tuple[Tensor, InstanceStats]:
        """Normalized-scale forecast plus the lookback statistics."""
        if not self.revin:
            raise ValueError("forward_normalized requires a RevIN-wrapped model")
        x_norm, stats = revin_forward(x.data)
        return self._core(x_norm), stats

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
    def config(self) -> dict:
        """JSON-ready description; `ForecastModel(config(), all_arrays())` rebuilds the model."""
        return copy.deepcopy(self._cfg)


def bake(model: ForecastModel) -> ForecastModel:
    """Materialize a model's final layers as constants: a hyper model's
    generated weights, or copies of a baseline's trained ones.

    Idempotent: a baked model is returned unchanged. The result has exactly
    the parameter arrays of the matching baseline model, and deploys a
    baseline and a hyper model the same way.
    """
    if model.variant == "baked":
        return model
    arrays = {name: Tensor(t.data.copy()) for name, t in model.backbone.parameters().items()}
    with no_grad():
        for (slot, _), w in zip(model.backbone.slots, model._final_weights()):
            arrays[f"final.{slot}.w"] = Tensor(w.data.copy())
    cfg = model.config()
    cfg.pop("generator", None)
    cfg.pop("embedding", None)
    cfg["variant"] = "baked"
    return ForecastModel(cfg, arrays)


def param_count(
    n: int,
    horizon: int,
    hidden_dim: int,
    d: int,
    learnable_z: bool = True,
    mode: str = "per_channel_linear",
    heads: int = 1,
    gen_hidden: Sequence[int] = (),
) -> int:
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
        per_head = 0
        fan_in = d
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
            channel_names: Sequence[str] | None) -> dict:
    return {
        "variant": variant,
        "revin": revin,
        "horizon": horizon,
        "channel_names": list(channel_names or [f"ch{i}" for i in range(n)]),
        "backbone": backbone.config(),
    }


def build_baseline(
    backbone,
    n_channels: int,
    horizon: int,
    rng: np.random.Generator,
    *,
    revin: bool = True,
    channel_names: list[str] | None = None,
) -> ForecastModel:
    """Backbone with ordinary trainable per-channel final layers."""
    arrays = dict(backbone.parameters())
    for slot, dim in backbone.slots:
        arrays[f"final.{slot}.w"] = Tensor(uniform_fan_in(rng, (n_channels, horizon, dim), dim))
    cfg = _config("baseline", backbone, n_channels, horizon, revin, channel_names)
    return ForecastModel(cfg, arrays)


def build_hyper(
    backbone,
    train: SeriesTable,
    horizon: int,
    rng: np.random.Generator,
    *,
    d: int | None = None,
    mode: str = "per_channel_linear",
    gen_hidden: Sequence[int] = (),
    learnable_z: bool = True,
    revin: bool = True,
) -> ForecastModel:
    """Hyper-form model with correlation/PCA-initialized embeddings.

    All heads (e.g. DLinear's trend and seasonal) share one embedding matrix.
    `d` defaults to the channel count.
    """
    n = train.n_channels
    d = n if d is None else int(d)
    cfg = _config("hyper", backbone, n, horizon, revin, train.channel_names)
    cfg["embedding"] = {"dim": d, "learnable": bool(learnable_z)}
    cfg["generator"] = {"mode": mode, "hidden": list(gen_hidden)}
    arrays = dict(backbone.parameters())
    arrays["embed.z"] = Tensor(init_embeddings(train, d))
    for slot, dim in backbone.slots:
        gen = init_generator(arrays["embed.z"].data, horizon, dim, mode, rng,
                             cfg["generator"]["hidden"])
        names = _generator_shapes(cfg["generator"], f"head.{slot}", n, d, horizon, dim)
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
