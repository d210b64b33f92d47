"""Channel embeddings, weight generators, and the hyper/baked model forms.

Each channel owns a learnable d-vector; a generator maps it to that
channel's final-layer matrix. Two generator modes:

* per_channel_linear - W[n] = w_phi[n] . z[n], one (H x D x d) block per
  channel, no cross-channel coupling inside the generator.
* shared_mlp - one small MLP applied to every channel's embedding (channels
  as the batch axis), hidden layers with biases, bias-free output.

Because generated weights do not depend on the input window, `bake`
materializes them once after training and drops the generator, leaving a
model identical in shape and cost to the plain backbone.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import backbones
from .backbones import FinalLayer, apply_final, uniform_fan_in
from .data import SeriesTable, pearson_corr
from .normalization import InstanceStats, revin_forward, revin_reverse
from .numcore import Tensor, add, channel_dot, matmul, no_grad, pca_project, relu, reshape

__all__ = [
    "EmbeddingMatrix",
    "GeneratorParams",
    "HyperHead",
    "ForecastModel",
    "init_embeddings",
    "generate_weights",
    "bake",
    "param_count",
    "build_baseline",
    "build_hyper",
    "export_embeddings",
]

GENERATOR_MODES = ("per_channel_linear", "shared_mlp")


@dataclass
class EmbeddingMatrix:
    """One d-dimensional embedding row per channel."""

    z: Tensor
    learnable: bool = True

    def __post_init__(self):
        if self.z.ndim != 2:
            raise ValueError(f"embedding matrix must be (N, d), got {self.z.shape}")
        self.z.requires_grad = bool(self.learnable)

    @property
    def n_channels(self) -> int:
        return self.z.shape[0]

    @property
    def dim(self) -> int:
        return self.z.shape[1]


class GeneratorParams:
    """Parameters of one weight generator (exactly one mode populated)."""

    def __init__(
        self,
        mode: str,
        *,
        w_phi: Tensor | None = None,
        mlp_layers: list[tuple[Tensor, Tensor | None]] | None = None,
    ):
        if mode not in GENERATOR_MODES:
            raise ValueError(f"unknown generator mode '{mode}'")
        if mode == "per_channel_linear":
            if w_phi is None or mlp_layers is not None:
                raise ValueError("per_channel_linear mode takes exactly w_phi")
            if w_phi.ndim != 4:
                raise ValueError(f"w_phi must be (N, H, D, d), got {w_phi.shape}")
        else:
            if mlp_layers is None or w_phi is not None:
                raise ValueError("shared_mlp mode takes exactly mlp_layers")
        self.mode = mode
        self.w_phi = w_phi
        self.mlp_layers = mlp_layers

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        if self.mode == "per_channel_linear":
            return {f"{prefix}.w_phi": self.w_phi}
        out = {}
        for i, (w, b) in enumerate(self.mlp_layers):
            out[f"{prefix}.mlp.{i}.w"] = w
            if b is not None:
                out[f"{prefix}.mlp.{i}.b"] = b
        return out

    @classmethod
    def from_arrays(cls, mode: str, arrays: dict[str, np.ndarray], prefix: str,
                    n_mlp_layers: int = 0) -> "GeneratorParams":
        """Inverse of `parameters(prefix)`: wrap the named arrays as trainables."""

        def param(name: str) -> Tensor:
            return Tensor(arrays[f"{prefix}.{name}"], requires_grad=True)

        if mode == "per_channel_linear":
            return cls(mode, w_phi=param("w_phi"))
        layers = [
            (param(f"mlp.{i}.w"),
             param(f"mlp.{i}.b") if f"{prefix}.mlp.{i}.b" in arrays else None)
            for i in range(n_mlp_layers)
        ]
        return cls(mode, mlp_layers=layers)


@dataclass
class HyperHead:
    """Generator feeding one final-layer slot (e.g. DLinear's trend branch)."""

    embedding: EmbeddingMatrix
    gen: GeneratorParams
    horizon: int
    hidden_dim: int


def init_embeddings(train: SeriesTable, d: int, learnable: bool = True) -> EmbeddingMatrix:
    """Embeddings from channel correlation rows projected on principal components.

    Uses the training split only; deterministic given the data.
    """
    n = train.n_channels
    if not 1 <= d <= n:
        raise ValueError(f"embedding dim d={d} out of range for {n} channels")
    corr = pearson_corr(train)
    z = pca_project(corr, d)
    return EmbeddingMatrix(Tensor(z.data.copy(), requires_grad=learnable), learnable=learnable)


def head_for(
    embedding: EmbeddingMatrix,
    horizon: int,
    hidden_dim: int,
    mode: str,
    rng: np.random.Generator,
    gen_hidden: Sequence[int] = (),
) -> HyperHead:
    """Build one generator head with scale-matched initialization.

    per_channel_linear draws each channel's block from the plain-layer
    uniform fan-in law scaled by 1/|z[n]| so the initial generated W matches
    a directly-initialized (H x D) layer in distribution.
    """
    if any(width < 1 for width in gen_hidden):
        raise ValueError(f"generator hidden widths must be >= 1, got {tuple(gen_hidden)}")
    n, d = embedding.n_channels, embedding.dim
    if mode == "per_channel_linear":
        base = uniform_fan_in(rng, (n, horizon, hidden_dim, d), fan_in=hidden_dim)
        norms = np.linalg.norm(embedding.z.data, axis=1)
        norms = np.where(norms < 1e-8, 1.0, norms)
        w_phi = base / norms[:, None, None, None]
        gen = GeneratorParams(mode, w_phi=Tensor(w_phi, requires_grad=True))
    elif mode == "shared_mlp":
        layers: list[tuple[Tensor, Tensor | None]] = []
        fan_in = d
        for width in gen_hidden:
            w = Tensor(uniform_fan_in(rng, (fan_in, width), fan_in), requires_grad=True)
            b = Tensor(uniform_fan_in(rng, (width,), fan_in), requires_grad=True)
            layers.append((w, b))
            fan_in = width
        w_out = Tensor(
            uniform_fan_in(rng, (fan_in, horizon * hidden_dim), fan_in), requires_grad=True
        )
        layers.append((w_out, None))
        gen = GeneratorParams(mode, mlp_layers=layers)
    else:
        raise ValueError(f"unknown generator mode '{mode}'")
    return HyperHead(embedding, gen, horizon, hidden_dim)


def generate_weights(head: HyperHead) -> Tensor:
    """The (N, H, D) final-layer weights this head currently encodes."""
    z = head.embedding.z
    if head.gen.mode == "per_channel_linear":
        w_phi = head.gen.w_phi
        expected = (head.embedding.n_channels, head.horizon, head.hidden_dim, head.embedding.dim)
        if w_phi.shape != expected:
            raise ValueError(f"w_phi shape {w_phi.shape} does not match head {expected}")
        return channel_dot(w_phi, z)
    a = z
    for w, b in head.gen.mlp_layers[:-1]:
        a = relu(add(matmul(a, w), b))
    w_out, _ = head.gen.mlp_layers[-1]
    flat = matmul(a, w_out)
    n = head.embedding.n_channels
    if flat.shape != (n, head.horizon * head.hidden_dim):
        raise ValueError(
            f"generator output {flat.shape} does not match "
            f"(N={n}, H*D={head.horizon * head.hidden_dim})"
        )
    return reshape(flat, (n, head.horizon, head.hidden_dim))


class ForecastModel:
    """Backbone plus final-layer machinery in one of three forms.

    variant "baseline": trainable final layers.
    variant "hyper":    final layers generated per forward from the heads.
    variant "baked":    constant final layers materialized by `bake`.
    """

    def __init__(
        self,
        backbone,
        n_channels: int,
        horizon: int,
        variant: str,
        *,
        revin: bool = True,
        heads: dict[str, HyperHead] | None = None,
        finals: dict[str, FinalLayer] | None = None,
        embedding: EmbeddingMatrix | None = None,
        channel_names: list[str] | None = None,
    ):
        if variant not in ("baseline", "hyper", "baked"):
            raise ValueError(f"unknown variant '{variant}'")
        if variant == "hyper" and not heads:
            raise ValueError("hyper model needs generator heads")
        if variant in ("baseline", "baked") and not finals:
            raise ValueError(f"{variant} model needs final layers")
        self.backbone = backbone
        self.n_channels = n_channels
        self.horizon = horizon
        self.variant = variant
        self.revin = revin
        self.heads = heads or {}
        self.finals = finals or {}
        self.embedding = embedding
        self.channel_names = channel_names or [f"ch{i}" for i in range(n_channels)]
        slot_names = [name for name, _ in backbone.slots]
        active = self.heads if variant == "hyper" else self.finals
        if sorted(active.keys()) != sorted(slot_names):
            raise ValueError(f"model slots {sorted(active)} do not match backbone {slot_names}")

    # forward paths --------------------------------------------------------
    def _finals_list(self) -> list[FinalLayer]:
        slot_names = [name for name, _ in self.backbone.slots]
        if self.variant == "hyper":
            return [FinalLayer(generate_weights(self.heads[s])) for s in slot_names]
        return [self.finals[s] for s in slot_names]

    def _core(self, x: Tensor) -> Tensor:
        return apply_final(self._finals_list(), self.backbone.forward_hidden(x))

    def forward(self, x: Tensor) -> Tensor:
        """Raw-scale forecast (..., N, H) for a lookback (..., N, T)."""
        if not self.revin:
            return self._core(x)
        x_norm, stats = revin_forward(x)
        return revin_reverse(self._core(x_norm), stats)

    def forward_normalized(self, x: Tensor) -> tuple[Tensor, InstanceStats]:
        """Normalized-scale forecast plus the lookback statistics."""
        if not self.revin:
            raise ValueError("forward_normalized requires a RevIN-wrapped model")
        x_norm, stats = revin_forward(x)
        return self._core(x_norm), stats

    # parameter bookkeeping -------------------------------------------------
    def all_arrays(self) -> dict[str, Tensor]:
        """Every parameter array by name, trainable or constant (for counting/saving)."""
        out = dict(self.backbone.parameters())
        if self.variant == "hyper":
            if self.embedding is not None:
                out["embed.z"] = self.embedding.z
            for slot, head in self.heads.items():
                out.update(head.gen.parameters(f"head.{slot}"))
        else:
            for slot, layer in self.finals.items():
                out[f"final.{slot}.w"] = layer.weights
        return out

    def parameters(self) -> dict[str, Tensor]:
        """Trainable tensors by name (embedding included only if learnable)."""
        return {name: t for name, t in self.all_arrays().items() if t.requires_grad}

    def hyper_parameters(self) -> dict[str, Tensor]:
        """The hypernetwork-added trainables: embedding plus generators."""
        return {k: t for k, t in self.parameters().items() if k.startswith(("embed.", "head."))}

    def param_count(self, trainable_only: bool = False) -> int:
        arrays = self.parameters() if trainable_only else self.all_arrays()
        return int(sum(t.size for t in arrays.values()))

    # serialisation ----------------------------------------------------------
    def config(self) -> dict:
        """JSON-ready description; with `all_arrays` it rebuilds the model."""
        cfg = {
            "variant": self.variant,
            "revin": self.revin,
            "n_channels": self.n_channels,
            "horizon": self.horizon,
            "channel_names": list(self.channel_names),
            "backbone": self.backbone.config(),
        }
        if self.variant == "hyper":
            cfg["heads"] = {
                slot: {
                    "mode": head.gen.mode,
                    "hidden_dim": head.hidden_dim,
                    "n_mlp_layers": len(head.gen.mlp_layers) if head.gen.mlp_layers else 0,
                }
                for slot, head in self.heads.items()
            }
            cfg["embedding"] = {"dim": self.embedding.dim, "learnable": self.embedding.learnable}
        return cfg

    @classmethod
    def from_config(cls, cfg: dict, arrays: dict[str, np.ndarray]) -> "ForecastModel":
        """Inverse of `config` plus `all_arrays`; the arrays are wrapped, not copied.

        A missing header key or array raises KeyError naming it.
        """
        backbone = backbones.from_config(cfg["backbone"], arrays)
        variant, n, horizon = cfg["variant"], cfg["n_channels"], cfg["horizon"]
        common = {"revin": cfg["revin"], "channel_names": cfg["channel_names"]}
        if variant != "hyper":
            finals = {
                slot: FinalLayer(
                    Tensor(arrays[f"final.{slot}.w"], requires_grad=variant == "baseline")
                )
                for slot, _ in backbone.slots
            }
            return cls(backbone, n, horizon, variant, finals=finals, **common)
        embedding = EmbeddingMatrix(Tensor(arrays["embed.z"]), cfg["embedding"]["learnable"])
        heads = {}
        for slot, _ in backbone.slots:
            head = cfg["heads"][slot]
            gen = GeneratorParams.from_arrays(
                head["mode"], arrays, f"head.{slot}", head["n_mlp_layers"]
            )
            heads[slot] = HyperHead(embedding, gen, horizon, head["hidden_dim"])
        return cls(backbone, n, horizon, variant, heads=heads, embedding=embedding, **common)


def bake(model: ForecastModel) -> ForecastModel:
    """Materialize generated weights into constant final layers.

    Idempotent: a baked model is returned unchanged. The result has exactly
    the parameter arrays of the matching baseline model.
    """
    if model.variant == "baked":
        return model
    if model.variant != "hyper":
        raise ValueError(f"bake applies to hyper-form models, got '{model.variant}'")
    finals = {}
    with no_grad():
        for slot, head in model.heads.items():
            w = generate_weights(head)
            finals[slot] = FinalLayer(Tensor(w.data.copy()))
    arrays = {name: t.data.copy() for name, t in model.backbone.parameters().items()}
    return ForecastModel(
        backbones.from_config(model.backbone.config(), arrays),
        model.n_channels,
        model.horizon,
        "baked",
        revin=model.revin,
        finals=finals,
        channel_names=list(model.channel_names),
    )


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
    finals = {
        slot: FinalLayer.init_per_channel(rng, n_channels, horizon, dim)
        for slot, dim in backbone.slots
    }
    return ForecastModel(
        backbone,
        n_channels,
        horizon,
        "baseline",
        revin=revin,
        finals=finals,
        channel_names=channel_names,
    )


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
    embedding = init_embeddings(train, d, learnable=learnable_z)
    heads = {
        slot: head_for(embedding, horizon, dim, mode, rng, gen_hidden)
        for slot, dim in backbone.slots
    }
    return ForecastModel(
        backbone,
        n,
        horizon,
        "hyper",
        revin=revin,
        heads=heads,
        embedding=embedding,
        channel_names=list(train.channel_names),
    )


def export_embeddings(model: ForecastModel, path: str | Path) -> None:
    """Write the channel embeddings as CSV: channel name + d coordinates."""
    if model.embedding is None:
        raise ValueError("model has no embedding matrix to export")
    z = model.embedding.z.data
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["channel"] + [f"z{j}" for j in range(z.shape[1])])
        for name, row in zip(model.channel_names, z):
            writer.writerow([name] + [repr(float(v)) for v in row])
