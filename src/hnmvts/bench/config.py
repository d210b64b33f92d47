"""INI-style run configuration: flat sections, documented keys, stable defaults.

Blank values mean "unset" for optional keys. `default_config_text` is the
authoritative schema: every key the parser understands appears there with
its default, and `--print-config` emits exactly that text.
"""

from __future__ import annotations

import configparser
import difflib
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..data import SplitSpec, SynthSpec
from ..hypernet import GENERATOR_MODES

__all__ = [
    "RunConfig",
    "load_config",
    "default_config_text",
    "resolve_out_dir",
    "OUT_DIR_ENV",
    "VARIANTS",
    "BASELINE",
    "HN_MVTS",
]

OUT_DIR_ENV = "HNMVTS_OUT_DIR"

# The run names of the two compared variants. `hn_mvts` trains as the model
# variant "hyper" and is deployed (evaluated, saved) as "baked"; `baseline`
# is the model variant "baseline" throughout.
BASELINE, HN_MVTS = VARIANTS = ("baseline", "hn_mvts")

_DEFAULT_TEXT = """\
# hnmvts run configuration (INI, flat sections)

[data]
# CSV path, or "synthetic" to use the [synth] section
source = synthetic
# header name of the timestamp column to validate and drop (blank: none)
timestamp_column =
# label recorded with results
name = synthetic

[synth]
n_channels = 8
timesteps = 8192
# group id per channel, comma-separated (blank: all one group)
groups = 0,0,0,0,1,1,1,1
rho = 0.95
sigma = 0.0
seed = 0

[split]
# train,val,test ratios (normalized to sum 1)
ratios = 0.7,0.2,0.1
# keep only the first this-many timesteps before splitting (blank: keep all)
truncate_to =

[model]
# dlinear | mlp
backbone = dlinear
# moving-average kernel (dlinear; odd)
kernel = 25
# trunk widths (mlp), last one is the hidden dimensionality D
mlp_widths = 128
# baseline | hn_mvts (used by the train command; bench runs its own list)
variant = hn_mvts
# per_channel_linear | shared_mlp
gen_mode = per_channel_linear
# hidden widths of the shared_mlp generator (blank: none)
gen_hidden =
# embedding dimensionality d (blank: number of channels)
embed_dim =
learnable_embeddings = true
# share one final layer across channels in the baseline (default per-channel)
shared_final = false

[train]
lookback = 336
horizon = 96
batch_size = 64
lr = 0.0001
max_epochs = 20
seed = 0
shuffle = true
revin = true
# stop after this many epochs without validation improvement (blank: off)
early_stop_patience =

[bench]
horizons = 48,96,192,336
seeds = 0,1,2,3,4
variants = baseline,hn_mvts

[output]
dir = runs
"""


@dataclass
class RunConfig:
    """Parsed configuration with typed fields and applied defaults."""

    source: str = "synthetic"
    timestamp_column: str | None = None
    dataset_name: str = "synthetic"
    synth: SynthSpec | None = None
    synth_seed: int = 0
    split: SplitSpec = field(default_factory=SplitSpec)
    backbone: str = "dlinear"
    kernel: int = 25
    mlp_widths: tuple[int, ...] = (128,)
    variant: str = HN_MVTS
    gen_mode: str = "per_channel_linear"
    gen_hidden: tuple[int, ...] = ()
    embed_dim: int | None = None
    learnable_embeddings: bool = True
    shared_final: bool = False
    lookback: int = 336
    horizon: int = 96
    batch_size: int = 64
    lr: float = 1e-4
    max_epochs: int = 20
    seed: int = 0
    shuffle: bool = True
    revin: bool = True
    early_stop_patience: int | None = None
    horizons: tuple[int, ...] = (48, 96, 192, 336)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    variants: tuple[str, ...] = VARIANTS
    out_dir: str = "runs"

    def echo(self) -> dict:
        """JSON-serializable snapshot stored in checkpoints/results."""
        return {
            "source": self.source,
            "timestamp_column": self.timestamp_column,
            "dataset_name": self.dataset_name,
            "split_ratios": list(self.split.ratios),
            "truncate_to": self.split.truncate_to,
            "backbone": self.backbone,
            "kernel": self.kernel,
            "mlp_widths": list(self.mlp_widths),
            "variant": self.variant,
            "gen_mode": self.gen_mode,
            "gen_hidden": list(self.gen_hidden),
            "embed_dim": self.embed_dim,
            "learnable_embeddings": self.learnable_embeddings,
            "shared_final": self.shared_final,
            "lookback": self.lookback,
            "horizon": self.horizon,
            "batch_size": self.batch_size,
            "lr": self.lr,
            "max_epochs": self.max_epochs,
            "seed": self.seed,
            "shuffle": self.shuffle,
            "revin": self.revin,
            "early_stop_patience": self.early_stop_patience,
        }


def default_config_text() -> str:
    return _DEFAULT_TEXT


def _get(parser, section, key, fallback=None):
    if parser.has_option(section, key):
        value = parser.get(section, key).strip()
        return value if value else fallback
    return fallback


def _get_bool(parser, section, key, fallback):
    raw = _get(parser, section, key)
    if raw is None:
        return fallback
    lowered = raw.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"[{section}] {key}: expected a boolean, got '{raw}'")


def _int_tuple(raw: str | None) -> tuple[int, ...]:
    if not raw:
        return ()
    return tuple(int(v.strip()) for v in raw.split(",") if v.strip())


def _check_schema(user: configparser.ConfigParser, schema: configparser.ConfigParser,
                  path: Path) -> None:
    """Reject any section or key that `_DEFAULT_TEXT` does not define."""
    stray = list(user.defaults())
    if stray:
        raise ValueError(f"{path}: unknown key [DEFAULT] {stray[0]}")
    for section in user.sections():
        if not schema.has_section(section):
            raise ValueError(
                f"{path}: unknown section [{section}]{_hint(section, schema.sections())}"
            )
        valid = schema.options(section)
        for key in user.options(section):
            if key not in valid:
                raise ValueError(f"{path}: unknown key [{section}] {key}{_hint(key, valid)}")


def _hint(name: str, valid: list[str]) -> str:
    close = difflib.get_close_matches(name, valid, n=1)
    return f" (did you mean '{close[0]}'?)" if close else f" (valid: {', '.join(valid)})"


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such config file: {path}")
    text = path.read_text(encoding="utf-8")
    user = configparser.ConfigParser()
    user.read_string(text, source=str(path))
    parser = configparser.ConfigParser()
    parser.read_string(_DEFAULT_TEXT)
    _check_schema(user, parser, path)
    parser.read_string(text, source=str(path))
    cfg = RunConfig()
    cfg.source = _get(parser, "data", "source", "synthetic")
    cfg.timestamp_column = _get(parser, "data", "timestamp_column")
    cfg.dataset_name = _get(parser, "data", "name", Path(cfg.source).stem or "synthetic")
    groups = _int_tuple(_get(parser, "synth", "groups"))
    n_channels = int(_get(parser, "synth", "n_channels", "8"))
    cfg.synth = SynthSpec(
        n_channels=n_channels,
        timesteps=int(_get(parser, "synth", "timesteps", "8192")),
        groups=list(groups) if groups else [0] * n_channels,
        rho=float(_get(parser, "synth", "rho", "0.95")),
        sigma=float(_get(parser, "synth", "sigma", "0.0")),
    )
    cfg.synth_seed = int(_get(parser, "synth", "seed", "0"))
    ratios = tuple(float(v) for v in _get(parser, "split", "ratios", "0.7,0.2,0.1").split(","))
    truncate = _get(parser, "split", "truncate_to")
    cfg.split = SplitSpec(ratios, truncate_to=int(truncate) if truncate else None)
    cfg.backbone = _get(parser, "model", "backbone", "dlinear")
    cfg.kernel = int(_get(parser, "model", "kernel", "25"))
    cfg.mlp_widths = _int_tuple(_get(parser, "model", "mlp_widths", "128")) or (128,)
    cfg.variant = _get(parser, "model", "variant", HN_MVTS)
    cfg.gen_mode = _get(parser, "model", "gen_mode", "per_channel_linear")
    cfg.gen_hidden = _int_tuple(_get(parser, "model", "gen_hidden"))
    embed_dim = _get(parser, "model", "embed_dim")
    cfg.embed_dim = int(embed_dim) if embed_dim else None
    cfg.learnable_embeddings = _get_bool(parser, "model", "learnable_embeddings", True)
    cfg.shared_final = _get_bool(parser, "model", "shared_final", False)
    cfg.lookback = int(_get(parser, "train", "lookback", "336"))
    cfg.horizon = int(_get(parser, "train", "horizon", "96"))
    cfg.batch_size = int(_get(parser, "train", "batch_size", "64"))
    cfg.lr = float(_get(parser, "train", "lr", "0.0001"))
    cfg.max_epochs = int(_get(parser, "train", "max_epochs", "20"))
    cfg.seed = int(_get(parser, "train", "seed", "0"))
    cfg.shuffle = _get_bool(parser, "train", "shuffle", True)
    cfg.revin = _get_bool(parser, "train", "revin", True)
    patience = _get(parser, "train", "early_stop_patience")
    cfg.early_stop_patience = int(patience) if patience else None
    cfg.horizons = _int_tuple(_get(parser, "bench", "horizons", "48,96,192,336"))
    cfg.seeds = _int_tuple(_get(parser, "bench", "seeds", "0,1,2,3,4"))
    cfg.variants = tuple(
        v.strip() for v in _get(parser, "bench", "variants", ",".join(VARIANTS)).split(",")
    )
    cfg.out_dir = _get(parser, "output", "dir", "runs")
    for variant in cfg.variants + (cfg.variant,):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant '{variant}' (expected one of {VARIANTS})")
    if cfg.backbone not in ("dlinear", "mlp"):
        raise ValueError(f"unknown backbone '{cfg.backbone}'")
    if cfg.gen_mode not in GENERATOR_MODES:
        raise ValueError(
            f"[model] gen_mode: unknown generator mode '{cfg.gen_mode}' "
            f"(expected one of {GENERATOR_MODES})"
        )
    return cfg


def resolve_out_dir(configured: str, override: str | None = None) -> Path:
    """Output directory: CLI flag beats env var beats config value."""
    if override:
        return Path(override)
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return Path(env)
    return Path(configured)
