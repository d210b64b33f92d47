"""INI-style run configuration: flat sections, documented keys, stable defaults.

`_DEFAULT_TEXT` (printed by `--print-config`) is the schema and the only
place a run default is written: every key the parser understands appears
there with its default, and `load_config` reads each key once, taking the
user's value or else that default. A key whose default is blank may be left
blank, meaning "unset"; a blank value on any other key is an error. Every
error, whether an unknown key, an unparseable value or a value out of range,
names the file and the `[section] key`.
"""

from __future__ import annotations

import configparser
import difflib
import os
from dataclasses import asdict, dataclass
from pathlib import Path

from ..backbones import DLinearBackbone
from ..data import SplitSpec, SynthSpec
from ..hypernet import GENERATOR_MODES
from ..trainer import TrainConfig

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
# label recorded with results (blank: the source file's stem)
name =

[synth]
n_channels = 8
timesteps = 8192
# group id per channel, comma-separated, one per channel
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

[train]
lookback = 336
horizon = 96
batch_size = 64
lr = 0.0001
max_epochs = 20
seed = 0
shuffle = true
# wrap the model in RevIN (per-window instance normalization)
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
    """Parsed configuration; `load_config` is the only builder, from `_DEFAULT_TEXT`."""

    source: str
    timestamp_column: str | None
    dataset_name: str
    synth: SynthSpec
    synth_seed: int
    split: SplitSpec
    backbone: str
    kernel: int
    mlp_widths: tuple[int, ...]
    variant: str
    gen_mode: str
    gen_hidden: tuple[int, ...]
    embed_dim: int | None
    learnable_embeddings: bool
    revin: bool
    train: TrainConfig
    horizons: tuple[int, ...]
    seeds: tuple[int, ...]
    variants: tuple[str, ...]
    out_dir: str

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
            **asdict(self.train),
            "revin": self.revin,
        }


def default_config_text() -> str:
    return _DEFAULT_TEXT


_SCHEMA = configparser.ConfigParser()
_SCHEMA.read_string(_DEFAULT_TEXT)


def _bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got '{raw}'")


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(v) for v in raw.split(","))


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in raw.split(","))


def _one_of(choices: tuple[str, ...], what: str):
    def convert(raw: str) -> str:
        if raw not in choices:
            raise ValueError(f"unknown {what} '{raw}' (expected one of {choices})")
        return raw

    return convert


_variant = _one_of(VARIANTS, "variant")


def _variants(raw: str) -> tuple[str, ...]:
    return tuple(_variant(v.strip()) for v in raw.split(","))


def _positive_ints(what: str):
    def convert(raw: str) -> tuple[int, ...]:
        values = _ints(raw)
        if any(v < 1 for v in values):
            raise ValueError(f"every {what} must be >= 1, got {values}")
        return values

    return convert


def _check_schema(user: configparser.ConfigParser, path: Path) -> None:
    """Reject any section or key that `_DEFAULT_TEXT` does not define."""
    stray = list(user.defaults())
    if stray:
        raise ValueError(f"{path}: unknown key [DEFAULT] {stray[0]}")
    for section in user.sections():
        if not _SCHEMA.has_section(section):
            raise ValueError(
                f"{path}: unknown section [{section}]{_hint(section, _SCHEMA.sections())}"
            )
        valid = _SCHEMA.options(section)
        for key in user.options(section):
            if key not in valid:
                raise ValueError(f"{path}: unknown key [{section}] {key}{_hint(key, valid)}")


def _hint(name: str, valid: list[str]) -> str:
    close = difflib.get_close_matches(name, valid, n=1)
    return f" (did you mean '{close[0]}'?)" if close else f" (valid: {', '.join(valid)})"


def load_config(path: str | Path) -> RunConfig:
    """Parse and check a run config; every error names the file and `[section] key`."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such config file: {path}")
    user = configparser.ConfigParser(interpolation=None)
    try:
        user.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except configparser.Error as err:
        raise ValueError(str(err)) from None
    _check_schema(user, path)

    def get(section: str, key: str, convert=str):
        """The user's value, else the schema's; None when blank and the schema allows it."""
        raw = user.get(section, key, fallback=_SCHEMA.get(section, key)).strip()
        if not raw:
            if _SCHEMA.get(section, key):
                raise ValueError(
                    f"{path}: [{section}] {key}: blank value; only keys whose default "
                    "is blank may be left blank"
                )
            return None
        try:
            return convert(raw)
        except ValueError as err:
            raise ValueError(f"{path}: [{section}] {key}: {err}") from None

    def build(section: str, make, *args, **kwargs):
        """`make(*args, **kwargs)`, its range errors prefixed with the file and section."""
        try:
            return make(*args, **kwargs)
        except ValueError as err:
            raise ValueError(f"{path}: [{section}] {err}") from None

    source = get("data", "source")
    cfg = RunConfig(
        source=source,
        timestamp_column=get("data", "timestamp_column"),
        dataset_name=get("data", "name") or Path(source).stem,
        synth=build(
            "synth", SynthSpec,
            n_channels=get("synth", "n_channels", int),
            timesteps=get("synth", "timesteps", int),
            groups=list(get("synth", "groups", _ints)),
            rho=get("synth", "rho", float),
            sigma=get("synth", "sigma", float),
        ),
        synth_seed=get("synth", "seed", int),
        split=build(
            "split", SplitSpec, get("split", "ratios", _floats),
            truncate_to=get("split", "truncate_to", int),
        ),
        backbone=get("model", "backbone", _one_of(("dlinear", "mlp"), "backbone")),
        kernel=get("model", "kernel", int),
        mlp_widths=get("model", "mlp_widths", _positive_ints("width")),
        variant=get("model", "variant", _variant),
        gen_mode=get("model", "gen_mode", _one_of(GENERATOR_MODES, "generator mode")),
        gen_hidden=get("model", "gen_hidden", _positive_ints("width")) or (),
        embed_dim=get("model", "embed_dim", int),
        learnable_embeddings=get("model", "learnable_embeddings", _bool),
        revin=get("train", "revin", _bool),
        train=build(
            "train", TrainConfig,
            lookback=get("train", "lookback", int),
            horizon=get("train", "horizon", int),
            batch_size=get("train", "batch_size", int),
            lr=get("train", "lr", float),
            max_epochs=get("train", "max_epochs", int),
            seed=get("train", "seed", int),
            shuffle=get("train", "shuffle", _bool),
            early_stop_patience=get("train", "early_stop_patience", int),
        ),
        horizons=get("bench", "horizons", _positive_ints("horizon")),
        seeds=get("bench", "seeds", _ints),
        variants=get("bench", "variants", _variants),
        out_dir=get("output", "dir"),
    )
    if cfg.backbone == "dlinear":
        build("model", DLinearBackbone, cfg.train.lookback, cfg.kernel)
    if cfg.gen_hidden and cfg.gen_mode != "shared_mlp":
        raise ValueError(f"{path}: [model] gen_hidden: only the shared_mlp generator has "
                         f"hidden layers, and gen_mode is {cfg.gen_mode}")
    return cfg


def resolve_out_dir(configured: str, override: str | None = None) -> Path:
    """Output directory: CLI flag beats env var beats config value."""
    if override:
        return Path(override)
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return Path(env)
    return Path(configured)
