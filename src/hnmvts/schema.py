"""Typed JSON: checkpoint headers and result records, read by their type hints.

`read(hint, value, path)` reads parsed JSON as `hint`: `str`, `int`, `float`,
`bool`, `dict`, `X | None`, a `Literal`, `tuple[X, ...]` (a list),
`dict[str, X]` or a dataclass (an object without keys it does not define).
`Annotated[X, n]` adds a least value, or a least length. An integer is a
number too; true and false are neither. Each refusal is a ValueError naming
the value's path, such as `generator.hidden[0]`. `read_header` reads a
checkpoint header, formats 1 to 3, into a `ModelConfig`.
"""

import json
import numbers
import types
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from functools import cache
from typing import Annotated, Literal, Union, get_args, get_origin, get_type_hints

__all__ = ["read", "ModelConfig", "BackboneConfig", "EmbeddingConfig", "GeneratorConfig",
           "StoreError", "read_header", "FORMAT_VERSION", "GENERATOR_MODES"]

FORMAT_VERSION = 3
GENERATOR_MODES = ("per_channel_linear", "shared_mlp")
VARIANTS = ("baseline", "hyper", "baked")
Size = Annotated[int, 1]

_KINDS = {int: numbers.Integral, float: numbers.Real, list: (list, tuple)}  # `to_json` gives tuples
_KIND_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "true or false",
               list: "a list", dict: "an object"}


class StoreError(ValueError):
    """An array missing from a model's store, foreign to it, or mis-shaped."""

    def __init__(self, name: str, problem: str):
        super().__init__(f"array '{name}' {problem}")
        self.name, self.problem = name, problem


def _show(value) -> str:
    return json.dumps(value, default=str)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


@cache  # evaluating a class's hints takes about 0.1 ms
def _fields(cls) -> list[tuple[str, object, bool]]:
    """(name, hint, required) of each field of dataclass `cls`."""
    hints = get_type_hints(cls, include_extras=True)
    return [(f.name, hints[f.name], f.default is MISSING) for f in fields(cls)]


def read(hint, value, path: str = "", nullable: bool = False):
    """`value`, parsed JSON at `path`, read as `hint`; `nullable` says in an
    error that null would do too. Lists come back as tuples, numbers as floats."""
    least = None
    if get_origin(hint) is Annotated:
        hint, least = get_args(hint)
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, types.UnionType):  # X | None
        return None if value is None else read(args[0], value, path, True)
    record = is_dataclass(hint)
    kind = list if origin is tuple else dict if origin is dict or record else hint
    if origin is Literal:
        fits = any(type(value) is type(a) and value == a for a in args)
    else:
        fits = (isinstance(value, bool) == (kind is bool)
                and isinstance(value, _KINDS.get(kind, kind)))
    if not fits:
        wanted = f"one of {', '.join(map(_show, args))}" if origin is Literal else _KIND_NAMES[kind]
        raise ValueError(f"{path or 'the JSON value'} must be {wanted}{' or null' * nullable}, "
                         f"got {_show(value)}")
    if origin is tuple:
        value = tuple(read(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    elif origin is dict:
        value = {key: read(args[1], v, _join(path, key)) for key, v in value.items()}
    elif record:
        value = _read_fields(hint, value, path)
    elif hint in (int, float):
        value = hint(value)
    if least is not None and (len(value) if origin else value) < least:
        raise ValueError(f"{path} must {'have length' if origin else 'be'} >= {least}, "
                         f"got {_show(value)}")
    return value


def _read_fields(cls, data: dict, path: str):
    values = {}
    for name, hint, required in _fields(cls):
        if name in data:
            values[name] = read(hint, data[name], _join(path, name))
        elif required:
            raise ValueError(f"missing key '{_join(path, name)}'")
    if unknown := [key for key in data if key not in values]:
        raise ValueError(f"unknown key '{_join(path, unknown[0])}'")
    return cls(**values)


@dataclass(frozen=True)
class BackboneConfig:
    """A backbone's `config()`: a dlinear one has an odd decomposition `kernel`
    of at most `lookback`, an mlp one its trunk's `hidden_widths`."""

    kind: Literal["dlinear", "mlp"]
    lookback: Size
    kernel: Size = None
    hidden_widths: Annotated[tuple[Size, ...], 1] = None

    def __post_init__(self):
        for key, kind in (("kernel", "dlinear"), ("hidden_widths", "mlp")):
            if (wanted := self.kind == kind) != (getattr(self, key) is not None):
                raise ValueError(f"{'missing' if wanted else 'unknown'} key 'backbone.{key}' "
                                 f"for backbone.kind {_show(self.kind)}")
        if self.kernel is not None and (self.kernel % 2 == 0 or self.kernel > self.lookback):
            raise ValueError(f"backbone.kernel must be odd and at most backbone.lookback "
                             f"{self.lookback}, got {self.kernel}")


@dataclass(frozen=True)
class EmbeddingConfig:
    dim: Size
    learnable: bool


@dataclass(frozen=True)
class GeneratorConfig:
    """The generator of every slot: its mode and, for shared_mlp, hidden widths."""

    mode: Literal[GENERATOR_MODES]
    hidden: tuple[Size, ...]

    def __post_init__(self):
        if self.mode == "per_channel_linear" and self.hidden:
            raise ValueError(f"generator.hidden must be [] for per_channel_linear, "
                             f"got {_show(self.hidden)}")


@dataclass(frozen=True)
class ModelConfig:
    """What decides a model's arrays and forecasts; N is the count of the
    distinct `channel_names`, and a hyper model alone has `embedding` and
    `generator`. Each class here checks its keys against each other when made."""

    variant: Literal[VARIANTS]
    revin: bool
    horizon: Size
    channel_names: Annotated[tuple[str, ...], 1]
    backbone: BackboneConfig
    embedding: EmbeddingConfig = None
    generator: GeneratorConfig = None

    def __post_init__(self):
        for key in ("embedding", "generator"):
            if (self.variant == "hyper") != (getattr(self, key) is not None):
                raise ValueError(f"{'missing' if self.variant == 'hyper' else 'unknown'} key "
                                 f"'{key}' for variant {_show(self.variant)}")
        if len(set(self.channel_names)) != len(self.channel_names):
            raise ValueError(f"channel_names must be distinct, got {_show(self.channel_names)}")

    @classmethod
    def from_json(cls, data, version: int = FORMAT_VERSION, arrays=None) -> "ModelConfig":
        """The tree a format-`version` model config holds; format 1 reads the
        generator's hidden widths from the stored `arrays`."""
        return _from_format_1(dict(read(dict, data)), arrays) if version == 1 else read(cls, data)

    def to_json(self) -> dict:
        """The JSON form, with tuples for lists and no key for an unset field."""
        return asdict(self, dict_factory=lambda items: {k: v for k, v in items if v is not None})


@dataclass(frozen=True)
class _Head:
    """A format-1 `heads` entry: one slot's generator."""

    mode: Literal[GENERATOR_MODES]
    hidden_dim: Size
    n_mlp_layers: Annotated[int, 0]


def _from_format_1(data: dict, arrays) -> "ModelConfig":
    """A format-1 model config as the tree. `n_channels` must count the channel
    names, and every head must agree on the mode and layer count of the one
    generator; its hidden widths are the sizes of the first slot's stored
    biases, so a cut bias is reported as its weight."""
    n = read(Size, data.pop("n_channels", None), "n_channels")
    if data.get("variant") == "hyper":  # other variants keep `heads`, an unknown key to them
        heads = read(Annotated[dict[str, _Head], 1], data.pop("heads", None), "heads")
        (slot, head), *others = heads.items()
        for other, other_head in others:
            for key in ("mode", "n_mlp_layers"):
                if (got := getattr(other_head, key)) != (want := getattr(head, key)):
                    raise ValueError(f"heads.{other}.{key} is {_show(got)}, but heads.{slot}."
                                     f"{key} is {_show(want)}; format 2 has one generator")
        if (head.mode == "shared_mlp") != (head.n_mlp_layers > 0):
            raise ValueError(f"heads.{slot}.n_mlp_layers must be "
                             f"{'>= 1' if head.n_mlp_layers == 0 else '0'} for {head.mode}, "
                             f"got {head.n_mlp_layers}")
        hidden = []
        for i in range(head.n_mlp_layers - 1):
            if (bias := f"head.{slot}.mlp.{i}.b") not in arrays:
                raise StoreError(bias, "is missing")
            hidden.append(arrays[bias].size)
        data["generator"] = {"mode": head.mode, "hidden": hidden}
    cfg = read(ModelConfig, data)
    if n != len(cfg.channel_names):
        raise ValueError(f"n_channels is {n}, but channel_names holds {len(cfg.channel_names)} "
                         f"names")
    return cfg


# the config echo keys `hnmvts eval` reads; the echo's other keys are free-form
_ECHO_KEYS = {"split_ratios": tuple[Annotated[float, 0], ...] | None,
              "truncate_to": Size | None, "timestamp_column": str | None}


def read_header(header, arrays) -> tuple[int, ModelConfig, dict]:
    """A checkpoint header's format version, model config and config echo;
    `arrays` is the file's array store, which format 1 reads widths from."""
    config = dict(read(dict, header, "meta header"))
    version = read(Literal[1, 2, FORMAT_VERSION], config.pop("format_version", None),
                   "format_version")
    echo = read(dict, config.pop("config_echo", {}), "config_echo")
    for key, hint in _ECHO_KEYS.items():
        read(hint, echo.get(key), f"config_echo.{key}")
    return version, ModelConfig.from_json(config, version, arrays), echo
