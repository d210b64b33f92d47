"""Versioned model checkpoints: one .npz with a JSON header plus raw arrays.

The header is `ForecastModel.config()` in its JSON form plus the format
version and a config echo, read by `schema.read_header`. Arrays are stored
bit-exact in their native float width, each named `param/` plus its store
name, but a load returns them in the process dtype (`numcore`'s default):
the header does not record the dtype. Loading checks every array against
the names and shapes the header decides. Format 3 is written; formats 1 and
2 are read too, with each `w_phi` stored d-last, (N, H, D, d), not (N, d, H, D).
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

from .backbones import from_config
from .hypernet import ForecastModel
from .numcore import Tensor
from .schema import FORMAT_VERSION, ModelConfig, StoreError, read_header

__all__ = ["save_checkpoint", "load_checkpoint", "CheckpointError", "FORMAT_VERSION"]


class CheckpointError(ValueError):
    """Unreadable or structurally invalid checkpoint file."""


_READ_ERRORS = (ValueError, OSError, NotImplementedError, zipfile.BadZipFile)  # damaged member


def save_checkpoint(model: ForecastModel, path: str | Path, config_echo: dict | None = None) -> None:
    meta = {"format_version": FORMAT_VERSION, **model.config().to_json(),
            "config_echo": config_echo or {}}
    arrays = {f"param/{name}": t.data for name, t in model.all_arrays().items()}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        np.savez(fh, meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
                 **arrays)


def load_checkpoint(path: str | Path) -> tuple[ForecastModel, dict]:
    """Rebuild a model from disk; returns (model, config echo)."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"no such checkpoint: {path}")
    try:
        bundle = np.load(path, allow_pickle=False)
    except Exception as err:
        raise CheckpointError(f"{path}: unreadable ({err})") from err
    if not isinstance(bundle, np.lib.npyio.NpzFile):  # a single .npy array
        raise CheckpointError(f"{path}: missing meta header")
    with bundle:
        if "meta" not in bundle:
            raise CheckpointError(f"{path}: missing meta header")
        try:
            meta = json.loads(bytes(bundle["meta"]).decode("utf-8"))
        except _READ_ERRORS as err:
            raise CheckpointError(f"{path}: corrupt meta header ({err})") from None
        arrays = {key[len("param/") :]: _read_array(path, bundle, key)
                  for key in bundle.files if key.startswith("param/")}
    try:
        version, cfg, echo = read_header(meta, arrays)
        if version < FORMAT_VERSION:
            _from_d_last(cfg, arrays)
        model = ForecastModel(cfg, arrays)
    except StoreError as err:
        raise CheckpointError(f"{path}: array 'param/{err.name}' {err.problem}") from None
    except ValueError as err:
        raise CheckpointError(f"{path}: {err}") from err
    return model, echo


def _read_array(path: Path, bundle, key: str) -> Tensor:
    """The stored array `key` in the process dtype; only a real floating one is read."""
    try:
        a = bundle[key]
    except _READ_ERRORS as err:
        raise CheckpointError(f"{path}: array '{key}' is unreadable ({err})") from None
    if a.dtype.kind != "f":
        raise CheckpointError(f"{path}: array '{key}' has dtype {a.dtype}, expected a real "
                              "floating-point one")
    return Tensor(a)


def _from_d_last(cfg: ModelConfig, arrays: dict[str, Tensor]) -> None:
    """Move each stored (N, H, D, d) `w_phi` of a format-1 or format-2 file to
    (N, d, H, D) in place, after checking its shape in the file's own layout."""
    if cfg.variant != "hyper" or cfg.generator.mode != "per_channel_linear":
        return
    n, d, horizon = len(cfg.channel_names), cfg.embedding.dim, cfg.horizon
    for slot, dim in from_config(cfg.backbone, arrays).slots:
        name = f"head.{slot}.w_phi"
        if name not in arrays:
            continue  # reported as missing when the model is built
        if (shape := arrays[name].shape) != (expected := (n, horizon, dim, d)):
            raise StoreError(name, f"has shape {shape}, expected {expected}")
        arrays[name] = Tensor(np.moveaxis(arrays[name].data, -1, 1))
