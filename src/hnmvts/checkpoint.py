"""Versioned model checkpoints: one .npz with a JSON header plus raw arrays.

The header is `ForecastModel.config()` plus the format version and a config
echo; arrays are stored bit-exact in their native float width under the
names `ForecastModel.all_arrays` uses, each prefixed with `param/`. Loading
checks every array against the names and shapes the header decides, so a
missing, foreign or mis-shaped array is a CheckpointError naming it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .hypernet import ForecastModel, StoreError

__all__ = ["save_checkpoint", "load_checkpoint", "CheckpointError", "FORMAT_VERSION"]

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Unreadable or structurally invalid checkpoint file."""


def save_checkpoint(model: ForecastModel, path: str | Path, config_echo: dict | None = None) -> None:
    meta = {
        "format_version": FORMAT_VERSION,
        **model.config(),
        "config_echo": config_echo or {},
    }
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
    if "meta" not in bundle:
        raise CheckpointError(f"{path}: missing meta header")
    try:
        meta = json.loads(bytes(bundle["meta"]).decode("utf-8"))
    except ValueError as err:
        raise CheckpointError(f"{path}: corrupt meta header ({err})") from None
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: meta header is a JSON {type(meta).__name__}, not an object")
    if meta.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {meta.get('format_version')} unsupported "
            f"(expected {FORMAT_VERSION})"
        )
    echo = meta.pop("config_echo", {})
    del meta["format_version"]
    arrays = {
        key[len("param/") :]: np.asarray(bundle[key])
        for key in bundle.files
        if key.startswith("param/")
    }
    try:
        model = ForecastModel.from_config(meta, arrays)
    except StoreError as err:
        raise CheckpointError(f"{path}: array 'param/{err.name}' {err.problem}") from None
    except KeyError as err:
        raise CheckpointError(f"{path}: meta header lacks key {err}") from None
    except ValueError as err:
        raise CheckpointError(f"{path}: {err}") from err
    except (TypeError, AttributeError) as err:
        # a header value of the wrong JSON type, met while building the model
        raise CheckpointError(f"{path}: malformed meta header ({err})") from err
    return model, echo
