"""Versioned model checkpoints: one .npz with a JSON header plus raw arrays.

The header is `ForecastModel.config()` plus the format version and a config
echo; arrays are stored bit-exact in their native float width under the
names `ForecastModel.all_arrays` uses, each prefixed with `param/`. Loading
checks every array against the names and shapes the header decides, so a
missing, foreign or mis-shaped array is a CheckpointError naming it.
Format 3 is written; formats 1 and 2 are still read, and only here.
Format 1 also stored `n_channels` and one `heads` entry per slot in place
of the one `generator`; `_from_format_1` turns its header into the
format-2 form. Both store each `w_phi` d-last, (N, H, D, d);
`_from_d_last` checks it in that layout and moves d to axis 1, the
format-3 layout (N, d, H, D).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .backbones import check_type, from_config
from .hypernet import ForecastModel, StoreError
from .numcore import Tensor

__all__ = ["save_checkpoint", "load_checkpoint", "CheckpointError", "FORMAT_VERSION"]

FORMAT_VERSION = 3


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
    if not isinstance(bundle, np.lib.npyio.NpzFile):  # a single .npy array
        raise CheckpointError(f"{path}: missing meta header")
    with bundle:
        if "meta" not in bundle:
            raise CheckpointError(f"{path}: missing meta header")
        try:
            meta = json.loads(bytes(bundle["meta"]).decode("utf-8"))
        except ValueError as err:
            raise CheckpointError(f"{path}: corrupt meta header ({err})") from None
        arrays = {key[len("param/") :]: Tensor(bundle[key])
                  for key in bundle.files if key.startswith("param/")}
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: meta header is a JSON {type(meta).__name__}, not an object")
    version = meta.pop("format_version", None)
    if type(version) is not int or version not in (1, 2, FORMAT_VERSION):  # JSON true == 1
        raise CheckpointError(f"{path}: format_version {json.dumps(version)} is not 1, 2 or "
                              f"{FORMAT_VERSION}")
    echo = meta.pop("config_echo", {})
    try:
        if version == 1:
            meta = _from_format_1(meta, arrays)
        if version < FORMAT_VERSION:
            _from_d_last(meta, arrays)
        model = ForecastModel(meta, arrays)
        check_type("config_echo", echo, dict)
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


def _from_format_1(meta: dict, arrays: dict[str, Tensor]) -> dict:
    """A format-1 header in its format-2 form. The hidden widths are the sizes of
    the first slot's stored biases, so a cut bias is reported as its weight."""
    n, names = meta.pop("n_channels"), meta["channel_names"]
    if n != len(names):
        raise CheckpointError(f"n_channels is {n}, but channel_names holds {len(names)} names")
    if meta["variant"] != "hyper":
        return meta
    (slot, head), *others = meta.pop("heads").items()
    modes = sorted({head["mode"], *(h["mode"] for _, h in others)})
    if len(modes) > 1:
        raise CheckpointError(f"heads name different generator modes {modes}; format 2 has one")
    hidden = []
    for i in range(head["n_mlp_layers"] - 1):
        if (bias := f"head.{slot}.mlp.{i}.b") not in arrays:
            raise StoreError(bias, "is missing")
        hidden.append(arrays[bias].size)
    meta["generator"] = {"mode": head["mode"], "hidden": hidden}
    return meta


def _from_d_last(meta: dict, arrays: dict[str, Tensor]) -> None:
    """Move each stored (N, H, D, d) `w_phi` of a format-1 or format-2 file to
    (N, d, H, D) in place, after checking its shape in the file's own layout."""
    if meta["variant"] != "hyper" or meta["generator"]["mode"] != "per_channel_linear":
        return
    n, d, horizon = len(meta["channel_names"]), meta["embedding"]["dim"], meta["horizon"]
    for slot, dim in from_config(meta["backbone"], arrays).slots:
        name = f"head.{slot}.w_phi"
        if name not in arrays:
            continue  # reported as missing when the model is built
        if (shape := arrays[name].shape) != (expected := (n, horizon, dim, d)):
            raise StoreError(name, f"has shape {shape}, expected {expected}")
        arrays[name] = Tensor(np.moveaxis(arrays[name].data, -1, 1))
