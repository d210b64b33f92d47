"""Frozen training runs: every trainable and the loss history after a 2-epoch `train`.

Each file in `tests/data/steps` holds one model form's run, in float64 or
float32: its trainables as `param/<name>` and a JSON `history` of the
`repr`s of `train_loss` and `val_mse`. The test reruns the form and compares
every array and every repr byte for byte, so any change to the forward, the
gradients or the Adam update that moves a bit shows here.

The shapes are the checkpoint fixtures' (3 channels, lookback 8, horizon 4,
DLinear kernel 3, d = 2), with a two-layer MLP trunk (6, 5) so that a
gradient passes between trunk layers. The DLinear forms and the MLP's
`shared_mlp` model learn their embeddings; the MLP's `per_channel_linear`
model keeps them frozen.

Run this file as a script to rewrite the files from the current code:

    PYTHONPATH=src python tests/test_step_fixtures.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from helpers import make_rng
from hnmvts.backbones import DLinearBackbone, MlpBackbone
from hnmvts.data import SeriesTable, make_windows
from hnmvts.hypernet import build_baseline, build_hyper
from hnmvts.numcore import Tensor, get_default_dtype, set_default_dtype
from hnmvts.trainer import TrainConfig, train

STEPS = Path(__file__).parent / "data" / "steps"
LOOKBACK, HORIZON, CHANNELS = 8, 4, 3

# form -> (backbone, generator mode or None for a baseline, generator hidden, learnable z)
FORMS = {
    "dlinear_baseline": ("dlinear", None, (), True),
    "dlinear_pcl": ("dlinear", "per_channel_linear", (), True),
    "dlinear_shared": ("dlinear", "shared_mlp", (), True),
    "dlinear_shared_h3": ("dlinear", "shared_mlp", (3,), True),
    "mlp_baseline": ("mlp", None, (), True),
    "mlp_shared_h3": ("mlp", "shared_mlp", (3,), True),
    "mlp_pcl": ("mlp", "per_channel_linear", (), False),
}
DTYPES = ("float64", "float32")


def run(form: str) -> tuple[dict[str, np.ndarray], dict[str, list[str]]]:
    """Train `form` in the package's current dtype: its trainables and its history's reprs."""
    kind, mode, gen_hidden, learnable = FORMS[form]
    rng = make_rng(37)
    table = SeriesTable(Tensor(rng.standard_normal((110, CHANNELS)).cumsum(axis=0)),
                        ["a", "b", "c"])
    windows = make_windows(table, LOOKBACK, HORIZON)
    if kind == "dlinear":
        bb = DLinearBackbone(LOOKBACK, kernel=3)
    else:
        bb = MlpBackbone(LOOKBACK, (6, 5), rng=rng)
    if mode is None:
        model = build_baseline(bb, CHANNELS, HORIZON, rng)
    else:
        model = build_hyper(bb, table, HORIZON, rng, d=2, mode=mode, gen_hidden=gen_hidden,
                            learnable_z=learnable)
    # 75 training windows: four batches of 16 and a short one of 11
    cfg = TrainConfig(lookback=LOOKBACK, horizon=HORIZON, batch_size=16, lr=1e-2,
                      max_epochs=2, seed=3)
    model, history = train(model, windows[:75], windows[75:], cfg)
    params = {name: t.data.copy() for name, t in model.parameters().items()}
    reprs = {"train_loss": [repr(v) for v in history.train_loss],
             "val_mse": [repr(v) for v in history.val_mse]}
    return params, reprs


def path_of(form: str, dtype: str) -> Path:
    return STEPS / f"{form}.{dtype}.npz"


def write(form: str, dtype: str) -> None:
    params, reprs = run(form)
    history = np.frombuffer(json.dumps(reprs).encode(), dtype=np.uint8)
    with open(path_of(form, dtype), "wb") as fh:
        np.savez(fh, history=history, **{f"param/{k}": v for k, v in params.items()})


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("form", sorted(FORMS))
def test_training_run_bit_identical_to_frozen(form, dtype, request):
    if dtype == "float32":
        request.getfixturevalue("float32_mode")
    params, reprs = run(form)
    with np.load(path_of(form, dtype), allow_pickle=False) as stored:
        assert json.loads(bytes(stored["history"]).decode()) == reprs
        names = sorted(k[len("param/"):] for k in stored.files if k.startswith("param/"))
        assert names == sorted(params)
        for name, got in params.items():
            want = stored[f"param/{name}"]
            assert got.dtype == want.dtype == np.dtype(dtype), name
            assert got.tobytes() == want.tobytes(), name


def test_every_frozen_run_has_a_form():
    """The directory holds exactly one file per form and dtype."""
    want = sorted(path_of(f, d).name for f in FORMS for d in DTYPES)
    assert sorted(p.name for p in STEPS.glob("*.npz")) == want


if __name__ == "__main__":
    STEPS.mkdir(parents=True, exist_ok=True)
    for dtype in DTYPES:
        set_default_dtype(np.dtype(dtype))
        assert np.dtype(get_default_dtype()) == np.dtype(dtype)
        for form in FORMS:
            write(form, dtype)
    set_default_dtype(np.float64)
