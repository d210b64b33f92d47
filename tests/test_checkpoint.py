import json

import numpy as np
import pytest

from hnmvts.backbones import DLinearBackbone, MlpBackbone
from hnmvts.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from hnmvts.data import SeriesTable
from hnmvts.hypernet import bake, build_baseline, build_hyper
from hnmvts.numcore import Tensor


def toy_table(rng, t=64, n=3):
    return SeriesTable(Tensor(rng.standard_normal((t, n))), [f"c{i}" for i in range(n)])


@pytest.mark.parametrize("variant", ["baseline", "hyper", "baked"])
@pytest.mark.parametrize("backbone_kind", ["dlinear", "mlp"])
def test_roundtrip_bit_exact(tmp_path, rng, variant, backbone_kind):
    table = toy_table(rng)
    if backbone_kind == "dlinear":
        bb = DLinearBackbone(8, 3)
    else:
        bb = MlpBackbone(8, (6,), rng=rng)
    if variant == "baseline":
        model = build_baseline(bb, 3, 4, rng)
    else:
        model = build_hyper(bb, table, 4, rng, mode="per_channel_linear")
        if variant == "baked":
            model = bake(model)
    path = tmp_path / "model.npz"
    save_checkpoint(model, path, config_echo={"note": "test"})
    loaded, echo = load_checkpoint(path)
    assert echo == {"note": "test"}
    assert loaded.variant == model.variant
    assert loaded.channel_names == model.channel_names
    orig = model.all_arrays()
    back = loaded.all_arrays()
    assert sorted(orig) == sorted(back)
    for key in orig:
        assert (orig[key].data == back[key].data).all(), key
    x = Tensor(rng.standard_normal((3, 8)))
    np.testing.assert_array_equal(model.forward(x).data, loaded.forward(x).data)


def test_shared_mlp_head_roundtrip(tmp_path, rng):
    table = toy_table(rng)
    model = build_hyper(
        DLinearBackbone(8, 3), table, 4, rng, mode="shared_mlp", gen_hidden=(5,)
    )
    path = tmp_path / "m.npz"
    save_checkpoint(model, path)
    loaded, _ = load_checkpoint(path)
    x = Tensor(rng.standard_normal((3, 8)))
    np.testing.assert_array_equal(model.forward(x).data, loaded.forward(x).data)


def test_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="no such"):
        load_checkpoint(tmp_path / "missing.npz")


def rewrite(path, edit):
    """Apply `edit` to the checkpoint's (meta dict, arrays dict) in place on disk."""
    bundle = dict(np.load(path, allow_pickle=False))
    meta = json.loads(bytes(bundle.pop("meta")).decode())
    edit(meta, bundle)
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **bundle)


def test_wrong_version_rejected(tmp_path, rng):
    model = build_baseline(DLinearBackbone(8, 3), 2, 2, rng)
    path = tmp_path / "m.npz"
    save_checkpoint(model, path)
    rewrite(path, lambda meta, arrays: meta.update(format_version=99))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "edit, name",
    [
        (lambda meta, arrays: arrays.pop("param/trunk.0.b"), "param/trunk.0.b"),
        (lambda meta, arrays: arrays.pop("param/head.out.w_phi"), "param/head.out.w_phi"),
        (lambda meta, arrays: meta.pop("embedding"), "embedding"),
        (lambda meta, arrays: meta["backbone"].pop("hidden_widths"), "hidden_widths"),
    ],
    ids=["backbone_array", "generator_array", "header_key", "backbone_header_key"],
)
def test_missing_entry_named(tmp_path, rng, edit, name):
    model = build_hyper(MlpBackbone(8, (6,), rng=rng), toy_table(rng), 4, rng)
    path = tmp_path / "m.npz"
    save_checkpoint(model, path)
    rewrite(path, edit)
    with pytest.raises(CheckpointError, match=name) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_corrupt_header_rejected(tmp_path, rng):
    path = tmp_path / "m.npz"
    save_checkpoint(build_baseline(DLinearBackbone(8, 3), 2, 2, rng), path)
    bundle = dict(np.load(path, allow_pickle=False))
    bundle["meta"] = np.frombuffer(b"{not json", dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **bundle)
    with pytest.raises(CheckpointError, match="corrupt meta header"):
        load_checkpoint(path)
