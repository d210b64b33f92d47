import json
from pathlib import Path

import numpy as np
import pytest

from hnmvts.backbones import DLinearBackbone, MlpBackbone
from hnmvts.checkpoint import FORMAT_VERSION, CheckpointError, load_checkpoint, save_checkpoint
from hnmvts.data import SeriesTable
from hnmvts.hypernet import GENERATOR_MODES, bake, build_baseline, build_hyper
from hnmvts.numcore import Tensor, no_grad

FIXTURES = Path(__file__).parent / "data"


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


def cut(key):
    """An edit dropping the last column of one stored array."""
    return lambda meta, arrays: arrays.update({key: arrays[key][..., :-1]})


@pytest.mark.parametrize(
    "form, edit, name",
    [
        ("hyper", lambda meta, arrays: arrays.pop("param/trunk.0.b"), "param/trunk.0.b"),
        ("hyper", lambda meta, arrays: arrays.pop("param/head.out.w_phi"), "param/head.out.w_phi"),
        ("hyper", lambda meta, arrays: meta.pop("embedding"), "embedding"),
        ("hyper", lambda meta, arrays: meta["backbone"].pop("hidden_widths"), "hidden_widths"),
        ("baked", cut("param/final.out.w"), r"param/final.out.w' has shape \(3, 4, 5\)"),
        ("hyper", cut("param/head.out.w_phi"), "param/head.out.w_phi' has shape"),
        ("shared", cut("param/head.out.mlp.1.w"), "param/head.out.mlp.1.w' has shape"),
        ("hyper", cut("param/trunk.0.w"), "param/trunk.0.w' has shape"),
        ("hyper", lambda meta, arrays: meta["generator"].update(hidden=[3, 9]),
         r"generator.hidden must be \[\] for per_channel_linear, got \[3, 9\]"),
    ],
    ids=["backbone_array", "generator_array", "header_key", "backbone_header_key",
         "misshaped_final", "misshaped_generator", "misshaped_mlp_generator", "misshaped_trunk",
         "pcl_hidden"],
)
def test_missing_entry_named(tmp_path, rng, form, edit, name):
    model = build_hyper(MlpBackbone(8, (6,), rng=rng), toy_table(rng), 4, rng,
                        mode="shared_mlp" if form == "shared" else "per_channel_linear",
                        gen_hidden=(3,) if form == "shared" else ())
    if form == "baked":
        model = bake(model)
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


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda meta: [meta], "meta header is a JSON list, not an object"),
        (lambda meta: {**meta, "heads": 5}, "malformed meta header"),
        (lambda meta: {**meta, "backbone": {**meta["backbone"], "kernel": "3"}},
         "malformed meta header"),
    ],
    ids=["list_header", "int_heads", "string_kernel"],
)
def test_wrong_typed_header_rejected(tmp_path, edit, message):
    bundle = dict(np.load(FIXTURES / "hyper_pcl_dlinear.npz", allow_pickle=False))
    meta = edit(json.loads(bytes(bundle.pop("meta")).decode()))
    path = tmp_path / "m.npz"
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **bundle)
    with pytest.raises(CheckpointError, match=message) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("variant, mode", [("baseline", None)] + [
    (variant, mode) for variant in ("hyper", "baked") for mode in GENERATOR_MODES])
@pytest.mark.parametrize("backbone_kind", ["dlinear", "mlp"])
def test_format_2_roundtrip_bit_exact(tmp_path, rng, backbone_kind, variant, mode):
    """Every backbone x variant x generator mode is written as format 2 and
    read back with the same bits and the same forecasts."""
    bb = DLinearBackbone(8, 3) if backbone_kind == "dlinear" else MlpBackbone(8, (6,), rng=rng)
    if variant == "baseline":
        model = build_baseline(bb, 3, 4, rng)
    else:
        model = build_hyper(bb, toy_table(rng), 4, rng, mode=mode,
                            gen_hidden=(5, 2) if mode == "shared_mlp" else ())
        model = bake(model) if variant == "baked" else model
    path = tmp_path / "m.npz"
    save_checkpoint(model, path)
    meta = json.loads(bytes(np.load(path)["meta"]).decode())
    assert meta["format_version"] == FORMAT_VERSION == 2
    assert "n_channels" not in meta and "heads" not in meta
    if variant == "hyper":
        hidden = [5, 2] if mode == "shared_mlp" else []
        assert meta["generator"] == {"mode": mode, "hidden": hidden}
    else:
        assert "generator" not in meta
    loaded, _ = load_checkpoint(path)
    assert loaded.config() == model.config()
    before, after = model.all_arrays(), loaded.all_arrays()
    assert list(after) == list(before)
    for key in before:
        assert after[key].data.tobytes() == before[key].data.tobytes(), key
        assert after[key].data.flags.writeable == (variant != "baked" or key[:6] != "final."), key
    x = Tensor(rng.standard_normal((2, 3, 8)))
    with no_grad():
        assert loaded.forward(x).data.tobytes() == model.forward(x).data.tobytes()


def test_fixtures_stay_format_1():
    """The fixtures pin how format 1 reads; they are never rewritten as format 2."""
    paths = sorted(FIXTURES.glob("*.npz"))
    assert len(paths) == 4
    for path in paths:
        assert json.loads(bytes(np.load(path)["meta"]).decode())["format_version"] == 1, path


def format_1_copy(tmp_path, name, edit):
    """A copy of fixture `name` with `edit` applied to its (meta, arrays)."""
    path = tmp_path / f"{name}.npz"
    path.write_bytes((FIXTURES / f"{name}.npz").read_bytes())
    rewrite(path, edit)
    return path


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("hyper_pcl_dlinear", lambda meta, arrays: meta.update(channel_names=["a", "b"]),
         "n_channels is 3, but channel_names holds 2 names"),
        ("baseline_dlinear", lambda meta, arrays: meta.update(n_channels=4),
         "n_channels is 4, but channel_names holds 3 names"),
        ("hyper_pcl_dlinear", lambda meta, arrays: meta["heads"]["seasonal"].update(
            mode="shared_mlp"), r"generator modes \['per_channel_linear', 'shared_mlp'\]"),
        ("hyper_shared_mlp", lambda meta, arrays: arrays.pop("param/head.out.mlp.0.b"),
         "array 'param/head.out.mlp.0.b' is missing"),
        # format 1 reads a hidden width from its bias, so a cut bias is
        # reported as its layer's weight
        ("hyper_shared_mlp", cut("param/head.out.mlp.0.b"),
         r"array 'param/head.out.mlp.0.w' has shape \(2, 3\), expected \(2, 2\)"),
    ],
    ids=["names_short", "count_long", "mixed_modes", "missing_bias", "cut_bias"],
)
def test_format_1_header_checked(tmp_path, name, edit, message):
    path = format_1_copy(tmp_path, name, edit)
    with pytest.raises(CheckpointError, match=message) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("name, variant", [
    ("baseline_dlinear", "baseline"),
    ("hyper_pcl_dlinear", "hyper"),
    ("hyper_shared_mlp", "hyper"),
    ("baked_mlp", "baked"),
])
def test_format_1_fixture_forecasts_bit_identical(name, variant):
    """Format-1 files written by an earlier version load and forecast bit for bit.

    The fixtures are tiny models (3 channels, lookback 8, horizon 4):
    DLinear kernel 3 for the baseline and the per_channel_linear hyper model
    (d = 2), an MLP trunk of width 5 with a shared_mlp generator (one hidden
    layer of width 3, frozen embeddings) for the other hyper model, and that
    model baked. Each `.forecast.npy` is its model's forecast for `input.npy`.
    """
    model, echo = load_checkpoint(FIXTURES / f"{name}.npz")
    assert model.variant == variant
    assert echo == {"lookback": 8}
    with no_grad():
        pred = model.forward(Tensor(np.load(FIXTURES / "input.npy"))).data
    np.testing.assert_array_equal(pred, np.load(FIXTURES / f"{name}.forecast.npy"))
