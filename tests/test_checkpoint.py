import json
from pathlib import Path

import numpy as np
import pytest

from hnmvts.backbones import DLinearBackbone, MlpBackbone
from hnmvts.checkpoint import FORMAT_VERSION, CheckpointError, load_checkpoint, save_checkpoint
from hnmvts.data import SeriesTable
from hnmvts.hypernet import bake, build_baseline, build_hyper
from hnmvts.numcore import Tensor, no_grad
from hnmvts.schema import GENERATOR_MODES

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


def test_single_array_file_rejected(tmp_path):
    path = tmp_path / "m.npz"
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))
    with pytest.raises(CheckpointError, match="missing meta header"):
        load_checkpoint(path)


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


@pytest.mark.parametrize("member, message", [
    ("meta", r"corrupt meta header \(Bad CRC-32 for file 'meta.npy'\)"),
    ("param/final.trend.w", r"array 'param/final.trend.w' is unreadable \(Bad CRC-32"),
], ids=["meta", "param"])
def test_damaged_member_rejected(tmp_path, member, message):
    """A flipped byte in a stored member fails its CRC; the meta header's
    stopped with a zipfile traceback."""
    import zipfile

    path = tmp_path / "m.npz"
    raw = bytearray((FIXTURES / "baseline_dlinear.npz").read_bytes())
    info = zipfile.ZipFile(FIXTURES / "baseline_dlinear.npz").getinfo(f"{member}.npy")
    raw[info.header_offset + 30 + len(info.filename) + len(info.extra) + 100] ^= 0xFF
    path.write_bytes(raw)
    with pytest.raises(CheckpointError, match=rf"^{path}: {message}"):
        load_checkpoint(path)


# the per_channel_linear DLinear fixture as stored (format 1), and the
# shared_mlp MLP one, which the test writes in format 3 before editing it
PCL, SHARED = "hyper_pcl_dlinear", "hyper_shared_mlp"


@pytest.mark.parametrize(
    "fixture, edit, message",
    [
        (PCL, lambda meta: [meta], r"meta header must be an object, got \[\{"),
        (PCL, lambda meta: {**meta, "heads": 5}, "heads must be an object, got 5"),
        (PCL, lambda meta: {**meta, "backbone": {**meta["backbone"], "kernel": "3"}},
         'backbone.kernel must be an integer, got "3"'),
        (PCL, lambda meta: {**meta, "format_version": True},
         "format_version must be one of 1, 2, 3, got true"),
        (PCL, lambda meta: {**meta, "revin": 0}, "revin must be true or false, got 0"),
        (PCL, lambda meta: {**meta, "revin": []}, r"revin must be true or false, got \[\]"),
        (PCL, lambda meta: {**meta, "revin": None}, "revin must be true or false, got null"),
        (PCL, lambda meta: {**meta, "embedding": {**meta["embedding"], "learnable": 1}},
         "embedding.learnable must be true or false, got 1"),
        (PCL, lambda meta: {**meta, "backbone": {**meta["backbone"], "kernel": 2.5}},
         "backbone.kernel must be an integer, got 2.5"),
        (PCL, lambda meta: {**meta, "backbone": {**meta["backbone"], "kernel": 4}},
         "backbone.kernel must be odd and at most backbone.lookback 8, got 4"),
        (PCL, lambda meta: {**meta, "backbone": {**meta["backbone"], "kernel": 10}},
         "backbone.kernel must be odd and at most backbone.lookback 8, got 10"),
        (SHARED, lambda meta: {**meta, "horizon": 4.0}, "horizon must be an integer, got 4.0"),
        (SHARED, lambda meta: {**meta, "backbone": {**meta["backbone"], "lookback": 8.0}},
         "backbone.lookback must be an integer, got 8.0"),
        (SHARED, lambda meta: {**meta, "backbone": {**meta["backbone"], "hidden_widths": [5.5]}},
         r"backbone.hidden_widths\[0\] must be an integer, got 5.5"),
        (SHARED, lambda meta: {**meta, "embedding": {**meta["embedding"], "dim": 2.0}},
         "embedding.dim must be an integer, got 2.0"),
        (SHARED, lambda meta: {**meta, "generator": {**meta["generator"], "hidden": [3.0]}},
         r"generator.hidden\[0\] must be an integer, got 3.0"),
        (SHARED, lambda meta: {**meta, "channel_names": ["a", "a", "c"]},
         r'channel_names must be distinct, got \["a", "a", "c"\]'),
        (SHARED, lambda meta: {**meta, "backbone": []}, r"backbone must be an object, got \[\]"),
        (SHARED, lambda meta: {**meta, "embedding": 5}, "embedding must be an object, got 5"),
        (SHARED, lambda meta: {**meta, "backbone": {**meta["backbone"], "hidden_widths": 5}},
         "backbone.hidden_widths must be a list, got 5"),
        (SHARED, lambda meta: {**meta, "generator": {**meta["generator"], "hidden": 3}},
         "generator.hidden must be a list, got 3"),
        (SHARED, lambda meta: {**meta, "generator": None}, "generator must be an object, got null"),
        (SHARED, lambda meta: {**meta, "config_echo": [1]},
         r"config_echo must be an object, got \[1\]"),
    ],
    ids=["list_header", "int_heads", "string_kernel", "bool_version", "zero_revin",
         "list_revin", "null_revin", "int_learnable", "float_kernel", "even_kernel",
         "long_kernel", "float_horizon",
         "float_lookback", "float_width", "float_dim", "float_generator_width",
         "duplicate_channel_names", "list_backbone", "int_embedding", "int_widths",
         "int_generator_hidden", "null_generator", "list_config_echo"],
)
def test_wrong_typed_header_rejected(tmp_path, fixture, edit, message):
    path, source = tmp_path / "m.npz", FIXTURES / f"{fixture}.npz"
    if fixture == SHARED:
        save_checkpoint(load_checkpoint(source)[0], path)
        source = path
    bundle = dict(np.load(source, allow_pickle=False))
    meta = edit(json.loads(bytes(bundle.pop("meta")).decode()))
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **bundle)
    with pytest.raises(CheckpointError, match=message) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("variant, mode", [("baseline", None)] + [
    (variant, mode) for variant in ("hyper", "baked") for mode in GENERATOR_MODES])
@pytest.mark.parametrize("backbone_kind", ["dlinear", "mlp"])
def test_format_2_roundtrip_bit_exact(tmp_path, rng, backbone_kind, variant, mode):
    """Every backbone x variant x generator mode is written in the current
    format (the format-2 header plus, since format 3, d-major `w_phi`) and
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
    bundle = np.load(path)
    meta = json.loads(bytes(bundle["meta"]).decode())
    assert meta["format_version"] == FORMAT_VERSION == 3
    for key in bundle.files:
        if key.endswith(".w_phi"):  # stored d-major, (N, d, H, D)
            assert bundle[key].shape[:3] == (3, 3, 4), key
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


FIXTURE_FORMATS = {"baseline_dlinear": 1, "hyper_pcl_dlinear": 1, "hyper_shared_mlp": 1,
                   "baked_mlp": 1, "hyper_pcl_dlinear_format2": 2}


def test_fixtures_keep_their_format():
    """The fixtures pin how the older formats read; each keeps the format it
    was written in and is never rewritten in a newer one."""
    assert sorted(p.stem for p in FIXTURES.glob("*.npz")) == sorted(FIXTURE_FORMATS)
    for name, version in FIXTURE_FORMATS.items():
        meta = json.loads(bytes(np.load(FIXTURES / f"{name}.npz")["meta"]).decode())
        assert meta["format_version"] == version, name


def fixture_copy(tmp_path, name, edit):
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
            mode="shared_mlp"), 'heads.seasonal.mode is "shared_mlp", but heads.trend.mode is '
                                '"per_channel_linear"; format 2 has one generator'),
        ("hyper_pcl_dlinear", lambda meta, arrays: meta["heads"]["seasonal"].update(
            n_mlp_layers="x"), 'heads.seasonal.n_mlp_layers must be an integer, got "x"'),
        ("hyper_pcl_dlinear", lambda meta, arrays: meta["heads"]["seasonal"].update(
            n_mlp_layers=None), "heads.seasonal.n_mlp_layers must be an integer, got null"),
        ("hyper_pcl_dlinear", lambda meta, arrays: meta["heads"]["seasonal"].update(
            n_mlp_layers=-1), "heads.seasonal.n_mlp_layers must be >= 0, got -1"),
        ("hyper_pcl_dlinear", lambda meta, arrays: meta["heads"]["seasonal"].update(
            n_mlp_layers=1), "heads.seasonal.n_mlp_layers is 1, but heads.trend.n_mlp_layers "
                             "is 0; format 2 has one generator"),
        ("hyper_pcl_dlinear", lambda meta, arrays: meta["heads"]["trend"].update(mode=None),
         'heads.trend.mode must be one of "per_channel_linear", "shared_mlp", got null'),
        ("hyper_pcl_dlinear", lambda meta, arrays: [head.update(n_mlp_layers=2)
                                                    for head in meta["heads"].values()],
         "heads.trend.n_mlp_layers must be 0 for per_channel_linear, got 2"),
        ("hyper_shared_mlp", lambda meta, arrays: meta["heads"]["out"].update(n_mlp_layers=0),
         "heads.out.n_mlp_layers must be >= 1 for shared_mlp, got 0"),
        ("hyper_shared_mlp", lambda meta, arrays: arrays.pop("param/head.out.mlp.0.b"),
         "array 'param/head.out.mlp.0.b' is missing"),
        # format 1 reads a hidden width from its bias, so a cut bias is
        # reported as its layer's weight
        ("hyper_shared_mlp", cut("param/head.out.mlp.0.b"),
         r"array 'param/head.out.mlp.0.w' has shape \(2, 3\), expected \(2, 2\)"),
    ],
    ids=["names_short", "count_long", "mixed_modes", "str_layers", "null_layers",
         "negative_layers", "mixed_layers", "null_mode", "pcl_layers", "shared_no_layers",
         "missing_bias", "cut_bias"],
)
def test_format_1_header_checked(tmp_path, name, edit, message):
    path = fixture_copy(tmp_path, name, edit)
    with pytest.raises(CheckpointError, match=message) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


# what the mutation test puts in place of each header value in turn
MUTANTS = [None, "x", 1.5, True, [], {}, -1, 0]


def mutants(value, path=""):
    """(path, copy of `value` with the node at `path` replaced by a MUTANT) for
    every node below `value`'s root, named as the reader names it:
    `backbone.kernel`, `channel_names[0]`."""
    if isinstance(value, dict):
        keys, name = list(value), lambda key: f"{path}.{key}" if path else key
    elif isinstance(value, list):
        keys, name = range(len(value)), lambda i: f"{path}[{i}]"
    else:
        return
    for key in keys:
        for new in MUTANTS:
            edited = value.copy()
            edited[key] = new
            yield name(key), edited
        for node, child in mutants(value[key], name(key)):
            edited = value.copy()
            edited[key] = child
            yield node, edited


@pytest.mark.parametrize("resave", [False, True], ids=["as_stored", "format_3"])
@pytest.mark.parametrize("name", sorted(FIXTURE_FORMATS))
def test_every_header_value_loads_or_is_named(tmp_path, name, resave):
    """Each value of a fixture's header, or of its format-3 re-save, replaced
    in turn by each of MUTANTS: the copy loads, or a CheckpointError names the
    path of the value replaced."""
    source = FIXTURES / f"{name}.npz"
    if resave:
        model, echo = load_checkpoint(source)
        source = tmp_path / "resaved.npz"
        save_checkpoint(model, source, config_echo=echo)
    bundle = dict(np.load(source, allow_pickle=False))
    header = json.loads(bytes(bundle.pop("meta")).decode())
    path, unnamed, cases = tmp_path / "m.npz", [], 0
    for node, meta in mutants(header):
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **bundle)
        cases += 1
        try:
            load_checkpoint(path)
        except CheckpointError as err:
            if node not in str(err):
                unnamed.append(f"{node} -> {err}")
    assert cases >= 8 * 11 and not unnamed, "\n".join(unnamed)


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


def test_format_2_fixture_forecasts_bit_identical():
    """A format-2 file, written by the version before format 3, loads and
    forecasts bit for bit. It stores each `w_phi` d-last, (N, H, D, d); the
    model holds the same values d-major, (N, d, H, D). The fixture is a
    per_channel_linear DLinear model (3 channels, lookback 8, horizon 4,
    kernel 3, d = 2) trained for 3 epochs; its `.forecast.npy` is its
    forecast for `input.npy`."""
    path = FIXTURES / "hyper_pcl_dlinear_format2.npz"
    model, echo = load_checkpoint(path)
    assert model.variant == "hyper" and echo == {"lookback": 8}
    stored = np.load(path)
    for slot in ("trend", "seasonal"):
        w_phi = model.all_arrays()[f"head.{slot}.w_phi"].data
        assert w_phi.shape == (3, 2, 4, 8)
        assert np.array_equal(w_phi, np.moveaxis(stored[f"param/head.{slot}.w_phi"], -1, 1))
    with no_grad():
        pred = model.forward(Tensor(np.load(FIXTURES / "input.npy"))).data
    np.testing.assert_array_equal(pred, np.load(FIXTURES / "hyper_pcl_dlinear_format2.forecast.npy"))


@pytest.mark.parametrize("name, edit, message", [
    ("hyper_pcl_dlinear", cut("param/head.seasonal.w_phi"),
     r"has shape \(3, 4, 8, 1\), expected \(3, 4, 8, 2\)"),
    ("hyper_pcl_dlinear_format2",
     lambda meta, arrays: arrays.update({"param/head.seasonal.w_phi":
                                         arrays["param/head.seasonal.w_phi"][:, 1:]}),
     r"has shape \(3, 3, 8, 2\), expected \(3, 4, 8, 2\)"),
], ids=["format_1", "format_2"])
def test_old_format_misshaped_w_phi_named_in_file_layout(tmp_path, name, edit, message):
    """A mis-shaped `w_phi` in a format-1 or format-2 file is reported with
    the shapes of that file's own d-last layout, (N, H, D, d)."""
    path = fixture_copy(tmp_path, name, edit)
    with pytest.raises(CheckpointError, match="array 'param/head.seasonal.w_phi' " + message):
        load_checkpoint(path)
