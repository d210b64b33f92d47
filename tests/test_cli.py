import json

import numpy as np
import pytest

from hnmvts.bench.cli import main


@pytest.fixture
def spec_file(tmp_path):
    text = """\
[data]
source = synthetic
name = toy

[synth]
n_channels = 3
timesteps = 260
groups = 0,0,1
rho = 0.9
sigma = 0.05
seed = 0

[split]
ratios = 0.6,0.2,0.2

[model]
backbone = dlinear
kernel = 3
variant = hn_mvts

[train]
lookback = 8
horizon = 4
batch_size = 16
lr = 0.01
max_epochs = 2
seed = 0

[bench]
horizons = 4
seeds = 0
variants = baseline,hn_mvts

[output]
dir = {out}
"""
    path = tmp_path / "spec.ini"
    path.write_text(text.format(out=tmp_path / "runs"))
    return path


def test_print_config(capsys):
    assert main(["--print-config"]) == 0
    out = capsys.readouterr().out
    assert "[train]" in out and "batch_size = 64" in out


def test_no_command_shows_help(capsys):
    assert main([]) == 2


def test_train_bake_eval_export_roundtrip(tmp_path, spec_file, capsys):
    assert main(["train", "--config", str(spec_file)]) == 0
    out = capsys.readouterr().out
    ckpt = next((tmp_path / "runs").glob("*.npz"))
    assert str(ckpt) in out
    history = next((tmp_path / "runs").glob("*_history.csv"))
    header = history.read_text().splitlines()[0]
    assert header == "epoch,train_loss,val_mse,seconds"

    baked = tmp_path / "baked.npz"
    assert main(["bake", "--checkpoint", str(ckpt), "--out", str(baked)]) == 0
    assert baked.exists()

    # data CSV for eval: emit the same synthetic table
    data_csv = tmp_path / "toy.csv"
    assert main(["synth", "--spec", str(spec_file), "--out", str(data_csv)]) == 0
    capsys.readouterr()
    assert main([
        "eval", "--checkpoint", str(baked), "--data", str(data_csv), "--split", "test",
    ]) == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert metrics["split"] == "test"
    assert metrics["mse"] >= 0 and metrics["mae"] >= 0

    emb = tmp_path / "emb.csv"
    assert main(["export-embeddings", "--checkpoint", str(ckpt), "--out", str(emb)]) == 0
    lines = emb.read_text().strip().splitlines()
    assert lines[0].startswith("channel,z0")
    assert len(lines) == 4


def test_eval_baked_matches_hyper(tmp_path, spec_file, capsys):
    main(["train", "--config", str(spec_file)])
    capsys.readouterr()
    ckpt = next((tmp_path / "runs").glob("toy_*.npz"))
    baked = tmp_path / "baked.npz"
    main(["bake", "--checkpoint", str(ckpt), "--out", str(baked)])
    data_csv = tmp_path / "toy.csv"
    main(["synth", "--spec", str(spec_file), "--out", str(data_csv)])
    capsys.readouterr()
    main(["eval", "--checkpoint", str(ckpt), "--data", str(data_csv)])
    hyper_metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    main(["eval", "--checkpoint", str(baked), "--data", str(data_csv)])
    baked_metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert hyper_metrics["mse"] == pytest.approx(baked_metrics["mse"], abs=1e-10)


def test_bench_writes_results_and_summaries(tmp_path, spec_file, capsys):
    assert main(["bench", "--spec", str(spec_file)]) == 0
    out_dir = tmp_path / "runs"
    results = out_dir / "toy_dlinear_results.jsonl"
    assert results.exists()
    lines = [json.loads(l) for l in results.read_text().strip().splitlines()]
    assert len(lines) == 2
    assert (out_dir / "toy_dlinear_summary.txt").exists()
    assert (out_dir / "toy_dlinear_summary.csv").exists()
    stdout = capsys.readouterr().out
    assert "baseline MSE" in stdout


@pytest.mark.parametrize(
    "good, bad, message",
    [("batch_size = 16", "batch_size = 0", "[train] batch_size must be a positive integer"),
     ("kernel = 3", "kernel = 4", "[model] decomposition kernel must be odd"),
     ("backbone = dlinear", "backbone = mlp\nmlp_widths = 0",
      "[model] mlp_widths: every width must be >= 1")],
    ids=["batch_size", "kernel", "mlp_widths"],
)
def test_bench_refuses_out_of_range_config(tmp_path, spec_file, capsys, good, bad, message):
    spec_file.write_text(spec_file.read_text().replace(good, bad))
    assert main(["bench", "--spec", str(spec_file)]) == 1
    err = capsys.readouterr().err
    assert message in err and str(spec_file) in err
    assert "Traceback" not in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", ["bench", "train"])
def test_embed_dim_over_channel_count_refused(tmp_path, spec_file, capsys, command):
    spec_file.write_text(spec_file.read_text().replace("[model]\n", "[model]\nembed_dim = 99\n"))
    flag = "--spec" if command == "bench" else "--config"
    assert main([command, flag, str(spec_file)]) == 1
    err = capsys.readouterr().err
    assert "[model] embed_dim = 99" in err and "N = 3" in err
    assert "Traceback" not in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", ["bench", "train"])
def test_embed_dim_unchecked_for_baseline_only_run(tmp_path, spec_file, capsys, command):
    """A baseline never reads embed_dim, so an out-of-range value does not stop it."""
    text = spec_file.read_text().replace("[model]\n", "[model]\nembed_dim = 99\n")
    text = text.replace("variant = hn_mvts", "variant = baseline")
    spec_file.write_text(text.replace("variants = baseline,hn_mvts", "variants = baseline"))
    flag = "--spec" if command == "bench" else "--config"
    assert main([command, flag, str(spec_file)]) == 0
    assert "[failed]" not in capsys.readouterr().out


def test_synth_csv_loads_back(tmp_path, spec_file, capsys):
    data_csv = tmp_path / "toy.csv"
    main(["synth", "--spec", str(spec_file), "--out", str(data_csv)])
    from hnmvts.data import load_csv

    table = load_csv(data_csv)
    assert table.t == 260 and table.n_channels == 3
    from hnmvts.bench.config import load_config
    from hnmvts.bench.runner import load_table

    direct = load_table(load_config(spec_file))
    np.testing.assert_allclose(table.values.data, direct.values.data, atol=0)


def test_out_dir_env_override(tmp_path, spec_file, monkeypatch, capsys):
    env_dir = tmp_path / "elsewhere"
    monkeypatch.setenv("HNMVTS_OUT_DIR", str(env_dir))
    assert main(["train", "--config", str(spec_file)]) == 0
    assert list(env_dir.glob("*.npz"))


def test_missing_config_is_clean_error(capsys):
    assert main(["train", "--config", "/nonexistent.ini"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bake_missing_array_is_clean_error(tmp_path, capsys):
    from hnmvts.backbones import DLinearBackbone
    from hnmvts.checkpoint import save_checkpoint
    from hnmvts.data import SeriesTable
    from hnmvts.hypernet import build_hyper
    from hnmvts.numcore import Tensor, make_rng

    rng = make_rng(0)
    table = SeriesTable(Tensor(rng.standard_normal((64, 3))), ["a", "b", "c"])
    ckpt = tmp_path / "hyper.npz"
    save_checkpoint(build_hyper(DLinearBackbone(8, 3), table, 4, rng), ckpt)
    bundle = dict(np.load(ckpt, allow_pickle=False))
    del bundle["param/embed.z"]
    with open(ckpt, "wb") as fh:
        np.savez(fh, **bundle)
    assert main(["bake", "--checkpoint", str(ckpt), "--out", str(tmp_path / "b.npz")]) == 1
    err = capsys.readouterr().err
    assert "embed.z" in err and str(ckpt) in err
    assert "Traceback" not in err


def test_bake_misshaped_array_is_clean_error(tmp_path, capsys):
    from pathlib import Path

    bundle = dict(np.load(Path(__file__).parent / "data" / "hyper_pcl_dlinear.npz"))
    bundle["param/head.seasonal.w_phi"] = bundle["param/head.seasonal.w_phi"][..., :-1]
    ckpt = tmp_path / "hyper.npz"
    with open(ckpt, "wb") as fh:
        np.savez(fh, **bundle)
    assert main(["bake", "--checkpoint", str(ckpt), "--out", str(tmp_path / "b.npz")]) == 1
    err = capsys.readouterr().err
    assert "param/head.seasonal.w_phi' has shape (3, 4, 8, 1), expected (3, 4, 8, 2)" in err
    assert str(ckpt) in err
    assert "Traceback" not in err
    assert not (tmp_path / "b.npz").exists()


@pytest.mark.parametrize(
    "name, content, message",
    [
        ("folder", None, "cannot read: Is a directory"),
        ("latin1.csv", "date,temp °C\n1,2\n2,3\n".encode("latin-1"), "not UTF-8 text at byte 10"),
        ("twice.csv", b"date,a,b, a\n1,2,3,4\n2,3,4,5\n", "duplicate channel name 'a'"),
        pytest.param("long.csv", b"date,a,b,c\n1,2,3,4\n2,3,4," + b"5" * 131_074 + b"\n",
                     "row 3: field larger than field limit (131072)", id="long_cell"),
    ],
)
def test_eval_unreadable_data_is_clean_error(tmp_path, capsys, name, content, message):
    from pathlib import Path

    data = tmp_path / name
    if content is None:
        data.mkdir()
    else:
        data.write_bytes(content)
    ckpt = Path(__file__).parent / "data" / "hyper_pcl_dlinear.npz"
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert f"error: {data}: {message}" in err
    assert "Traceback" not in err
