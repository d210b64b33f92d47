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


# lr 1e300 overflows inside the first Adam step; the run then fails on its next loss
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bench_with_no_completed_run_exits_nonzero(tmp_path, spec_file, capsys):
    spec_file.write_text(spec_file.read_text().replace("lr = 0.01", "lr = 1e300"))
    assert main(["bench", "--spec", str(spec_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out.count("[failed]") == 2
    assert captured.err.count("\n") == 1 and "no run of the grid completed" in captured.err
    out_dir = tmp_path / "runs"
    assert "incomplete: 2 failed runs" in (out_dir / "toy_dlinear_summary.txt").read_text()
    assert (out_dir / "toy_dlinear_summary.csv").exists()


# lr 1e300 overflows inside the first Adam step; the run then fails on its next loss
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_diverging_run_is_clean_error(tmp_path, spec_file, capsys):
    spec_file.write_text(spec_file.read_text().replace("lr = 0.01", "lr = 1e300"))
    assert main(["train", "--config", str(spec_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite training aborted (loss)")
    assert "at epoch 0" in err and err.count("\n") == 1
    assert not list((tmp_path / "runs").glob("*.npz"))


def test_bench_bad_results_line_is_clean_error(tmp_path, spec_file, capsys):
    """An existing results file is read before the grid runs; a foreign key in
    it stops the bench with the file and line named, and trains nothing."""
    results = tmp_path / "runs" / "toy_dlinear_results.jsonl"
    results.parent.mkdir()
    line = ('{"dataset": "toy", "backbone": "dlinear", "variant": "baseline", "horizon": 4, '
            '"seed": 0, "mse": 0.5}\n')
    results.write_text(line)
    assert main(["bench", "--spec", str(spec_file)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {results}: line 1: unknown key 'mse'\n"
    assert captured.out == ""
    assert results.read_text() == line


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


@pytest.mark.parametrize("command", ["bench", "train"])
def test_gen_hidden_without_shared_mlp_refused(tmp_path, spec_file, capsys, command):
    """A per_channel_linear generator has no hidden layer to take gen_hidden."""
    spec_file.write_text(spec_file.read_text().replace("[model]\n",
                                                       "[model]\ngen_hidden = 64,32\n"))
    flag = "--spec" if command == "bench" else "--config"
    assert main([command, flag, str(spec_file)]) == 1
    err = capsys.readouterr().err
    assert "[model] gen_hidden" in err and str(spec_file) in err
    assert "Traceback" not in err
    assert not (tmp_path / "runs").exists()


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


def test_train_on_csv_with_seed_flag(tmp_path, spec_file, capsys):
    """`synth` writes a CSV, `train --seed 3` trains on it through the CSV
    source, and `eval --data` prints the MSE an in-process `evaluate` gives."""
    from hnmvts.checkpoint import load_checkpoint
    from hnmvts.data import SplitSpec, chrono_split, load_csv, make_windows
    from hnmvts.trainer import evaluate

    data_csv = tmp_path / "toy.csv"
    assert main(["synth", "--spec", str(spec_file), "--out", str(data_csv)]) == 0
    spec_file.write_text(spec_file.read_text().replace("source = synthetic",
                                                       f"source = {data_csv}"))
    capsys.readouterr()
    assert main(["train", "--config", str(spec_file), "--seed", "3"]) == 0
    ckpt = tmp_path / "runs" / "toy_dlinear_hn_mvts_H4_s3.npz"
    assert f"checkpoint: {ckpt}" in capsys.readouterr().out
    model, echo = load_checkpoint(ckpt)
    assert echo["seed"] == 3 and echo["source"] == str(data_csv)
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data_csv)]) == 0
    printed = json.loads(capsys.readouterr().out)
    test = chrono_split(load_csv(data_csv), SplitSpec((0.6, 0.2, 0.2)))[2]
    assert printed["mse"] == evaluate(model, make_windows(test, 8, 4))["mse"]


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


def test_bake_pcl_hidden_widths_is_clean_error(tmp_path, capsys):
    """A per_channel_linear generator has no hidden layers; a header giving it
    some states a fact the model does not have."""
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
    meta = json.loads(bytes(bundle.pop("meta")).decode())
    meta["generator"]["hidden"] = [3, 9]
    with open(ckpt, "wb") as fh:
        np.savez(fh, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **bundle)
    assert main(["bake", "--checkpoint", str(ckpt), "--out", str(tmp_path / "b.npz")]) == 1
    err = capsys.readouterr().err
    assert f"error: {ckpt}: generator.hidden must be [] for per_channel_linear" in err
    assert "Traceback" not in err
    assert not (tmp_path / "b.npz").exists()


def test_eval_baked_dlinear_matches_evaluate(tmp_path, capsys):
    """`hnmvts eval` on a baked (folded) DLinear prints the MSE an in-process
    `evaluate` gives, and the hyper model's MSE to 1e-12."""
    from pathlib import Path

    from hnmvts.checkpoint import load_checkpoint
    from hnmvts.data import SplitSpec, chrono_split, load_csv, make_windows
    from hnmvts.trainer import evaluate

    hyper = Path(__file__).parent / "data" / "hyper_pcl_dlinear.npz"
    baked = tmp_path / "baked.npz"
    assert main(["bake", "--checkpoint", str(hyper), "--out", str(baked)]) == 0
    data = tmp_path / "abc.csv"
    rows = np.random.default_rng(0).standard_normal((200, 3)) * 3.0 + 1.0
    data.write_text("a,b,c\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows.tolist()))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(baked), "--data", str(data)]) == 0
    printed = json.loads(capsys.readouterr().out)
    test = chrono_split(load_csv(data), SplitSpec())[2]
    windows = make_windows(test, 8, 4)
    assert printed["mse"] == evaluate(load_checkpoint(baked)[0], windows)["mse"]
    assert printed["mse"] == pytest.approx(
        evaluate(load_checkpoint(hyper)[0], windows)["mse"], rel=1e-12)


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


def fixture_copy(tmp_path, name, edit):
    """A copy of checkpoint fixture `name` with `edit` applied to its header."""
    from pathlib import Path

    bundle = dict(np.load(Path(__file__).parent / "data" / f"{name}.npz"))
    meta = json.loads(bytes(bundle.pop("meta")).decode())
    edit(meta)
    path = tmp_path / f"{name}.npz"
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **bundle)
    return path


def test_eval_takes_lookback_from_the_model(tmp_path, capsys):
    """The config echo's lookback is a record of the run, not a second source."""
    data = tmp_path / "abc.csv"
    rows = np.random.default_rng(0).standard_normal((200, 3))
    data.write_text("a,b,c\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows.tolist()))
    outputs = []
    for lookback in (8, 5):
        ckpt = fixture_copy(tmp_path, "hyper_pcl_dlinear",
                            lambda meta: meta["config_echo"].update(lookback=lookback))
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    assert outputs[0] == outputs[1]


def test_export_embeddings_channel_count_mismatch_is_clean_error(tmp_path, capsys):
    ckpt = fixture_copy(tmp_path, "hyper_pcl_dlinear",
                        lambda meta: meta.update(channel_names=["a", "b"]))
    out = tmp_path / "emb.csv"
    assert main(["export-embeddings", "--checkpoint", str(ckpt), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {ckpt}: n_channels is 3, but channel_names holds 2 names" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_bake_format_1_writes_format_3(tmp_path, capsys):
    """Baking a format-1 hyper file gives a format-3 file that reloads bit-exact
    and forecasts like the baked format-1 fixture."""
    from pathlib import Path

    from hnmvts.checkpoint import FORMAT_VERSION, load_checkpoint
    from hnmvts.hypernet import bake
    from hnmvts.numcore import Tensor, no_grad

    data = Path(__file__).parent / "data"
    out = tmp_path / "baked.npz"
    assert main(["bake", "--checkpoint", str(data / "hyper_shared_mlp.npz"),
                 "--out", str(out)]) == 0
    meta = json.loads(bytes(np.load(out)["meta"]).decode())
    assert meta["format_version"] == FORMAT_VERSION == 3 and meta["variant"] == "baked"
    assert meta["config_echo"] == {"lookback": 8}
    loaded, _ = load_checkpoint(out)
    expected = bake(load_checkpoint(data / "hyper_shared_mlp.npz")[0]).all_arrays()
    assert list(loaded.all_arrays()) == list(expected)
    for name, t in loaded.all_arrays().items():
        assert t.data.tobytes() == expected[name].data.tobytes(), name
    with no_grad():
        pred = loaded.forward(Tensor(np.load(data / "input.npy"))).data
    assert pred.tobytes() == np.load(data / "baked_mlp.forecast.npy").tobytes()
