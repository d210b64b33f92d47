import csv
import json
import re

import numpy as np
import pytest

from hnmvts.bench.cli import main
from hnmvts.bench.config import OUT_DIR_ENV, default_config_text, load_config, resolve_out_dir
from hnmvts.bench.runner import (
    ResultRecord,
    SummaryRow,
    load_records,
    run_experiment,
    summarize,
    summary_csv,
    summary_text,
    write_records,
)
from hnmvts.trainer import TrainConfig


def small_cfg(tmp_path, **overrides):
    lines = {
        "data": {"source": "synthetic", "name": "toy"},
        "synth": {
            "n_channels": "3",
            "timesteps": "260",
            "groups": "0,0,1",
            "rho": "0.9",
            "sigma": "0.05",
            "seed": "0",
        },
        "split": {"ratios": "0.6,0.2,0.2"},
        "model": {"backbone": "dlinear", "kernel": "3"},
        "train": {
            "lookback": "8",
            "horizon": "4",
            "batch_size": "16",
            "lr": "0.01",
            "max_epochs": "2",
        },
        "bench": {"horizons": "4", "seeds": "0", "variants": "baseline,hn_mvts"},
        "output": {"dir": str(tmp_path / "runs")},
    }
    for section, kv in overrides.items():
        lines.setdefault(section, {}).update(kv)
    text = "\n".join(
        f"[{sec}]\n" + "\n".join(f"{k} = {v}" for k, v in kv.items())
        for sec, kv in lines.items()
    )
    path = tmp_path / "spec.ini"
    path.write_text(text)
    return path


class TestConfig:
    def test_defaults_parse(self, tmp_path):
        p = tmp_path / "empty.ini"
        p.write_text("[data]\nsource = synthetic\n")
        cfg = load_config(p)
        assert cfg.train.lookback == 336
        assert cfg.horizons == (48, 96, 192, 336)
        assert cfg.seeds == (0, 1, 2, 3, 4)
        assert cfg.train.lr == pytest.approx(1e-4)
        assert cfg.variants == ("baseline", "hn_mvts")

    def test_default_text_is_self_consistent(self, tmp_path):
        p = tmp_path / "full.ini"
        p.write_text(default_config_text())
        cfg = load_config(p)
        assert cfg.train.batch_size == 64 and cfg.revin is True

    def test_empty_file_equals_printed_defaults(self, tmp_path, capsys):
        assert main(["--print-config"]) == 0
        printed = tmp_path / "printed.ini"
        printed.write_text(capsys.readouterr().out)
        empty = tmp_path / "empty.ini"
        empty.write_text("")
        cfg = load_config(empty)
        assert cfg == load_config(printed)
        assert cfg.train == TrainConfig()
        assert cfg.dataset_name == "synthetic"

    @pytest.mark.parametrize(
        "text, name",
        [
            ("[data]\nsource = data/ETTm2.csv\n", "ETTm2"),
            ("[data]\nsource = data/ETTm2.csv\nname =\n", "ETTm2"),
            ("[data]\nsource = data/ETTm2.csv\nname = ettm2_short\n", "ettm2_short"),
            ("[data]\nsource = data/100%.csv\n", "100%"),
        ],
    )
    def test_dataset_name_defaults_to_source_stem(self, tmp_path, text, name):
        p = tmp_path / "cfg.ini"
        p.write_text(text)
        assert load_config(p).dataset_name == name

    def test_bad_variant_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[bench]\nvariants = baseline,nonsense\n")
        with pytest.raises(ValueError, match="nonsense"):
            load_config(p)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[train]\nlearning_rate = 0.5\n", r"unknown key \[train\] learning_rate \(valid: "),
            ("[train]\nmax_epoch = 3\n", r"\[train\] max_epoch \(did you mean 'max_epochs'\?\)"),
            ("[trian]\nlr = 0.5\n", r"unknown section \[trian\] \(did you mean 'train'\?\)"),
            ("[DEFAULT]\nlr = 0.5\n", r"unknown key \[DEFAULT\] lr"),
            ("[model]\ngen_mode = bogus\n", r"gen_mode: unknown generator mode 'bogus'"),
            ("[train]\nlr =\n", r"bad\.ini: \[train\] lr: blank value"),
            ("[model]\nmlp_widths =\n", r"bad\.ini: \[model\] mlp_widths: blank value"),
            ("[train]\nlookback = 33x\n",
             r"bad\.ini: \[train\] lookback: invalid literal for int\(\) with base 10: '33x'"),
            ("[train]\nlr = fast\n", r"bad\.ini: \[train\] lr: could not convert"),
            ("[train]\nshuffle = maybe\n",
             r"bad\.ini: \[train\] shuffle: expected a boolean, got 'maybe'"),
            ("[bench]\nseeds = 0,one\n", r"bad\.ini: \[bench\] seeds: invalid literal"),
            ("[model]\nmlp_widths = 16,\n",
             r"bad\.ini: \[model\] mlp_widths: invalid literal for int\(\) with base 10: ''"),
            ("[train]\nbatch_size = 0\n",
             r"bad\.ini: \[train\] batch_size must be a positive integer"),
            ("[train]\nearly_stop_patience = 0\n",
             r"bad\.ini: \[train\] early_stop_patience must be positive"),
            ("[train]\nlr = nan\n",
             r"bad\.ini: \[train\] lr must be finite and greater than 0, got nan"),
            ("[train]\nlr = inf\n",
             r"bad\.ini: \[train\] lr must be finite and greater than 0, got inf"),
            ("[train]\nlr = 0\n",
             r"bad\.ini: \[train\] lr must be finite and greater than 0, got 0\.0"),
            ("[train]\nlr = -1\n",
             r"bad\.ini: \[train\] lr must be finite and greater than 0, got -1\.0"),
            ("[model]\nkernel = 4\n", r"bad\.ini: \[model\] decomposition kernel must be odd"),
            ("[model]\nkernel = 9\n[train]\nlookback = 8\n",
             r"bad\.ini: \[model\] kernel 9 out of range for lookback 8"),
            ("[bench]\nhorizons = 48,0\n",
             r"bad\.ini: \[bench\] horizons: every horizon must be >= 1"),
            ("[model]\nbackbone = mlp\nmlp_widths = 16,0\n",
             r"bad\.ini: \[model\] mlp_widths: every width must be >= 1"),
            ("[model]\ngen_hidden = 0\n",
             r"bad\.ini: \[model\] gen_hidden: every width must be >= 1"),
            ("[model]\ngen_hidden = 64,32\n",
             r"bad\.ini: \[model\] gen_hidden: only the shared_mlp generator has hidden "
             r"layers, and gen_mode is per_channel_linear"),
            ("[split]\nratios = 0.6,0.4\n", r"bad\.ini: \[split\] ratios must be three"),
            ("lr = 0.5\n", r"no section headers\.\nfile: '.*bad\.ini', line: 1"),
        ],
        ids=["unknown_key", "misspelt_key", "unknown_section", "default_section", "gen_mode",
             "blank_lr", "blank_mlp_widths", "malformed_int", "malformed_float",
             "malformed_bool", "malformed_list", "empty_list_item", "batch_size", "patience",
             "lr_nan", "lr_inf", "lr_zero", "lr_negative",
             "even_kernel", "kernel_over_lookback", "horizon", "mlp_width", "gen_hidden",
             "gen_hidden_pcl", "ratios", "no_section_header"],
    )
    def test_bad_config_rejected(self, tmp_path, text, message):
        p = tmp_path / "bad.ini"
        p.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_config(p)

    def test_out_dir_resolution(self, tmp_path, monkeypatch):
        monkeypatch.delenv(OUT_DIR_ENV, raising=False)
        assert str(resolve_out_dir("runs")) == "runs"
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "env"))
        assert resolve_out_dir("runs") == tmp_path / "env"
        assert resolve_out_dir("runs", str(tmp_path / "flag")) == tmp_path / "flag"


class TestRunExperiment:
    def test_one_cell_two_records(self, tmp_path):
        cfg = load_config(small_cfg(tmp_path))
        records = run_experiment(cfg)
        assert len(records) == 2
        assert {r.variant for r in records} == {"baseline", "hn_mvts"}
        for r in records:
            assert r.status == "ok"
            assert r.test_mse is not None and r.test_mse >= 0
            assert r.test_mae is not None and r.test_mae >= 0
            assert r.n_epochs == 2

    def test_grid_count(self, tmp_path):
        cfg = load_config(
            small_cfg(tmp_path, bench={"horizons": "2,4", "seeds": "0,1"})
        )
        records = run_experiment(cfg)
        assert len(records) == 2 * 2 * 2

    def test_rerun_overwrites_matching_records(self, tmp_path):
        cfg = load_config(small_cfg(tmp_path))
        out = tmp_path / "results.jsonl"
        first = run_experiment(cfg, out_path=out)
        second = run_experiment(cfg, out_path=out)
        assert len(first) == len(second) == 2
        persisted = load_records(out)
        assert len(persisted) == 2

    def test_reproducible_modulo_timing(self, tmp_path):
        cfg = load_config(small_cfg(tmp_path))
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        strip = lambda r: {
            k: v
            for k, v in json.loads(r.to_json()).items()
            if not k.startswith("seconds_per_epoch")
        }
        assert [strip(r) for r in a] == [strip(r) for r in b]

    def test_hyper_param_counts_recorded(self, tmp_path):
        cfg = load_config(small_cfg(tmp_path))
        records = run_experiment(cfg)
        by_variant = {r.variant: r for r in records}
        assert by_variant["baseline"].hyper_param_count == 0
        # two heads x N*H*D*d + N*d = 2*3*4*8*3 + 3*3
        assert by_variant["hn_mvts"].hyper_param_count == 2 * 3 * 4 * 8 * 3 + 9

    def test_mlp_backbone_grid(self, tmp_path):
        cfg = load_config(
            small_cfg(
                tmp_path,
                model={"backbone": "mlp", "mlp_widths": "6", "gen_mode": "shared_mlp"},
            )
        )
        records = run_experiment(cfg)
        assert all(r.status == "ok" for r in records)
        by_variant = {r.variant: r for r in records}
        # one head: d*(H*D) output map (no hidden, no bias) + N*d embeddings
        assert by_variant["hn_mvts"].hyper_param_count == 3 * (4 * 6) + 3 * 3

    def test_failed_cell_recorded_not_raised(self, tmp_path):
        cfg = load_config(
            small_cfg(tmp_path, train={"lookback": "500", "horizon": "4"})
        )
        records = run_experiment(cfg)
        assert len(records) == 2
        assert all(r.status == "failed" for r in records)
        assert all("timesteps" in r.reason for r in records)

    @pytest.mark.parametrize("train, reason", [
        ({"lookback": "500"}, "timesteps"),
        ({"lr": "1e300"}, "non-finite training aborted"),
    ], ids=["window_error", "training_error"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_failed_cell_keeps_a_summary_row(self, tmp_path, train, reason):
        """A cell whose runs all failed, before training or inside it, still
        gets a row: incomplete, with a note counting its failed runs."""
        records = run_experiment(load_config(small_cfg(tmp_path, train=train)))
        assert [r.status for r in records] == ["failed", "failed"]
        assert all(reason in r.reason for r in records)
        (row,) = summarize(records)
        assert (row.dataset, row.horizon, row.n_seeds) == ("toy", 4, 0)
        assert not row.complete and row.note == "incomplete: 2 failed runs"
        assert "[incomplete: 2 failed runs]" in summary_text([row])


class TestRecordsFile:
    def test_roundtrip(self, tmp_path):
        rec = ResultRecord("d", "dlinear", "baseline", 4, 0, test_mse=0.5, test_mae=0.4)
        path = tmp_path / "r.jsonl"
        write_records([rec], path)
        back = load_records(path)
        assert back[0] == rec

    def test_stable_key_order(self):
        rec = ResultRecord("d", "dlinear", "baseline", 4, 0)
        keys = list(json.loads(rec.to_json()).keys())
        assert keys == [
            "dataset", "backbone", "variant", "horizon", "seed", "status", "reason",
            "test_mse", "test_mae", "seconds_per_epoch_mean", "seconds_per_epoch_std",
            "n_epochs", "best_epoch", "param_count_total", "param_count_trainable",
            "hyper_param_count",
        ]

    @pytest.mark.parametrize("line, message", [
        ('{"dataset": "d",', r"malformed JSON \(Expecting property name enclosed in double "
                             r"quotes at column 17\)"),
        ("[1, 2]", "expected a JSON object, got list"),
        ('{"dataset": "d", "backbone": "dlinear", "variant": "baseline", "horizon": 4, '
         '"seed": 0, "mse": 0.5}', "unknown key 'mse'"),
        ('{"dataset": "d", "backbone": "dlinear", "variant": "baseline", "horizon": 4}',
         "missing key 'seed'"),
    ], ids=["malformed_json", "not_an_object", "foreign_key", "missing_key"])
    def test_bad_line_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "r.jsonl"
        write_records([ResultRecord("d", "dlinear", "baseline", 4, 0)], path)
        path.write_text(path.read_text() + "\n" + line + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: {message}$"):
            load_records(path)


class TestSummarize:
    @staticmethod
    def records_for(mse_pairs, dataset="d", horizon=4):
        records = []
        for seed, (base, hn) in enumerate(mse_pairs):
            records.append(
                ResultRecord(dataset, "dlinear", "baseline", horizon, seed,
                             test_mse=base, test_mae=base, seconds_per_epoch_mean=2.0,
                             seconds_per_epoch_std=0.0)
            )
            records.append(
                ResultRecord(dataset, "dlinear", "hn_mvts", horizon, seed,
                             test_mse=hn, test_mae=hn, seconds_per_epoch_mean=2.5,
                             seconds_per_epoch_std=0.0)
            )
        return records

    def test_identical_metrics_no_change(self):
        rows = summarize(self.records_for([(0.5, 0.5)] * 5))
        row = rows[0]
        assert row.rel_mse_change == 0.0
        assert not row.significant

    def test_five_seeds_strictly_lower_not_significant(self):
        # exact two-sided k=5 cannot reach p < 0.05; flag must follow the math
        pairs = [(0.5 + 0.01 * i, 0.4 + 0.01 * i) for i in range(5)]
        row = summarize(self.records_for(pairs))[0]
        assert row.hn_mse_mean < row.baseline_mse_mean
        assert row.p_value == pytest.approx(2 / 32)
        assert not row.significant

    def test_timing_ratio_from_reference_values(self):
        # reference overhead pair: 15.31 -> 17.24 seconds/epoch
        records = self.records_for([(0.5, 0.4)] * 5)
        for r in records:
            r.seconds_per_epoch_mean = 15.31 if r.variant == "baseline" else 17.24
        row = summarize(records)[0]
        assert row.time_ratio == pytest.approx(17.24 / 15.31, abs=1e-12)
        assert row.time_ratio == pytest.approx(1.126, abs=2e-3)

    def test_means_match_flat_recompute(self, rng):
        pairs = [(float(a), float(b)) for a, b in rng.uniform(0.1, 1.0, size=(5, 2))]
        row = summarize(self.records_for(pairs))[0]
        assert row.baseline_mse_mean == pytest.approx(
            np.mean([p[0] for p in pairs]), abs=1e-12
        )
        assert row.baseline_mse_std == pytest.approx(
            np.std([p[0] for p in pairs]), abs=1e-12
        )

    def test_missing_pair_marked_incomplete(self):
        records = self.records_for([(0.5, 0.4)] * 5)
        records = [r for r in records if not (r.variant == "hn_mvts" and r.seed == 3)]
        row = summarize(records)[0]
        assert not row.complete
        assert "incomplete" in row.note

    def test_text_and_csv_render(self):
        rows = summarize(self.records_for([(0.5, 0.4)] * 5))
        text = summary_text(rows)
        assert "baseline MSE" in text and "dlinear" in text
        csv_out = summary_csv(rows)
        header = csv_out.splitlines()[0]
        assert header == (
            "dataset,backbone,horizon,n_seeds,complete,"
            "baseline_mse_mean,baseline_mse_std,hn_mse_mean,hn_mse_std,"
            "baseline_mae_mean,hn_mae_mean,rel_mse_change,p_value,"
            "significant,time_ratio,note"
        )
        assert len(csv_out.strip().splitlines()) == 2

    def test_csv_quotes_cells_with_commas(self):
        rows = summarize(self.records_for([(0.5, 0.4)] * 5, dataset="etth,v2"))
        rows.append(SummaryRow("etth,v2", "dlinear", 8, note="incomplete, by hand"))
        cells = list(csv.reader(summary_csv(rows).splitlines()))
        assert [len(r) for r in cells] == [16, 16, 16]
        assert [r[0] for r in cells] == ["dataset", "etth,v2", "etth,v2"]
        assert cells[2][-1] == "incomplete, by hand"
