"""One workload run: a user's whole session, timed, checked and optionally traced.

The session loads the CSV, splits and windows it, builds the three model
forms, trains each for the workload's fixed budget, bakes the hypernetwork
forms, saves and reloads checkpoints, evaluates on the test split, serves
single-window and batch forecasts and runs `hnmvts eval`. Every call into
the package goes through its public functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import time

import numpy as np

import reference as ref
from speed import SpeedProbe, reference_pieces
from tracing import SpanIndex, Tracer, instrument, median
from workloads import FORMS, make_table, write_csv

HN_FORMS = ("hn_shared", "hn_pcl")
TOL = 1e-10


def _nospan(name, **attrs):
    return contextlib.nullcontext()


def quartiles(values) -> tuple[float, float]:
    q1, q3 = np.percentile(np.asarray(values, dtype=float), [25, 75])
    return float(q1), float(q3)


def tail_percentile(n: int) -> float | None:
    """Highest of p99.9/p99/p90 with at least ten samples beyond it."""
    for p in (99.9, 99.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return None


class Checks:
    def __init__(self):
        self.results: list[dict] = []

    def add(self, name: str, ok: bool, **detail) -> None:
        self.results.append({"name": name, "ok": bool(ok), **detail})

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.results)


class Session:
    def __init__(self, hn, w, seed: int, seconds: float, workdir):
        self.hn = hn
        self.w = w
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.checks = Checks()
        self.ops = {"train_steps": 0, "eval_windows": 0, "forecasts_served": 0}
        self.metrics: dict[str, dict] = {}
        self.info: dict = {"phase_s": {}, "peak_rss_mb_after": {}, "missing_probe_hooks": []}
        self._mark = time.perf_counter()
        # bound before any instrumentation so the benchmark's own calls are
        # never mistaken for calls made inside `train`
        self.train_fn = hn.trainer.train
        self.evaluate_fn = hn.trainer.evaluate
        self.raw = make_table(w, seed, hn.data.gen_synthetic, hn.data.SynthSpec)
        self.csv = workdir / f"{w.name}.csv"
        write_csv(w, self.raw, self.csv)
        self.probe = self.make_probe()

    def make_probe(self) -> SpeedProbe:
        """Reference work on this workload's CSV rows, window shapes and model arrays."""
        hn, w = self.hn, self.w
        lines = self.csv.read_text(encoding="utf-8").splitlines()[1:257]
        x_all, y_all = self.test_arrays()
        if w.backbone == "dlinear":
            backbone = hn.backbones.DLinearBackbone(w.lookback, w.kernel)
        else:
            backbone = hn.backbones.MlpBackbone(w.lookback, w.mlp_widths,
                                                rng=hn.numcore.spawn_rng(self.seed, 999))
        model = hn.hypernet.build_baseline(backbone, w.n_channels, w.horizon,
                                           hn.numcore.spawn_rng(self.seed, 998))
        arrays = {k: t.data for k, t in model.all_arrays().items()}
        pool = max(64, w.batch_size)
        pieces = reference_pieces(w, lines, arrays, backbone.config(), x_all[:pool],
                                  y_all[:pool])
        return SpeedProbe(pieces, w.ref_s)

    def phase_done(self, name: str) -> None:
        """Wall seconds since the previous phase ended and peak memory so far."""
        now = time.perf_counter()
        self.info["phase_s"][name] = now - self._mark
        self.info["peak_rss_mb_after"][name] = peak_rss_mb()
        self._mark = now

    def parse_polling(self):
        """Probes from inside CSV parsing, through the per-row timestamp parser.

        It is a private function; without it parsing is probed only before
        and after.
        """
        if not hasattr(self.hn.data, "_parse_timestamp"):
            self.info["missing_probe_hooks"] = ["data._parse_timestamp"]
            return contextlib.nullcontext()
        return self.probe.polling(self.hn.data, "_parse_timestamp")

    def put(self, name: str, value, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    # session steps -----------------------------------------------------------
    def setup(self, span=_nospan):
        hn, w = self.hn, self.w
        with span("data.load_csv"):
            table = hn.data.load_csv(self.csv, timestamp_column="date")
        with span("data.split"):
            splits = hn.data.chrono_split(table, hn.data.SplitSpec(w.ratios))
        with span("data.make_windows"):
            wins = [hn.data.make_windows(s, w.lookback, w.horizon) for s in splits]
        models = {}
        for form in FORMS:
            with span("hypernet.build", form=form):
                models[form] = self.build(form, splits[0])
        return splits[0], wins, models

    def build(self, form: str, train_split):
        hn, w = self.hn, self.w
        rng = hn.numcore.spawn_rng(self.seed, 1000 + FORMS.index(form))
        if w.backbone == "dlinear":
            backbone = hn.backbones.DLinearBackbone(w.lookback, w.kernel)
        else:
            backbone = hn.backbones.MlpBackbone(w.lookback, w.mlp_widths, rng=rng)
        if form == "baseline":
            return hn.hypernet.build_baseline(
                backbone, w.n_channels, w.horizon, rng,
                channel_names=list(train_split.channel_names),
            )
        shared = form == "hn_shared"
        return hn.hypernet.build_hyper(
            backbone, train_split, w.horizon, rng, d=w.d,
            mode="shared_mlp" if shared else "per_channel_linear",
            gen_hidden=w.shared_hidden if shared else (),
        )

    def epochs(self, form: str) -> int:
        return self.w.form_epochs.get(form, self.w.epochs)

    def repeats(self, form: str) -> int:
        return self.w.form_repeats.get(form, self.w.train_repeats)

    def train(self, form, model, train_w, val_w, train_fn=None):
        w = self.w
        cfg = self.hn.trainer.TrainConfig(
            lookback=w.lookback, horizon=w.horizon, batch_size=w.batch_size,
            lr=w.form_lr.get(form, w.lr), max_epochs=self.epochs(form), seed=self.seed,
        )
        (model, history), seconds, _ = self.probe.measure(
            train_fn or self.train_fn, model, train_w, val_w, cfg, kind="train",
            label=f"train.{form}",
        )
        self.ops["train_steps"] += self.epochs(form) * -(-len(train_w) // w.batch_size)
        return model, history, seconds

    def evaluate(self, model, windows):
        out = self.evaluate_fn(model, windows)
        self.ops["eval_windows"] += len(windows)
        return out

    def forward(self, model, x: np.ndarray) -> np.ndarray:
        with self.hn.numcore.no_grad():
            return model.forward(self.hn.numcore.Tensor(x)).data

    def subsets(self, wins):
        return wins[0][:: self.w.stride], wins[1][:: self.w.stride]

    def test_arrays(self):
        """Test windows sliced by the benchmark from its own raw values."""
        _, b2 = ref.split_bounds(len(self.raw), self.w.ratios)
        return ref.windows(self.raw[b2:], self.w.lookback, self.w.horizon)

    def spread_windows(self, x_all: np.ndarray, limit: int = 1024) -> np.ndarray:
        idx = np.unique(np.linspace(0, len(x_all) - 1, min(limit, len(x_all))).astype(int))
        return np.ascontiguousarray(x_all[idx])

    # untraced run ------------------------------------------------------------
    def run(self) -> None:
        """Timings are medians of repeats at reference machine speed (`speed.py`)."""
        hn, w = self.hn, self.w
        setup_times = []
        with self.parse_polling():
            for _ in range(w.setup_repeats):
                (train_split, wins, models), seconds, _ = self.probe.measure(
                    self.setup, kind="setup", label="setup"
                )
                setup_times.append(seconds)
        self.put("setup_s", median(setup_times), "s")
        self.phase_done("setup")
        train_w, val_w = self.subsets(wins)
        test_w = wins[2]
        self.info["windows"] = {"train": len(train_w), "val": len(val_w), "test": len(test_w)}

        trained = {}
        histories = {f: [] for f in FORMS}
        train_times = {f: [] for f in FORMS}
        with self.probe.polling(hn.trainer, "adam_step"):
            self.train_rounds(models, train_split, train_w, val_w, trained, histories,
                              train_times)
        for form in FORMS:
            self.put(f"train_windows_per_s.{form}",
                     self.epochs(form) * len(train_w) / median(train_times[form]), "windows/s")
        self.info["digest"] = {f: digest(m) for f, m in trained.items()}
        self.info["train_loss"] = {f: h[0].train_loss for f, h in histories.items()}
        self.info["train_s"] = train_times
        self.phase_done("train")
        self.serve_and_check(trained, histories, test_w)

    def train_rounds(self, models, train_split, train_w, val_w, trained, histories,
                     train_times) -> None:
        """Every form trained `repeats(form)` times; later rounds must repeat the first.

        Round r trains each form that has more than r repeats, so the extra
        repeats of the cheap forms run one after another at the end.
        """
        for r in range(max(map(self.repeats, FORMS))):
            for form in FORMS:
                if r >= self.repeats(form):
                    continue
                model = models[form] if r == 0 else self.build(form, train_split)
                model, history, seconds = self.train(form, model, train_w, val_w)
                trained.setdefault(form, model)
                histories[form].append(history)
                train_times[form].append(seconds)
                if r:
                    first = histories[form][0]
                    self.checks.add(
                        f"train_repeatable.{form}",
                        digest(model) == digest(trained[form])
                        and history.train_loss == first.train_loss
                        and history.val_mse == first.val_mse,
                        round=r,
                    )

    def serve_and_check(self, trained, histories, test_w) -> None:
        hn = self.hn
        served = {"baseline": trained["baseline"]}
        for form in HN_FORMS:
            served[form] = hn.hypernet.bake(trained[form])
        x_all, y_all = self.test_arrays()
        spot = self.spread_windows(x_all)
        for form in HN_FORMS:
            diff = np.abs(self.forward(trained[form], spot) - self.forward(served[form], spot))
            self.checks.add(f"bake_equivalence.{form}", diff.max() <= TOL,
                            max_abs=float(diff.max()), windows=len(spot))
            self.check_param_count(form, trained[form])
        ckpt = self.check_checkpoints(trained, served, spot)
        self.phase_done("bake_checkpoint")

        test = {}
        for form in FORMS:
            test[form] = self.evaluate(served[form], test_w)
            self.put(f"test_mse.{form}", test[form]["mse"], "mse")
        self.phase_done("test_eval")
        self.check_references(served, x_all, y_all, test, spot)
        self.phase_done("reference")
        self.serve_rounds(served, x_all, test_w, test["hn_pcl"], ckpt["hn_pcl"])
        self.phase_done("rounds")
        self.put("peak_rss_mb", peak_rss_mb(), "MB")
        self.info["ratios"]["epoch"] = epoch_ratios(histories)

    def check_param_count(self, form, model) -> None:
        hn = self.hn
        slots = model.backbone.slots
        formula = hn.hypernet.param_count(
            self.w.n_channels, self.w.horizon, slots[0][1], self.w.d, learnable_z=True,
            mode="shared_mlp" if form == "hn_shared" else "per_channel_linear",
            heads=len(slots), gen_hidden=self.w.shared_hidden if form == "hn_shared" else (),
        )
        counted = sum(p.size for p in model.parameters().values()) - sum(
            p.size for p in model.backbone.parameters().values()
        )
        self.checks.add(f"param_count.{form}", formula == counted,
                        formula=int(formula), counted=int(counted))

    def check_checkpoints(self, trained, served, spot) -> dict:
        hn, w = self.hn, self.w
        echo = {"split_ratios": list(w.ratios), "timestamp_column": "date",
                "lookback": w.lookback}
        paths = {}
        for label, model in [(f, m) for f, m in served.items()] + [
            (f"{f}.hyper", trained[f]) for f in HN_FORMS
        ]:
            path = self.workdir / f"{label}.npz"
            hn.checkpoint.save_checkpoint(model, path, config_echo=echo)
            loaded, _ = hn.checkpoint.load_checkpoint(path)
            before, after = model.all_arrays(), loaded.all_arrays()
            same = sorted(before) == sorted(after) and all(
                before[k].data.dtype == after[k].data.dtype
                and np.array_equal(before[k].data, after[k].data)
                for k in before
            )
            few = spot[::4]
            same_fc = np.array_equal(self.forward(model, few), self.forward(loaded, few))
            self.checks.add(f"checkpoint_roundtrip.{label}",
                            same and same_fc and loaded.variant == model.variant,
                            arrays=same, forecasts=same_fc, bytes=path.stat().st_size)
            paths[label] = path
        return paths

    def check_references(self, served, x_all, y_all, test, spot) -> None:
        arrays = {f: {k: t.data for k, t in m.all_arrays().items()} for f, m in served.items()}
        config = served["baseline"].backbone.config()
        sums = {f: [0.0, 0.0] for f in FORMS}
        mean_mse = 0.0
        # chunks small enough that the check's own arrays never set the
        # process's peak memory; the moving average by running sums, as the
        # banded product over the whole split costs seconds (the exact form
        # is checked on `spot` below)
        for i in range(0, len(x_all), 128):
            x, y = x_all[i : i + 128], y_all[i : i + 128]
            mean_mse += ref.window_mean_mse(x, y) * y.size
            for form, pred in ref.forward(arrays, config, x, fast=True).items():
                diff = pred - y
                sums[form][0] += float((diff * diff).sum())
                sums[form][1] += float(np.abs(diff).sum())
        count = y_all.size
        mean_mse /= count
        self.info["window_mean_mse"] = mean_mse
        want = ref.forward(arrays, config, spot)
        for form in FORMS:
            err = float(np.abs(self.forward(served[form], spot) - want[form]).max())
            self.checks.add(f"reference_forward.{form}", err <= TOL, max_abs=err)
            mse, mae = sums[form][0] / count, sums[form][1] / count
            ok = np.isclose(mse, test[form]["mse"], rtol=1e-9, atol=0.0) and np.isclose(
                mae, test[form]["mae"], rtol=1e-9, atol=0.0
            )
            self.checks.add(f"evaluate_recompute.{form}", ok, mse=mse, mae=mae,
                            windows=len(x_all))
            self.checks.add(f"beats_window_mean.{form}", test[form]["mse"] < mean_mse,
                            mse=test[form]["mse"], window_mean_mse=mean_mse)

    def serve_rounds(self, served, x_all, test_w, in_process: dict, ckpt) -> None:
        """Evaluation, `hnmvts eval` and serving, in rounds spread over the run's end.

        Serving is a closed loop with one caller: single windows, batches of
        64, then the three forms interleaved for the latency ratios.
        """
        hn, w, probe = self.hn, self.w, self.probe
        Tensor = hn.numcore.Tensor
        pool = self.spread_windows(x_all, 64)
        singles = [Tensor(pool[i : i + 1]) for i in range(len(pool))]
        idx = np.resize(np.arange(len(x_all)), 4 * 64).reshape(4, 64)
        batches = [Tensor(np.ascontiguousarray(x_all[row])) for row in idx]
        model = served["hn_pcl"]
        budget = w.serve_share * self.seconds / w.tail_rounds
        eval_times, evals, cmd_times = [], [], []
        lat, lat_blocks, bat_blocks = [], [], []
        inter = {f: [] for f in FORMS}
        for _ in range(w.tail_rounds):
            with probe.polling(hn.hypernet.ForecastModel, "forward"), self.parse_polling():
                results, seconds, _ = probe.measure(
                    lambda: [self.evaluate(model, test_w) for _ in range(w.eval_repeats)],
                    kind="eval", label="eval",
                )
                evals += results
                eval_times.append(seconds / w.eval_repeats)
                cmd_times.append(self.eval_cmd(ckpt, in_process, len(test_w)))
            with hn.numcore.no_grad():
                single, blocks = probe.paired(model.forward, singles, "serve_single",
                                              0.4 * budget)
                lat += single
                lat_blocks += blocks
                batch, blocks = probe.paired(model.forward, batches, "serve_batch",
                                             0.25 * budget)
                bat_blocks += blocks
                mixed = _interleaved([served[f] for f in FORMS], singles, 0.35 * budget)
            for f, times in zip(FORMS, mixed):
                inter[f].append(times)
            self.ops["forecasts_served"] += len(single) + 64 * len(batch) + sum(map(len, mixed))
        self.checks.add("evaluate_repeatable", all(e == in_process for e in evals),
                        repeats=len(evals))
        self.put("eval_windows_per_s", len(test_w) / median(eval_times), "windows/s")
        self.put("eval_cmd_s", median(cmd_times), "s")
        self.put("serve_latency_us", 1e6 * median(lat_blocks), "us")
        self.put("serve_windows_per_s", 64 / median(bat_blocks), "windows/s")
        p = tail_percentile(len(lat))
        self.info["serve_latency_raw"] = {
            "samples": len(lat),
            "median_us": 1e6 * median(lat),
            "tail_percentile": p,
            "tail_us": None if p is None else 1e6 * float(np.percentile(lat, p)),
        }
        self.info["reference_work_s"] = probe.summary()
        self.info["timings"] = probe.records
        self.info["ratios"] = {"latency": latency_ratios(inter)}

    def eval_cmd(self, path, in_process: dict, n_windows: int) -> float:
        """One in-process `hnmvts eval`; checks its printed MSE, returns its seconds."""
        argv = ["eval", "--checkpoint", str(path), "--data", str(self.csv), "--split", "test"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code, seconds, _ = self.probe.measure(self.hn.cli.main, argv, kind="eval_cmd",
                                                  label="eval_cmd")
        self.ops["eval_windows"] += n_windows
        printed = json.loads(buf.getvalue().strip().splitlines()[-1]) if code == 0 else {}
        self.checks.add(
            "eval_cmd_matches", code == 0 and printed.get("mse") == in_process["mse"]
            and printed.get("mae") == in_process["mae"],
            exit_code=code, printed_mse=printed.get("mse"), in_process_mse=in_process["mse"],
        )
        return seconds

    # traced run --------------------------------------------------------------
    def run_traced(self, tracer: Tracer) -> None:
        """Per-layer figures from spans; the same calls, compared bit for bit.

        Each form is trained untraced, traced, then untraced again; the
        tracing overhead is the traced time over the mean untraced time.
        """
        hn = self.hn
        train_split, wins, _ = self.setup()
        train_w, val_w = self.subsets(wins)
        with instrument(tracer, hn) as missing, tracer.context(phase="setup"):
            _, traced_wins, models = self.setup(span=tracer.span)
        def traced_train(*args):
            with tracer.span("trainer.train"):
                return self.train_fn(*args)

        traced, untraced, overhead = {}, {}, {}
        for form in FORMS:
            before = self.train(form, self.build(form, train_split), train_w, val_w)
            with instrument(tracer, hn), tracer.context(form=form, phase="train"):
                traced[form] = self.train(form, models[form], *self.subsets(traced_wins),
                                          train_fn=traced_train)
            untraced[form] = self.train(form, self.build(form, train_split), train_w, val_w)
            overhead[form] = (before[2], traced[form][2], untraced[form][2])
        x_all, _ = self.test_arrays()
        singles = [x_all[i : i + 1] for i in range(min(64, len(x_all)))]
        traced_out = []
        path = self.workdir / "hn_pcl.npz"
        with instrument(tracer, hn):
            with tracer.context(phase="bake"):
                served = {"baseline": traced["baseline"][0]}
                for form in HN_FORMS:
                    served[form] = hn.hypernet.bake(traced[form][0])
            with tracer.context(phase="checkpoint"):
                with tracer.span("checkpoint.save"):
                    hn.checkpoint.save_checkpoint(served["hn_pcl"], path)
                with tracer.span("checkpoint.load"):
                    hn.checkpoint.load_checkpoint(path)
            with tracer.context(phase="eval"), tracer.span("trainer.evaluate"):
                self.evaluate(served["hn_pcl"], traced_wins[2])
            deadline = time.perf_counter() + 0.5 * self.seconds
            with tracer.context(phase="serve"), hn.numcore.no_grad():
                while time.perf_counter() < deadline or len(traced_out) < len(singles):
                    x = hn.numcore.Tensor(singles[len(traced_out) % len(singles)])
                    with tracer.span("serve.forward"):
                        traced_out.append(served["hn_pcl"].forward(x).data)
        self.ops["forecasts_served"] += len(traced_out)
        for form in FORMS:
            (mu, hu, _), (mt, ht, _) = untraced[form], traced[form]
            same = (hu.train_loss == ht.train_loss and hu.val_mse == ht.val_mse
                    and digest(mu) == digest(mt))
            self.checks.add(f"trace_identity.{form}", same, digest=digest(mt))
        plain = [self.forward(served["hn_pcl"], x) for x in singles]
        same = all(np.array_equal(plain[i % len(plain)], out) for i, out in enumerate(traced_out))
        self.checks.add("trace_identity.serve", same, calls=len(traced_out))
        self.info["missing_hooks"] = missing
        self.info["train_s_untraced_traced_untraced"] = overhead
        self.layer_metrics(SpanIndex(tracer.spans), len(traced_out), path)
        t_traced = sum(t for _, t, _ in overhead.values())
        t_untraced = sum((a + b) / 2 for a, _, b in overhead.values())
        self.put("trace.overhead_pct", 100.0 * (t_traced / t_untraced - 1.0), "%")

    def layer_metrics(self, ix: SpanIndex, serve_calls: int, path) -> None:
        put = self.put
        steps = {f: len(ix.select("optim.adam", form=f)) or 1 for f in FORMS}
        all_steps = sum(steps.values())
        train_only = dict(phase="train", outside="trainer.val_eval")

        def per_step(name, form=None):
            n = steps[form] if form else all_steps
            return 1e3 * ix.total(name, form=form, **train_only) / n

        def per_window(name):
            return 1e6 * ix.total(name, within="serve.forward") / serve_calls

        put("data.load_csv_s", ix.total("data.load_csv"), "s")
        put("data.make_windows_s", ix.total("data.make_windows"), "s")
        put("data.gather_ms_per_batch", per_step("data.gather"), "ms")
        put("normalization.revin_ms_per_batch", per_step("normalization.revin"), "ms")
        put("normalization.revin_us_per_window", per_window("normalization.revin"), "us")
        put("backbones.hidden_ms_per_batch", per_step("backbones.hidden"), "ms")
        put("backbones.hidden_us_per_window", per_window("backbones.hidden"), "us")
        for form in FORMS:
            put(f"backbones.final_ms_per_batch.{form}", per_step("backbones.final", form), "ms")
        put("backbones.final_us_per_window", per_window("backbones.final"), "us")
        for form in FORMS:
            put(f"hypernet.build_ms.{form}",
                1e3 * ix.total("hypernet.build", form=form, phase="setup"), "ms")
        for form in HN_FORMS:
            put(f"hypernet.generate_ms_per_step.{form}",
                per_step("hypernet.generate", form), "ms")
        for form in FORMS:
            put(f"tensor.forward_ms_per_step.{form}", per_step("model.forward", form), "ms")
            put(f"tensor.backward_ms_per_step.{form}", per_step("tensor.backward", form), "ms")
            nodes = [s["nodes"] for s in ix.select("trace.tape_count", form=form)]
            put(f"tensor.tape_nodes_per_step.{form}", median(nodes), "count")
            if len(set(nodes)) > 1:
                self.checks.add(f"tape_nodes_repeat.{form}", False, nodes=sorted(set(nodes)))
        for form in FORMS:
            adam = ix.select("trace.adam_count", form=form)
            put(f"optim.adam_ms_per_step.{form}", per_step("optim.adam", form), "ms")
            put(f"optim.params_updated.{form}", median([s["params"] for s in adam]), "count")
            put(f"optim.bytes_per_step.{form}", median([s["bytes"] for s in adam]),
                "bytes_computed")
        for form in FORMS:
            epochs = self.epochs(form)
            put(f"trainer.val_eval_ms_per_epoch.{form}",
                1e3 * ix.total("trainer.val_eval", form=form) / epochs, "ms")
            (train_span,) = ix.select("trainer.train", form=form)
            put(f"trainer.self_ms_per_epoch.{form}", 1e3 * ix.self_time(train_span) / epochs,
                "ms")
        (ev,) = ix.select("trainer.evaluate")
        batches = len(ix.select("model.forward", within="trainer.evaluate")) or 1
        put("trainer.evaluate_ms_per_batch", 1e3 * ix.dur(ev) / batches, "ms")
        put("checkpoint.save_ms", 1e3 * ix.total("checkpoint.save"), "ms")
        put("checkpoint.load_ms", 1e3 * ix.total("checkpoint.load"), "ms")
        put("checkpoint.file_bytes", path.stat().st_size, "bytes")
        self.info["self_times"] = ix.self_table()


# helpers --------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(model) -> str:
    h = hashlib.sha256()
    for name, t in sorted(model.parameters().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(t.data).tobytes())
    return h.hexdigest()[:16]


def _interleaved(models, inputs, budget: float) -> list[list[float]]:
    for i in range(30):
        for m in models:
            m.forward(inputs[i % len(inputs)])
    times = [[] for _ in models]
    clock = time.perf_counter
    deadline = clock() + budget
    i = 0
    while clock() < deadline or i < 8:
        x = inputs[i % len(inputs)]
        for k, m in enumerate(models):
            t0 = clock()
            m.forward(x)
            times[k].append(clock() - t0)
        i += 1
    return times


def latency_ratios(rounds: dict[str, list[list[float]]], blocks: int = 4) -> dict:
    """Baked over baseline single-window latency, per block of interleaved calls."""
    base_all = np.concatenate(rounds["baseline"])
    out = {"base_us": 1e6 * float(np.median(base_all)), "samples": len(base_all),
           "bound": 1.05}
    for form in HN_FORMS:
        per_block = [
            np.median(a) / np.median(b)
            for arr, base in zip(rounds[form], rounds["baseline"])
            for a, b in zip(np.array_split(arr, blocks), np.array_split(base, blocks))
        ]
        q1, q3 = quartiles(per_block)
        out[form] = {"ratio": median(per_block), "q1": q1, "q3": q3}
    return out


def epoch_ratios(histories: dict[str, list]) -> dict:
    """`hn_*` over `baseline` epoch seconds from TrainHistory.seconds, all repeats."""
    base = median([s for h in histories["baseline"] for s in h.seconds])
    out = {"base_s": base, "bound": 1.5}
    for form in HN_FORMS:
        seconds = [s for h in histories[form] for s in h.seconds]
        q1, q3 = quartiles([s / base for s in seconds])
        out[form] = {"ratio": median(seconds) / base, "q1": q1, "q3": q3}
    return out
