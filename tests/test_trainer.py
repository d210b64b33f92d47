import re
import warnings

import numpy as np
import pytest

from helpers import make_rng
from hnmvts.backbones import DLinearBackbone, MlpBackbone
from hnmvts.data import SeriesTable, WindowSet, make_windows
from hnmvts.hypernet import bake, build_baseline, build_hyper
from hnmvts.normalization import EPS, InstanceStats, revin_apply, revin_forward, revin_reverse
from hnmvts.numcore import (
    AdamState,
    Tensor,
    adam_step,
    backward,
    channel_product,
    no_grad,
    spawn_rng,
)
from hnmvts.trainer import PreparedSet, TrainConfig, TrainingError, evaluate, train


def linear_map_table(rng, n=2, t=300, lookback=8, horizon=2):
    """Series whose every (x, y) window satisfies y[c] = A_c @ x[c] exactly.

    Built by running the per-channel recurrence forward; A rows sum to 1 so
    the relation survives RevIN normalization (no per-window offset term).
    """
    a = rng.uniform(0.2, 1.0, size=(n, horizon, lookback))
    a /= a.sum(axis=-1, keepdims=True)
    values = np.empty((t, n))
    values[:lookback] = rng.standard_normal((lookback, n))
    step = lookback
    while step < t:
        nxt = min(horizon, t - step)
        for c in range(n):
            window = values[step - lookback : step, c]
            values[step : step + nxt, c] = (a[c] @ window)[:nxt]
        step += nxt
    return SeriesTable(Tensor(values), [f"c{i}" for i in range(n)]), a


def small_setup(rng, *, variant="baseline", t=160, lookback=8, horizon=2, n=2, revin=True):
    values = rng.standard_normal((t, n)).cumsum(axis=0)
    table = SeriesTable(Tensor(values), [f"c{i}" for i in range(n)])
    windows = make_windows(table, lookback, horizon)
    split = int(len(windows) * 0.8)
    bb = DLinearBackbone(lookback, kernel=3)
    if variant == "baseline":
        model = build_baseline(bb, n, horizon, rng, revin=revin)
    else:
        model = build_hyper(bb, table, horizon, rng, revin=revin)
    return model, windows[:split], windows[split:]


class TestTrain:
    def test_overfits_one_window(self, rng):
        model, train_w, _ = small_setup(rng)
        one = train_w[:1]
        cfg = TrainConfig(lookback=8, horizon=2, lr=1e-2, max_epochs=60, seed=0)
        _, history = train(model, one, one, cfg)
        assert history.train_loss[-1] < history.train_loss[0]
        # trend check: second half of the run is better than the first half
        mid = len(history.train_loss) // 2
        assert np.mean(history.train_loss[mid:]) < np.mean(history.train_loss[:mid])

    @pytest.mark.parametrize("revin", [True, False], ids=["revin", "raw"])
    def test_counts_degenerate_windows(self, rng, revin):
        """Flat stretches of 21 and 10 rows, longer than the lookback of 8, hold
        the lookbacks of 14 training and 3 validation windows."""
        values = rng.standard_normal((160, 2)).cumsum(axis=0)
        values[20:41, 1] = values[20, 1]
        values[130:140, 0] = values[130, 0]
        windows = make_windows(SeriesTable(Tensor(values), ["a", "b"]), 8, 2)
        model = build_baseline(DLinearBackbone(8, kernel=3), 2, 2, rng, revin=revin)
        cfg = TrainConfig(lookback=8, horizon=2, max_epochs=1)
        _, history = train(model, windows[:120], windows[120:], cfg)
        expected = {"train": 14, "val": 3} if revin else {"train": 0, "val": 0}
        assert history.degenerate_windows == expected

    @pytest.mark.parametrize("case", ["flat_stretch", "near_flat_channel"])
    def test_float32_counts_degenerate_windows_as_float64(self, case, request):
        """A flat stretch of 21 rows, longer than the lookback of 8, and a
        channel whose std is about 1e-7 give the float64 counts in float32."""
        values = make_rng(5).standard_normal((160, 2)).cumsum(axis=0)
        if case == "flat_stretch":
            values[20:41, 1] = values[20, 1]
        else:
            values[:, 0] = 3.0 + 1e-7 * make_rng(6).standard_normal(160)
        counts = []
        for dtype in ("float64", "float32"):
            if dtype == "float32":
                request.getfixturevalue("float32_mode")
            windows = make_windows(SeriesTable(Tensor(values), ["a", "b"]), 8, 2)
            assert windows.values.dtype == np.dtype(dtype)
            train_w, val_w = windows[:120], windows[120:]
            model = build_baseline(DLinearBackbone(8, kernel=3), 2, 2, make_rng(7))
            cfg = TrainConfig(lookback=8, horizon=2, max_epochs=1)
            _, history = train(model, train_w, val_w, cfg)
            counts.append((PreparedSet(model, train_w).degenerate,
                           PreparedSet(model, val_w).degenerate, history.degenerate_windows))
        expected = (14, 0) if case == "flat_stretch" else (120, len(windows) - 120)
        assert counts[0] == counts[1] == (*expected, dict(zip(("train", "val"), expected)))

    def test_two_runs_bit_identical(self):
        histories = []
        finals = []
        for _ in range(2):
            rng = make_rng(5)
            model, train_w, val_w = small_setup(rng)
            cfg = TrainConfig(lookback=8, horizon=2, max_epochs=3, seed=11)
            model, history = train(model, train_w, val_w, cfg)
            histories.append((history.train_loss, history.val_mse))
            finals.append({k: v.data.copy() for k, v in model.parameters().items()})
        assert histories[0] == histories[1]
        for key in finals[0]:
            assert (finals[0][key] == finals[1][key]).all()

    def test_two_mlp_runs_bit_identical(self):
        digests = []
        for _ in range(2):
            rng = make_rng(6)
            values = rng.standard_normal((160, 3)).cumsum(axis=0)
            table = SeriesTable(Tensor(values), ["a", "b", "c"])
            windows = make_windows(table, 8, 2)
            bb = MlpBackbone(8, (6, 5), rng=rng)
            model = build_hyper(bb, table, 2, rng, mode="shared_mlp", gen_hidden=(4,))
            cfg = TrainConfig(lookback=8, horizon=2, max_epochs=2, batch_size=16, seed=11)
            model, history = train(model, windows[:100], windows[100:], cfg)
            digests.append((history.train_loss, history.val_mse,
                            [p.data.tobytes() for p in model.parameters().values()]))
        assert digests[0] == digests[1]

    def test_dlinear_runs_bit_identical_under_one_and_two_blas_threads(self):
        """A DLinear baseline and both DLinear hyper forms train to the same
        bits in fresh processes with OPENBLAS_NUM_THREADS 1 and 2. A step's
        per-channel products (128 x 192 x 48) are large enough for OpenBLAS
        to split over two threads. (An MLP trunk's weight gradients need not
        agree: its digests hold per BLAS build and thread count.)"""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import hnmvts

        code = """if True:
            import hashlib
            from hnmvts.backbones import DLinearBackbone
            from hnmvts.data import SeriesTable, make_windows
            from hnmvts.hypernet import build_baseline, build_hyper
            from helpers import make_rng
            from hnmvts.numcore import Tensor
            from hnmvts.trainer import TrainConfig, train

            values = make_rng(3).standard_normal((900, 4)).cumsum(axis=0)
            table = SeriesTable(Tensor(values), ["a", "b", "c", "d"])
            windows = make_windows(table, 192, 48)
            cfg = TrainConfig(lookback=192, horizon=48, batch_size=128, max_epochs=2, lr=1e-3)
            digest = hashlib.sha256()
            for mode in (None, "per_channel_linear", "shared_mlp"):
                rng, bb = make_rng(5), DLinearBackbone(192, 25)
                model = (build_baseline(bb, 4, 48, rng) if mode is None else
                         build_hyper(bb, table, 48, rng, mode=mode, d=3))
                model, history = train(model, windows[:520], windows[520:], cfg)
                digest.update(repr((history.train_loss, history.val_mse)).encode())
                for name, t in sorted(model.parameters().items()):
                    digest.update(name.encode() + t.data.tobytes())
            print(digest.hexdigest())
        """
        src = str(Path(hnmvts.__file__).parents[1])
        out = []
        for threads in ("1", "2"):
            env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, str(Path(__file__).parent),
                                                              env.get("PYTHONPATH")]))
            env["OPENBLAS_NUM_THREADS"] = threads
            run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 env=env, timeout=300)
            assert run.returncode == 0, run.stderr
            out.append(run.stdout.strip())
        assert len(out[0]) == 64 and out[0] == out[1]

    def test_linear_generative_data_reaches_tiny_mse(self, rng):
        table, _ = linear_map_table(rng)
        windows = make_windows(table, 8, 2)
        split = int(len(windows) * 0.8)
        model = build_hyper(DLinearBackbone(8, 3), table, 2, rng)
        cfg = TrainConfig(lookback=8, horizon=2, lr=1e-2, max_epochs=120, seed=1)
        model, _ = train(model, windows[:split], windows[split:], cfg)
        baked = bake(model)
        assert evaluate(baked, windows[split:])["mse"] < 1e-3

    def test_returned_model_matches_best_epoch(self, rng):
        model, train_w, val_w = small_setup(rng)
        cfg = TrainConfig(lookback=8, horizon=2, max_epochs=5, seed=3, lr=1e-3)
        model, history = train(model, train_w, val_w, cfg)
        val_now = evaluate(model, val_w)["mse"]
        assert abs(val_now - min(history.val_mse)) < 1e-12

    def test_earlier_best_epoch_is_restored(self, rng):
        """When an earlier epoch validated best, the final restore still runs:
        the returned parameters give that epoch's validation MSE exactly."""
        model, train_w, val_w = small_setup(rng)
        cfg = TrainConfig(lookback=8, horizon=2, max_epochs=5, seed=1, lr=0.1)
        model, history = train(model, train_w, val_w, cfg)
        assert history.best_epoch < history.n_epochs - 1
        val_now = evaluate(model, val_w)["mse"]
        assert val_now == history.val_mse[history.best_epoch] != history.val_mse[-1]

    def test_best_epoch_zero_is_restored(self, monkeypatch):
        """The best-epoch snapshot starts empty and epoch 0 fills it: when
        epoch 0 validates best, the returned parameters are that epoch's, bit
        for bit (here each later epoch's validation MSE is made worse)."""
        from hnmvts import trainer as trainer_mod

        cfg = TrainConfig(lookback=8, horizon=2, max_epochs=1, seed=1, lr=1e-2)
        once, _ = train(*small_setup(make_rng(5)), cfg)
        real_evaluate, calls = trainer_mod.evaluate, []

        def worsening(model, windows, *args):
            calls.append(windows)
            return {"mse": real_evaluate(model, windows)["mse"] + len(calls)}

        monkeypatch.setattr(trainer_mod, "evaluate", worsening)
        cfg.max_epochs = 3
        model, history = train(*small_setup(make_rng(5)), cfg)
        assert history.best_epoch == 0 and history.n_epochs == 3
        for name, p in model.parameters().items():
            assert np.array_equal(p.data, once.parameters()[name].data), name

    @pytest.mark.parametrize("val_mse, max_epochs, patience, copied", [
        ([4.0, 3.0, 2.0, 1.0], 4, None, [0, 1, 2]),
        ([4.0, 1.0, 2.0, 3.0], 4, None, [0, 1]),
        ([3.0, 1.0, 2.0, 2.5], 4, 1, [0, 1]),
        ([3.0, 2.0, 1.0], 3, 1, [0, 1]),
        ([1.0], 1, None, []),
    ], ids=["last_best", "earlier_best", "early_stopped", "last_best_with_patience",
            "one_epoch"])
    def test_last_epoch_is_never_copied(self, monkeypatch, val_mse, max_epochs, patience,
                                        copied):
        """Every improving epoch but the last copies the parameters into the
        best-epoch snapshot; an early-stopped run copies at each improving
        epoch. Either way the returned parameters are the best epoch's, bit for
        bit: those of a run that stops after it."""
        from hnmvts import trainer as trainer_mod

        real_copyto, copies, calls = np.copyto, [], []

        def scripted(values):
            def evaluate(model, windows, *args):
                calls.append(None)
                return {"mse": values[len(calls) - 1]}
            return evaluate

        def run(values, epochs, patience=None):
            calls.clear()
            model, train_w, val_w = small_setup(make_rng(5), variant="hyper")
            params = model.parameters()

            def counting_copyto(dst, src, *args, **kwargs):
                if any(src is p.data for p in params.values()):
                    copies.append(len(calls) - 1)
                return real_copyto(dst, src, *args, **kwargs)

            monkeypatch.setattr(trainer_mod, "evaluate", scripted(values))
            monkeypatch.setattr(np, "copyto", counting_copyto)
            cfg = TrainConfig(lookback=8, horizon=2, batch_size=32, max_epochs=epochs, seed=2,
                              lr=1e-2, early_stop_patience=patience)
            model, history = train(model, train_w, val_w, cfg)
            monkeypatch.setattr(np, "copyto", real_copyto)
            return model, history

        model, history = run(val_mse, max_epochs, patience)
        n_params = len(model.parameters())
        assert copies == [epoch for epoch in copied for _ in range(n_params)]
        best = history.best_epoch
        reference, _ = run([1.0 / (1 + e) for e in range(best + 1)], best + 1)
        for name, p in model.parameters().items():
            assert np.array_equal(p.data, reference.parameters()[name].data), name

    @pytest.mark.parametrize("field, value", [
        ("lookback", float("nan")), ("horizon", "96"), ("batch_size", 2.5),
        ("max_epochs", True), ("seed", 1.0), ("early_stop_patience", 1.5),
        ("early_stop_patience", False), ("lr", "0.1"), ("lr", True), ("lr", None),
        ("evaluate", 2.5),
    ])
    def test_wrong_typed_number_rejected(self, rng, field, value):
        """Integer fields take an int but not a bool, lr a real number; each
        other value raises a ValueError naming the field, before any run.
        `evaluate` checks its batch_size the same way."""
        if field == "evaluate":
            model, _, val_w = small_setup(rng)
            with pytest.raises(ValueError, match=r"^batch_size must be a positive integer, got 2\.5$"):
                evaluate(model, val_w, batch_size=value)
            return
        kind = "a real number" if field == "lr" else "an integer"
        with pytest.raises(ValueError, match=rf"^{field} must be {kind}, got {re.escape(repr(value))}$"):
            TrainConfig(**{field: value})

    def test_pcl_step_peaks_below_one_generator(self, rng):
        """After the first step, which allocates Adam's moments, a
        per-channel-linear training step (forward, backward, Adam) allocates
        less at its peak than one `w_phi` holds: the generator's weight
        gradient reaches Adam as its factors and is built block by block."""
        import tracemalloc

        n, lookback, horizon = 7, 128, 48  # one channel's d x H x T block exceeds _BLOCK
        table = SeriesTable(Tensor(rng.standard_normal((400, n)).cumsum(axis=0)),
                            [f"c{i}" for i in range(n)])
        model = build_hyper(DLinearBackbone(lookback, kernel=5), table, horizon, rng)
        x, y = make_windows(table, lookback, horizon).batch(slice(0, 8))
        params = model.parameters()
        state = AdamState()

        def step():
            x_norm, stats = revin_forward(x)
            loss = model.loss(model.prepare(x_norm), revin_apply(y, stats))
            grads = backward(loss, list(params.values()))
            adam_step(params, {name: grads[p] for name, p in params.items()}, state)

        step()
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        w_phi = params["head.trend.w_phi"].data
        assert w_phi.shape == (n, n, horizon, lookback)
        assert peak < w_phi.nbytes

    def test_early_stopping_stops(self, rng, monkeypatch):
        from hnmvts import trainer as trainer_mod

        monkeypatch.setattr(trainer_mod, "adam_step", lambda params, grads, state: None)
        model, train_w, val_w = small_setup(rng)
        cfg = TrainConfig(lookback=8, horizon=2, max_epochs=40, seed=3, early_stop_patience=2)
        _, history = train(model, train_w, val_w, cfg)
        # with no parameter update nothing improves after epoch 0, so patience cuts the run short
        assert history.n_epochs == 3

    def test_empty_training_set_rejected(self, rng):
        model, train_w, val_w = small_setup(rng)
        with pytest.raises(ValueError, match="empty training"):
            train(model, train_w[:0], val_w, TrainConfig(lookback=8, horizon=2))

    def test_non_finite_abort_has_diagnostics(self, rng):
        model, train_w, val_w = small_setup(rng)
        next(iter(model.parameters().values())).data[:] = np.inf
        cfg = TrainConfig(lookback=8, horizon=2, max_epochs=2, seed=0)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(TrainingError, match="epoch 0"):
                train(model, train_w, val_w, cfg)

    def test_refused_gradient_aborts_before_any_parameter_moves(self, rng, monkeypatch):
        """A gradient Adam refuses mid-run ends the run at that step: the error
        names the parameter, the epoch and the batch offset, and no parameter
        has moved from where the step found it."""
        from hnmvts import trainer as trainer_mod

        real_backward = trainer_mod.backward
        model, train_w, val_w = small_setup(rng, variant="hyper")
        params = model.parameters()
        name, bad = list(params.items())[-1]
        calls, at_refusal = [], {}

        def backward_nan_on_tenth(loss, param_list):
            grads = real_backward(loss, param_list)
            calls.append(None)
            if len(calls) == 10:  # 8 batches of 16 per epoch: epoch 1, offset 16
                grads[bad] = Tensor(np.full(bad.shape, np.nan))
                at_refusal.update({n: p.data.copy() for n, p in params.items()})
            return grads

        monkeypatch.setattr(trainer_mod, "backward", backward_nan_on_tenth)
        cfg = TrainConfig(lookback=8, horizon=2, batch_size=16, max_epochs=3, seed=0)
        assert len(train_w) == 120
        message = (rf"\(non-finite gradient for parameter '{re.escape(name)}'\): loss=\S+ "
                   r"at epoch 1, batch offset 16;")
        with pytest.raises(TrainingError, match=message):
            train(model, train_w, val_w, cfg)
        assert len(calls) == 10
        for n, p in params.items():
            assert np.array_equal(p.data, at_refusal[n]), n

    def test_config_window_mismatch(self, rng):
        model, train_w, val_w = small_setup(rng)
        with pytest.raises(ValueError, match="config wants"):
            train(model, train_w, val_w, TrainConfig(lookback=16, horizon=2))
        longer = WindowSet(val_w.values, val_w.origins[:-1], 8, 3)
        with pytest.raises(ValueError, match=r"windows are \(8, 3\) but config wants"):
            train(model, train_w, longer, TrainConfig(lookback=8, horizon=2))

    def test_step_gradients_freed_before_next_backward(self, rng, monkeypatch):
        """No step's gradient arrays survive into the next step's backward."""
        import weakref

        from hnmvts import trainer as trainer_mod

        real_backward = trainer_mod.backward
        previous = []
        calls = []

        def tracking_backward(loss, params):
            calls.append(sum(ref() is not None for ref in previous))
            grads = real_backward(loss, params)
            previous[:] = [weakref.ref(g.data) for g in grads.values()]
            return grads

        monkeypatch.setattr(trainer_mod, "backward", tracking_backward)
        model, train_w, val_w = small_setup(rng, variant="hyper")
        cfg = TrainConfig(lookback=8, horizon=2, batch_size=16, max_epochs=2, seed=0)
        train(model, train_w, val_w, cfg)
        assert len(calls) > 2
        assert calls == [0] * len(calls)

    def test_step_graph_freed_before_next_forward(self, rng, monkeypatch):
        """No step's loss, and so none of its graph, survives into the next step's forward."""
        import weakref

        from hnmvts import trainer as trainer_mod

        real_batch_loss = trainer_mod._batch_loss
        finalizers = []
        calls = []

        def tracking_batch_loss(model, batch):
            calls.append(sum(f.alive for f in finalizers))
            loss = real_batch_loss(model, batch)
            finalizers.append(weakref.finalize(loss.data, lambda: None))
            return loss

        monkeypatch.setattr(trainer_mod, "_batch_loss", tracking_batch_loss)
        model, train_w, val_w = small_setup(rng, variant="hyper")
        cfg = TrainConfig(lookback=8, horizon=2, batch_size=16, max_epochs=2, seed=0)
        train(model, train_w, val_w, cfg)
        assert len(calls) > 2
        assert calls == [0] * len(calls)

    def test_model_without_revin_trains_in_raw_space(self, rng, monkeypatch):
        from hnmvts import trainer as trainer_mod

        monkeypatch.setattr(trainer_mod, "adam_step", lambda params, grads, state: None)
        model, train_w, val_w = small_setup(rng, revin=False)
        cfg = TrainConfig(lookback=8, horizon=2, max_epochs=1, seed=0)
        _, history = train(model, train_w, val_w, cfg)
        assert history.train_loss[0] == pytest.approx(evaluate(model, train_w)["mse"], rel=1e-12)

    def test_hyper_and_baked_evaluate_identically(self, rng):
        model, train_w, val_w = small_setup(rng, variant="hyper")
        cfg = TrainConfig(lookback=8, horizon=2, max_epochs=2, seed=2)
        model, _ = train(model, train_w, val_w, cfg)
        hyper_metrics = evaluate(model, val_w)
        baked_metrics = evaluate(bake(model), val_w)
        assert abs(hyper_metrics["mse"] - baked_metrics["mse"]) < 1e-10
        assert abs(hyper_metrics["mae"] - baked_metrics["mae"]) < 1e-10


def reference_train(model, train_w, val_w, cfg):
    """Frozen copy of the per-batch training loop: RevIN and the model's
    `prepare` run on every batch, before the loss node, and the validation
    pass evaluates the plain window set. Returns the per-epoch
    train loss and validation MSE, leaving the best epoch's parameters."""
    params = model.parameters()
    state = AdamState(lr=cfg.lr)
    shuffle_rng = spawn_rng(cfg.seed, 7)
    best, best_val = {}, np.inf
    losses, vals = [], []
    for _ in range(cfg.max_epochs):
        order = shuffle_rng.permutation(len(train_w))
        total = 0.0
        for start in range(0, len(train_w), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            x, y = train_w.batch(idx)
            if model.revin:
                x_norm, stats = revin_forward(x)
                loss = model.loss(model.prepare(x_norm), revin_apply(y, stats))
            else:
                loss = model.loss(model.prepare(x), y)
            grads = backward(loss, list(params.values()))
            adam_step(params, {name: grads[p] for name, p in params.items()}, state)
            total += loss.item() * len(idx)
        losses.append(total / len(train_w))
        vals.append(evaluate(model, val_w)["mse"])
        if vals[-1] < best_val:
            best_val = vals[-1]
            best = {name: p.data.copy() for name, p in params.items()}
    for name, p in params.items():
        p.data[:] = best[name]
    return losses, vals


def build_form(form, revin, table):
    rng = make_rng(4)
    if form.startswith("mlp"):
        bb = MlpBackbone(8, (6, 5), rng=rng)
    else:
        bb = DLinearBackbone(8, kernel=5)
    if form.endswith("baseline"):
        return build_baseline(bb, table.n_channels, 2, rng, revin=revin)
    mode = "shared_mlp" if form.endswith("shared_mlp") else "per_channel_linear"
    return build_hyper(bb, table, 2, rng, mode=mode, revin=revin,
                       gen_hidden=(4,) if mode == "shared_mlp" else ())


class TestPreparedSets:
    """`train` prepares each set's RevIN statistics and what the model's
    forward reads once; every result stays bit-identical to the per-batch
    form."""

    FORMS = ["dlinear_baseline", "dlinear_per_channel_linear", "dlinear_shared_mlp",
             "mlp_baseline", "mlp_shared_mlp"]

    @pytest.mark.parametrize("revin", [True, False], ids=["revin", "raw"])
    @pytest.mark.parametrize("form", FORMS)
    def test_cached_uncached_and_per_batch_runs_identical(self, form, revin, monkeypatch):
        """A training set of 313 windows is prepared in two chunks; the run
        with every array cached, the run whose limit fits the 78 validation
        windows' inputs exactly but not the training set's, the run with the
        limit at 0 (everything per batch) and the frozen per-batch loop give
        the same bits."""
        from hnmvts import trainer as trainer_mod

        values = make_rng(9).standard_normal((400, 3)).cumsum(axis=0)
        table = SeriesTable(Tensor(values), ["a", "b", "c"])
        windows = make_windows(table, 8, 2)
        train_w, val_w = windows[:313], windows[313:]
        assert len(train_w) > trainer_mod._CHUNK
        cfg = TrainConfig(lookback=8, horizon=2, batch_size=32, max_epochs=3, lr=1e-2, seed=5)
        made = []

        class Recording(trainer_mod.PreparedSet):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(trainer_mod, "PreparedSet", Recording)
        val_bytes = 78 * 3 * 8 * 8 * (2 if form.startswith("dlinear") else 1)
        runs = []
        for limit in (trainer_mod.CACHE_BYTES, val_bytes, 0):
            monkeypatch.setattr(trainer_mod, "CACHE_BYTES", limit)
            made.clear()
            model, history = train(build_form(form, revin, table), train_w, val_w, cfg)
            runs.append((history.train_loss, history.val_mse, model.parameters()))
            held = [{name for name in ("inputs", "target") if getattr(s, name) is not None}
                    for s in made]
            if limit == val_bytes:
                expected = [set(), {"inputs"}]
            elif limit:
                expected = [{"inputs", "target"} if revin else {"inputs"}, {"inputs"}]
            else:
                expected = [set(), set()]
            assert held == expected
            assert all((s.mean is None) == (not revin) for s in made)
        model = build_form(form, revin, table)
        runs.append((*reference_train(model, train_w, val_w, cfg), model.parameters()))
        first_loss, first_val, first_params = runs[0]
        for loss, val, params in runs[1:]:
            assert loss == first_loss and val == first_val
            for name, p in params.items():
                assert np.array_equal(p.data, first_params[name].data), name

    @pytest.mark.parametrize("form", FORMS)
    def test_prepared_steps_only_gather(self, form, monkeypatch):
        """Once both sets are prepared with everything cached, a whole run
        neither normalises nor decomposes anything."""
        from hnmvts import trainer as trainer_mod

        def refuse(*args):
            raise AssertionError("a prepared step rebuilt its input")

        class Guarded(trainer_mod.PreparedSet):
            def __init__(self, model, windows, for_loss=False):
                super().__init__(model, windows, for_loss)
                self.prepare = refuse
                if not for_loss:  # the validation set, prepared second
                    monkeypatch.setattr(trainer_mod, "revin_apply", refuse)

        monkeypatch.setattr(trainer_mod, "PreparedSet", Guarded)
        table = SeriesTable(Tensor(make_rng(9).standard_normal((200, 3)).cumsum(axis=0)),
                            ["a", "b", "c"])
        windows = make_windows(table, 8, 2)
        cfg = TrainConfig(lookback=8, horizon=2, batch_size=32, max_epochs=2, seed=5)
        _, history = train(build_form(form, True, table), windows[:150], windows[150:], cfg)
        assert history.n_epochs == 2

    def test_dlinear_baseline_step_takes_three_nodes(self, rng, monkeypatch):
        """The loss node and its parents, the two final layers."""
        from hnmvts import trainer as trainer_mod
        from hnmvts.numcore import Tape

        sizes = []
        real_backward = trainer_mod.backward

        def counting(loss, params):
            sizes.append(len(Tape.trace(loss)))
            return real_backward(loss, params)

        monkeypatch.setattr(trainer_mod, "backward", counting)
        model, train_w, val_w = small_setup(rng)
        train(model, train_w, val_w, TrainConfig(lookback=8, horizon=2, max_epochs=1))
        assert sizes and set(sizes) == {3}

    def test_trend_runs_once_per_set_per_call(self, rng, monkeypatch):
        """`moving_average` runs on each whole set once per `train` call, not
        on every batch of every epoch; above the cache limit it runs per batch.
        Each set first reads the per-window sizes off an empty batch."""
        from hnmvts import backbones
        from hnmvts import trainer as trainer_mod
        from hnmvts.numcore import moving_average

        calls = []

        def counting(x, kernel):
            calls.append(len(x))
            return moving_average(x, kernel)

        monkeypatch.setattr(backbones, "moving_average", counting)
        model, train_w, val_w = small_setup(rng)
        cfg = TrainConfig(lookback=8, horizon=2, batch_size=16, max_epochs=3, seed=0)
        train(model, train_w, val_w, cfg)
        assert calls == [0, len(train_w), 0, len(val_w)]
        calls.clear()
        monkeypatch.setattr(trainer_mod, "CACHE_BYTES", 0)
        train(model, train_w, val_w, cfg)
        assert calls == [0, 0] + 3 * ([16] * 7 + [len(train_w) - 7 * 16] + [len(val_w)])

    def test_prepared_set_holds_per_batch_values(self, rng):
        """The statistics, inputs and normalised target kept per window are
        `revin_forward`'s, the model's `prepare`'s and `revin_apply`'s on any
        batch of those windows, for a DLinear, an MLP and a baked DLinear."""
        model, train_w, _ = small_setup(rng)
        mlp = build_baseline(MlpBackbone(8, (4,), rng=rng), 2, 2, rng)
        idx = rng.permutation(len(train_w))[:16]
        x, y = train_w.batch(idx)
        x_norm, stats = revin_forward(x)
        for m in (model, mlp, bake(model)):
            prepared = PreparedSet(m, train_w, for_loss=True)
            assert np.array_equal(prepared.mean[idx], stats.mean)
            assert np.array_equal(prepared.std[idx], stats.std)
            assert np.array_equal(prepared.target[idx], revin_apply(y, stats))
            want = m.prepare(x_norm)
            assert len(prepared.inputs) == len(want)
            for held, part in zip(prepared.inputs, want):
                assert np.array_equal(held[idx], part)
            assert PreparedSet(m, train_w).target is None

    @pytest.mark.parametrize("form, revin, for_loss", [
        ("dlinear_baseline", True, False), ("mlp_baseline", True, False),
        ("dlinear_baseline", False, True),
    ], ids=["revin_dlinear_val", "revin_mlp_val", "raw_dlinear_train"])
    def test_a_set_holding_the_model_input_gathers_only_targets(self, form, revin, for_loss,
                                                                monkeypatch):
        """Once prepared, a set that holds the model input but no normalised
        targets never gathers lookbacks: with `WindowSet.batch` raising, every
        batch and `evaluate` equal the per-batch form's (a set prepared with
        the cache limit at 0) bit for bit."""
        from hnmvts import trainer as trainer_mod

        table = SeriesTable(Tensor(make_rng(9).standard_normal((400, 3)).cumsum(axis=0)),
                            ["a", "b", "c"])
        windows = make_windows(table, 8, 2)[:300]
        model = build_form(form, revin, table)
        prepared = PreparedSet(model, windows, for_loss=for_loss)
        assert prepared.target is None and prepared.inputs is not None
        monkeypatch.setattr(trainer_mod, "CACHE_BYTES", 0)
        per_batch = PreparedSet(model, windows, for_loss=for_loss)
        batches = [np.arange(start, min(start + 64, 300)) for start in range(0, 300, 64)]
        want = [trainer_mod._stack_batch(per_batch, idx) for idx in batches]
        want_eval = None if for_loss else evaluate(model, per_batch, batch_size=64)

        def refuse(self, idx):
            raise AssertionError("lookbacks gathered")

        monkeypatch.setattr(WindowSet, "batch", refuse)
        for idx, ref in zip(batches, want):
            got = trainer_mod._stack_batch(prepared, idx)
            assert len(got.inputs) == len(ref.inputs)
            for g_part, r_part in zip(got.inputs, ref.inputs):
                assert np.array_equal(g_part, r_part)
            assert np.array_equal(got.y, ref.y)
            assert (got.stats is None) == (ref.stats is None) == (not revin)
            if revin:
                assert np.array_equal(got.stats.mean, ref.stats.mean)
                assert np.array_equal(got.stats.std, ref.stats.std)
            pred = model.forward_prepared(got.inputs)
            assert np.array_equal(pred, model.forward_prepared(ref.inputs))
        if not for_loss:
            assert evaluate(model, prepared, batch_size=64) == want_eval

    def test_validation_enters_through_evaluate(self, rng, monkeypatch):
        """Each epoch's validation pass calls `evaluate` once, on the prepared
        validation set, and gets the MSE the plain set gives."""
        from hnmvts import trainer as trainer_mod

        real_evaluate = trainer_mod.evaluate
        seen = []

        def recording(model, windows, *args):
            out = real_evaluate(model, windows, *args)
            seen.append((windows, out["mse"], real_evaluate(model, windows.windows)["mse"]))
            return out

        monkeypatch.setattr(trainer_mod, "evaluate", recording)
        model, train_w, val_w = small_setup(rng)
        cfg = TrainConfig(lookback=8, horizon=2, max_epochs=2, seed=0)
        _, history = train(model, train_w, val_w, cfg)
        assert len(seen) == 2
        for (windows, mse, plain_mse), val in zip(seen, history.val_mse):
            assert isinstance(windows, trainer_mod.PreparedSet) and windows.windows is val_w
            assert mse == plain_mse == val

    def test_model_without_trainable_arrays_refused(self, rng):
        model, train_w, val_w = small_setup(rng)
        with pytest.raises(ValueError, match="no trainable arrays"):
            train(bake(model), train_w, val_w, TrainConfig(lookback=8, horizon=2))

    @pytest.mark.parametrize("shape", [(24, 4, 3), (20, 8, 3), (24, 12, 3), (24, 8, 2)],
                             ids=["horizon4", "lookback20", "horizon12", "two_channels"])
    def test_windows_of_another_shape_refused(self, shape, monkeypatch):
        """Windows whose lookback, horizon or channel count is not a lookback-24,
        horizon-8, 3-channel model's: `train` refuses them before it prepares
        anything, and `evaluate` as a WindowSet or a PreparedSet, each with
        one message naming both sides."""
        from hnmvts import trainer as trainer_mod

        lookback, horizon, n = shape
        rng = make_rng(3)
        model = build_baseline(DLinearBackbone(24, kernel=5), 3, 8, rng)
        table = SeriesTable(Tensor(rng.standard_normal((120, n)).cumsum(axis=0)),
                            [f"c{i}" for i in range(n)])
        windows = make_windows(table, lookback, horizon)
        message = re.escape(f"the windows have (lookback, horizon, channels) {shape}, but the "
                            "model has (24, 8, 3)")
        prepared = PreparedSet(model, windows)

        class Refused(PreparedSet):
            def __init__(self, *args, **kwargs):
                raise AssertionError("a set was prepared")

        monkeypatch.setattr(trainer_mod, "PreparedSet", Refused)
        with pytest.raises(ValueError, match=message):
            train(model, windows, windows, TrainConfig(lookback=lookback, horizon=horizon))
        monkeypatch.undo()
        for ws in (windows, prepared):
            with pytest.raises(ValueError, match=message):
                evaluate(model, ws)


class TestTrajectoryAgreement:
    """Two step forms equal in exact arithmetic give train losses and validation
    MSE within a relative tolerance of each other over a short run: here the
    cached tier and the per-batch tier (CACHE_BYTES 0), in both dtypes. They
    are bit-identical today; the tolerance leaves room for a form that only
    rounds differently, while a one-step shift of the per-batch tier's first
    prepared array (DLinear's trend, the MLP's lookback) moves each figure
    by 1% or more."""

    RTOL = {"float64": 1e-9, "float32": 1e-5}

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("form", ["dlinear_baseline", "mlp_baseline"])
    def test_cached_and_per_batch_tiers_agree(self, form, dtype, request, monkeypatch):
        from hnmvts import trainer as trainer_mod

        if dtype == "float32":
            request.getfixturevalue("float32_mode")
        table = SeriesTable(Tensor(make_rng(9).standard_normal((400, 3)).cumsum(axis=0)),
                            ["a", "b", "c"])
        windows = make_windows(table, 8, 2)
        cfg = TrainConfig(lookback=8, horizon=2, batch_size=32, max_epochs=3, lr=1e-2, seed=5)
        runs = []
        for limit in (trainer_mod.CACHE_BYTES, 0):
            monkeypatch.setattr(trainer_mod, "CACHE_BYTES", limit)
            model, history = train(build_form(form, True, table), windows[:313], windows[313:],
                                   cfg)
            assert model.parameters()["final.out.w" if form.startswith("mlp") else
                                      "final.trend.w"].data.dtype == dtype
            runs.append(history)
        cached, per_batch = runs
        rtol = self.RTOL[dtype]
        np.testing.assert_allclose(per_batch.train_loss, cached.train_loss, rtol=rtol, atol=0)
        np.testing.assert_allclose(per_batch.val_mse, cached.val_mse, rtol=rtol, atol=0)


class TestDiverging:
    def test_overflow_stops_the_step_that_makes_it(self, rng):
        """At lr 1e300 the first Adam step leaves parameters near 1e300; the
        next forward overflows, and the run stops there with a TrainingError
        (pytest turns any numpy RuntimeWarning into a failure). The parameter
        norms are stated, finite, without overflowing themselves."""
        model, train_w, val_w = small_setup(rng, variant="hyper")
        cfg = TrainConfig(lookback=8, horizon=2, batch_size=16, lr=1e300, max_epochs=2)
        with pytest.raises(TrainingError) as info:
            train(model, train_w, val_w, cfg)
        message = str(info.value)
        assert re.match(r"non-finite training aborted \((overflow|invalid value) encountered "
                        r"in \w+\) at epoch 0, batch offset 16; parameter norms: ", message)
        norms = [float(v) for v in re.findall(r"=(\S+?)(?:,|$)", message.split("norms: ")[1])]
        assert len(norms) == len(model.parameters())
        assert all(np.isfinite(v) and v > 1e299 for v in norms)

    def test_overflow_in_validation_aborts_the_run(self, rng):
        """With one batch per epoch the first Adam step diverges and the epoch's
        validation pass is the next forward: it stops the run in validation,
        with no numpy warning."""
        model, train_w, val_w = small_setup(rng, variant="hyper")
        cfg = TrainConfig(lookback=8, horizon=2, batch_size=16, lr=1e300, max_epochs=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingError) as info:
                train(model, train_w[:16], val_w, cfg)
        assert re.match(r"non-finite training aborted \((overflow|invalid value) encountered "
                        r"in \w+\) at epoch 0, in validation; parameter norms: ",
                        str(info.value))

    def test_non_finite_validation_mse_aborts_the_run(self, rng, monkeypatch):
        from hnmvts import trainer as trainer_mod

        monkeypatch.setattr(trainer_mod, "evaluate", lambda *args: {"mse": np.nan})
        model, train_w, val_w = small_setup(rng)
        with pytest.raises(TrainingError, match=r"\(val_mse=nan\) at epoch 0, in validation;"):
            train(model, train_w, val_w, TrainConfig(lookback=8, horizon=2, max_epochs=2))

    def test_norms_of_huge_and_non_finite_arrays(self):
        from hnmvts.trainer import _norm

        assert _norm(np.full(4, 1e300)) == pytest.approx(2e300)
        assert _norm(np.zeros(3)) == 0.0
        assert _norm(np.array([1.0, np.inf])) == np.inf
        assert np.isnan(_norm(np.array([1.0, np.nan])))
        assert _norm(np.array([3.0, -4.0])) == 5.0


def frozen_evaluate(model, windows, batch_size=256):
    """Frozen copy of `evaluate`'s arithmetic from before its one error buffer:
    RevIN's map back as a product and a sum into new arrays, then a
    difference, its square and its absolute value as three temporaries."""
    from hnmvts.trainer import _stack_batch

    sse = sae = 0.0
    count = 0
    with no_grad():
        for start in range(0, len(windows), batch_size):
            idx = slice(start, start + batch_size)
            if isinstance(windows, PreparedSet):
                batch = _stack_batch(windows, idx)
                pred, yb = model.forward_prepared(batch.inputs), batch.y
                if batch.stats is not None:
                    pred = pred * (batch.stats.std + EPS) + batch.stats.mean
            else:
                xb, yb = windows.batch(idx)
                pred = model.forward(Tensor(xb)).data
            diff = pred - yb
            sse += float((diff * diff).sum())
            sae += float(np.abs(diff).sum())
            count += diff.size
    return {"mse": sse / count, "mae": sae / count}


def gathered_in_place_evaluate(model, windows, batch_size):
    """`evaluate` on a WindowSet as it was when each batch's lookbacks were
    gathered (indexing span views built here) and `forecast` normalised that
    copy in place: the same ufuncs, in the same order, as the view form."""
    spans = [np.lib.stride_tricks.sliding_window_view(windows.values, width, axis=1)
             .transpose(1, 0, 2) for width in (windows.lookback, windows.horizon)]
    sse = sae = 0.0
    count = 0
    with no_grad():
        weights = model.final_weights()
        for start in range(0, len(windows), batch_size):
            origins = windows.origins[start : start + batch_size]
            x, y = spans[0][origins], spans[1][origins + windows.lookback]
            if not model.revin:
                err = model.forward_prepared(model.prepare(x), weights)
            else:
                mean = np.add.reduce(x, axis=-1, keepdims=True)
                mean /= x.shape[-1]
                np.subtract(x, mean, out=x)
                if model._folded is not None:
                    err = channel_product(model._folded, x)
                    err += mean
                else:
                    std = np.add.reduce(np.square(x), axis=-1, keepdims=True)
                    std /= x.shape[-1]
                    np.sqrt(std, out=std)
                    x /= std + EPS
                    err = model.forward_prepared(model.prepare(x), weights)
                    revin_reverse(err, InstanceStats(mean, std), out=err)
            err -= y
            np.abs(err, out=err)
            sae += float(err.sum())
            np.square(err, out=err)
            sse += float(err.sum())
            count += err.size
    return {"mse": sse / count, "mae": sae / count}


class TestEvaluate:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("revin", [True, False], ids=["revin", "raw"])
    @pytest.mark.parametrize("form", TestPreparedSets.FORMS)
    def test_matches_frozen_arithmetic(self, form, revin, dtype, request):
        """Bit for bit on a plain and a prepared set of 313 windows (two
        batches), for the trained model and its bake, in either dtype."""
        if dtype == "float32":
            request.getfixturevalue("float32_mode")
        values = make_rng(9).standard_normal((400, 3)).cumsum(axis=0) + 30.0
        table = SeriesTable(Tensor(values), ["a", "b", "c"])
        windows = make_windows(table, 8, 2)[:313]
        model = build_form(form, revin, table)
        for m in (model, bake(model)):
            for ws in (windows, PreparedSet(m, windows)):
                assert evaluate(m, ws) == frozen_evaluate(m, ws)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("revin", [True, False], ids=["revin", "raw"])
    @pytest.mark.parametrize("form", ["dlinear", "dlinear_folded", "mlp"])
    def test_views_match_gathered_in_place_arithmetic(self, form, revin, dtype, request):
        """On every evenly spaced subset, read as views, `evaluate` equals bit for
        bit the gather-then-normalise-in-place arithmetic, over several 64-window
        batches and a short last one, and leaves the segment as it was. `prepare`
        makes a view C-contiguous, so no product reads it in a layout BLAS refuses."""
        if dtype == "float32":
            request.getfixturevalue("float32_mode")
        values = make_rng(11).standard_normal((400, 3)).cumsum(axis=0) + 30.0
        table = SeriesTable(Tensor(values), ["a", "b", "c"])
        windows = make_windows(table, 8, 2)  # 391 windows, origins 0..390
        segment = windows.values.copy()
        model = build_form("mlp_baseline" if form == "mlp" else "dlinear_baseline", revin, table)
        if form == "dlinear_folded":
            model = bake(model)
            assert model._folded is not None
        for key in (slice(None), slice(17, 350), slice(None, None, 3), slice(5, None, 2),
                    slice(None, None, -5), slice(None, None, -1)):
            subset = windows[key]
            view = subset.batch(slice(0, 64))[0]
            assert np.shares_memory(view, windows.values) and not view.flags.writeable
            assert all(a.flags.c_contiguous for a in model.prepare(view))
            assert evaluate(model, subset, batch_size=64) == gathered_in_place_evaluate(
                model, subset, 64)
        assert windows.values.tobytes() == segment.tobytes()

    @pytest.mark.parametrize("form", TestPreparedSets.FORMS)
    def test_reads_read_only_inputs(self, form):
        """`forward` on a read-only lookback and `evaluate` on a WindowSet over
        a read-only segment, plain or prepared, give the writable inputs'
        results for the model and its bake, and write neither input."""
        values = make_rng(9).standard_normal((400, 3)).cumsum(axis=0) + 30.0
        table = SeriesTable(Tensor(values), ["a", "b", "c"])
        windows = make_windows(table, 8, 2)[:313]
        segment = windows.values.copy()
        segment.flags.writeable = False
        frozen = WindowSet(segment, windows.origins, 8, 2)
        x = windows.batch(slice(0, 5))[0]
        x_frozen = x.copy()
        x_frozen.flags.writeable = False
        model = build_form(form, True, table)
        for m in (model, bake(model)):
            with no_grad():
                out = m.forward(Tensor(x_frozen)).data
            assert out.tobytes() == m.forward(Tensor(x)).data.tobytes()
            assert evaluate(m, frozen) == evaluate(m, windows)
            assert evaluate(m, PreparedSet(m, frozen)) == evaluate(m, PreparedSet(m, windows))
            assert np.array_equal(x_frozen, x) and np.array_equal(segment, windows.values)

    def test_refuses_a_set_prepared_for_another_model(self, rng):
        model, train_w, _ = small_setup(rng)
        wider = build_baseline(DLinearBackbone(8, kernel=5), 2, 2, rng)
        raw = build_baseline(DLinearBackbone(8, kernel=3), 2, 2, rng, revin=False)
        mlp = build_baseline(MlpBackbone(8, (4,), rng=rng), 2, 2, rng)
        prepared = PreparedSet(model, train_w)
        assert (prepared.revin, prepared.reads) == (True, "decompose(kernel=3)")
        # a baked DLinear reads the lookback through its fold, not the decomposition
        for other, has in [(wider, r"revin=True, reads=decompose\(kernel=5\)"),
                           (raw, r"revin=False, reads=decompose\(kernel=3\)"),
                           (mlp, "revin=True, reads=lookback"),
                           (bake(model), "revin=True, reads=lookback")]:
            message = rf"made for revin=True, reads=decompose\(kernel=3\), but the model has {has}$"
            with pytest.raises(ValueError, match=message):
                evaluate(other, prepared)
        assert evaluate(model, prepared) == evaluate(model, train_w)
        assert evaluate(mlp, PreparedSet(bake(model), train_w)) == evaluate(mlp, train_w)
        with pytest.raises(ValueError, match=r"made for revin=True, reads=lookback, but the model "
                                             r"has revin=True, reads=decompose\(kernel=3\)$"):
            evaluate(model, PreparedSet(bake(model), train_w))
        with pytest.raises(ValueError, match=r"made for the loss; evaluate scores raw targets$"):
            evaluate(model, PreparedSet(model, train_w, for_loss=True))

    def test_generates_hyper_weights_once_per_call(self, rng, monkeypatch):
        """A 3-batch set costs a 2-slot hyper model 2 generator calls, on a plain
        and a prepared set alike; a training step between two calls shows in
        the second, which equals the per-batch form bit for bit."""
        from hnmvts import hypernet

        calls = []
        real_generate = hypernet.generate_weights

        def counting(*args):
            calls.append(args[0])
            return real_generate(*args)

        monkeypatch.setattr(hypernet, "generate_weights", counting)
        model, train_w, _ = small_setup(rng, variant="hyper")
        windows = train_w[:40]
        for ws in (windows, PreparedSet(model, windows)):
            calls.clear()
            first = evaluate(model, ws, batch_size=16)
            assert len(calls) == 2
            assert first == frozen_evaluate(model, ws, batch_size=16)
        params = model.parameters()
        x, y = windows.batch(slice(0, 16))
        x_norm, stats = revin_forward(x)
        loss = model.loss(model.prepare(x_norm), revin_apply(y, stats))
        grads = backward(loss, list(params.values()))
        adam_step(params, {name: grads[p] for name, p in params.items()}, AdamState(lr=1e-2))
        for ws in (windows, PreparedSet(model, windows)):
            second = evaluate(model, ws, batch_size=16)
            assert second != first
            assert second == frozen_evaluate(model, ws, batch_size=16)

    def test_perfect_predictions(self, rng):
        model, _, val_w = small_setup(rng)

        class Echo:
            revin = False
            backbone, horizon, channel_names = model.backbone, model.horizon, model.channel_names

            def final_weights(self):
                return []

            def forecast(self, x, weights):
                return val_w.batch(slice(None))[1].copy()

        metrics = evaluate(Echo(), val_w, batch_size=len(val_w))
        assert metrics["mse"] == 0.0 and metrics["mae"] == 0.0

    def test_constant_offset(self, rng):
        model, _, val_w = small_setup(rng)
        delta = 0.75

        class Offset:
            revin = False
            backbone, horizon, channel_names = model.backbone, model.horizon, model.channel_names

            def final_weights(self):
                return []

            def forecast(self, x, weights):
                return val_w.batch(slice(None))[1] + delta

        metrics = evaluate(Offset(), val_w, batch_size=len(val_w))
        assert metrics["mse"] == pytest.approx(delta**2, abs=1e-12)
        assert metrics["mae"] == pytest.approx(delta, abs=1e-12)

    def test_matches_flat_loop_oracle(self, rng):
        model, _, val_w = small_setup(rng)
        val_w = val_w[:3]
        metrics = evaluate(model, val_w)
        se, ae, cnt = 0.0, 0.0, 0
        from hnmvts.numcore import no_grad

        lookback, horizon = val_w.lookback, val_w.horizon
        with no_grad():
            for o in val_w.origins:
                x = val_w.values[:, o : o + lookback]
                y = val_w.values[:, o + lookback : o + lookback + horizon]
                pred = model.forward(Tensor(x)).data
                for c in range(pred.shape[0]):
                    for h in range(pred.shape[1]):
                        diff = pred[c, h] - y[c, h]
                        se += diff * diff
                        ae += abs(diff)
                        cnt += 1
        assert metrics["mse"] == pytest.approx(se / cnt, rel=1e-12)
        assert metrics["mae"] == pytest.approx(ae / cnt, rel=1e-12)

    def test_empty_set_rejected(self, rng):
        model, _, val_w = small_setup(rng)
        with pytest.raises(ValueError, match="empty"):
            evaluate(model, val_w[:0])

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, rng, batch_size):
        model, _, val_w = small_setup(rng)
        message = rf"^batch_size must be a positive integer, got {batch_size}$"
        for windows in (val_w, PreparedSet(model, val_w)):
            with pytest.raises(ValueError, match=message):
                evaluate(model, windows, batch_size=batch_size)


class TestSetSeed:
    """A run's seed fixes its RNG handle, `make_rng(seed)`."""

    def test_same_seed_same_draws(self):
        a = make_rng(42).standard_normal(5)
        b = make_rng(42).standard_normal(5)
        assert (a == b).all()

    def test_different_seeds_differ(self):
        a = make_rng(1).standard_normal(8)
        b = make_rng(2).standard_normal(8)
        assert not (a == b).all()

    def test_five_seed_protocol_distinct(self):
        draws = [tuple(make_rng(s).standard_normal(4)) for s in range(5)]
        assert len(set(draws)) == 5
