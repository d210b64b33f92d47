import re

import numpy as np
import pytest

from hnmvts.backbones import DLinearBackbone, MlpBackbone
from hnmvts.data import SeriesTable, WindowSet, make_windows
from hnmvts.hypernet import bake, build_baseline, build_hyper
from hnmvts.numcore import Tensor, make_rng
from hnmvts.trainer import TrainConfig, TrainingError, evaluate, train


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

        def tracking_batch_loss(model, xb, yb):
            calls.append(sum(f.alive for f in finalizers))
            loss = real_batch_loss(model, xb, yb)
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


class TestEvaluate:
    def test_perfect_predictions(self, rng):
        model, _, val_w = small_setup(rng)

        class Echo:
            revin = False

            def forward(self, x):
                return Tensor(val_w.batch(slice(None))[1])

        metrics = evaluate(Echo(), val_w, batch_size=len(val_w))
        assert metrics["mse"] == 0.0 and metrics["mae"] == 0.0

    def test_constant_offset(self, rng):
        _, _, val_w = small_setup(rng)
        delta = 0.75

        class Offset:
            revin = False

            def forward(self, x):
                return Tensor(val_w.batch(slice(None))[1] + delta)

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
