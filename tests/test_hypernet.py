from dataclasses import replace

import numpy as np
import pytest

from helpers import finite_diff_check, make_rng
from hnmvts.backbones import DLinearBackbone, MlpBackbone, apply_final, decompose, draw_fan_in
from hnmvts.data import SeriesTable, SynthSpec, gen_synthetic, make_windows
from hnmvts.hypernet import (
    ForecastModel,
    StoreError,
    bake,
    build_baseline,
    build_hyper,
    export_embeddings,
    generate_weights,
    init_embeddings,
    init_generator,
    param_count,
)
from hnmvts.normalization import EPS, revin_forward, revin_reverse
from hnmvts.numcore import (
    DimensionError,
    Tensor,
    backward,
    channel_dot,
    mse,
    no_grad,
)
from hnmvts.schema import GENERATOR_MODES, GeneratorConfig, ModelConfig

PCL = GeneratorConfig("per_channel_linear", ())


def toy_table(rng, t=64, n=3):
    return SeriesTable(
        Tensor(rng.standard_normal((t, n))), [f"c{i}" for i in range(n)]
    )


def linear_weights(z, w_phi):
    """The per_channel_linear generator's (N, H, D) output for tensors z and
    w_phi (N, d, H, D)."""
    return generate_weights("per_channel_linear", z, [w_phi], w_phi.shape[2])


def shared_mlp(z, rng, horizon, hidden, gen_hidden):
    """A freshly drawn shared_mlp generator's arrays for embeddings z, as tensors."""
    arrays = init_generator(z.data, horizon, hidden, GeneratorConfig("shared_mlp", gen_hidden), rng)
    return [Tensor(a, requires_grad=True) for a in arrays]


class TestInitEmbeddings:
    def test_identical_channels_get_identical_rows(self, rng):
        col = rng.standard_normal(80)
        vals = np.column_stack([col, col, rng.standard_normal(80)])
        table = SeriesTable(Tensor(vals), ["a", "b", "c"])
        z = init_embeddings(table, 2)
        np.testing.assert_allclose(z[0], z[1], atol=1e-12)

    def test_full_dim_preserves_row_distances(self, rng):
        table = toy_table(rng, t=128, n=5)
        from hnmvts.data import pearson_corr

        corr = pearson_corr(table)
        centered = corr - corr.mean(axis=0, keepdims=True)
        z = init_embeddings(table, 5)
        d_orig = np.linalg.norm(centered[:, None] - centered[None, :], axis=-1)
        d_proj = np.linalg.norm(z[:, None] - z[None, :], axis=-1)
        np.testing.assert_allclose(d_proj, d_orig, atol=1e-9)

    def test_grouped_data_clusters(self):
        spec = SynthSpec(n_channels=6, timesteps=4096, groups=[0, 0, 0, 1, 1, 1], rho=0.95)
        table = gen_synthetic(spec, seed=2)
        z = init_embeddings(table, 6)
        norm = z / np.linalg.norm(z, axis=1, keepdims=True)
        cos = norm @ norm.T
        within, between = [], []
        for i in range(6):
            for j in range(i + 1, 6):
                (within if (i < 3) == (j < 3) else between).append(cos[i, j])
        assert np.mean(within) > np.mean(between) + 0.3

    def test_uses_train_split_only(self, rng):
        from hnmvts.data import SplitSpec, chrono_split

        values = rng.standard_normal((100, 4))
        table = SeriesTable(Tensor(values.copy()), list("abcd"))
        train, _, _ = chrono_split(table, SplitSpec((0.7, 0.2, 0.1)))
        z1 = init_embeddings(train, 4)
        perturbed = values.copy()
        perturbed[70:] += rng.standard_normal((30, 4)) * 100  # val/test rows only
        table2 = SeriesTable(Tensor(perturbed), list("abcd"))
        train2, _, _ = chrono_split(table2, SplitSpec((0.7, 0.2, 0.1)))
        z2 = init_embeddings(train2, 4)
        assert (z1 == z2).all()

    def test_d_out_of_range(self, rng):
        with pytest.raises(ValueError):
            init_embeddings(toy_table(rng, n=3), 4)


class TestGenerateWeights:
    def test_zero_embedding_row_zeroes_weights(self, rng):
        z = rng.standard_normal((3, 2))
        z[1] = 0.0
        w = linear_weights(Tensor(z), Tensor(rng.standard_normal((3, 2, 4, 5)))).data
        np.testing.assert_array_equal(w[1], np.zeros((4, 5)))
        assert np.abs(w[0]).sum() > 0

    def test_scalar_embedding_scales_block(self, rng):
        m = rng.standard_normal((1, 4, 5))
        w = linear_weights(Tensor([[2.0]]), Tensor(m[None]))
        np.testing.assert_allclose(w.data[0], 2.0 * m[0], atol=1e-12)

    def test_matches_summation_oracle(self, rng):
        n, horizon, hidden, d = 2, 2, 3, 2
        w_phi = rng.standard_normal((n, d, horizon, hidden))
        z = rng.standard_normal((n, d))
        out = linear_weights(Tensor(z), Tensor(w_phi)).data
        expected = np.zeros((n, horizon, hidden))
        for c in range(n):
            for i in range(horizon):
                for j in range(hidden):
                    for q in range(d):
                        expected[c, i, j] += w_phi[c, q, i, j] * z[c, q]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_per_channel_linear_init_draws_d_last(self, rng):
        """w_phi takes the draws of an (N, H, D, d) array, whose d axis then
        moves to axis 1: the initial values do not depend on the stored layout."""
        z = rng.standard_normal((3, 2))
        (w_phi,) = init_generator(z, 4, 5, PCL, make_rng(7))
        drawn = make_rng(7).uniform(-1 / np.sqrt(5), 1 / np.sqrt(5), size=(3, 4, 5, 2))
        drawn /= np.linalg.norm(z, axis=1)[:, None, None, None]
        assert w_phi.shape == (3, 2, 4, 5) and w_phi.flags.c_contiguous
        assert np.array_equal(w_phi, np.moveaxis(drawn, -1, 1))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_per_channel_linear_init_matches_whole_array_form(self, request, dtype):
        """Channel by channel, the draws give the values of the whole-array
        form (draw (N, H, D, d), divide by the norms, move d to axis 1), a
        frozen copy of which is compared once both are cast to the model's
        dtype; z comes in that dtype, as `build_hyper` passes it, and one of
        its rows has a norm below the 1e-8 floor. ILI shape (N = d = 7, H 24,
        D 36)."""
        if dtype == "float32":
            request.getfixturevalue("float32_mode")
        n, d, horizon, dim = 7, 7, 24, 36
        z = make_rng(3).standard_normal((n, d)).astype(dtype)
        z[1] = 0.0
        (w_phi,) = init_generator(z, horizon, dim, PCL, make_rng(7))
        bound = 1 / np.sqrt(dim)
        base = make_rng(7).uniform(-bound, bound, size=(n, horizon, dim, d))
        norms = np.linalg.norm(z, axis=1)
        norms = np.where(norms < 1e-8, 1.0, norms)
        frozen = np.ascontiguousarray(np.moveaxis(base / norms[:, None, None, None], -1, 1))
        assert w_phi.shape == (n, d, horizon, dim) and w_phi.dtype == np.dtype(dtype)
        assert np.array_equal(Tensor(w_phi).data, Tensor(frozen).data)

    def test_shared_mlp_rowwise(self, rng):
        z = Tensor(rng.standard_normal((4, 3)))
        gen = shared_mlp(z, rng, horizon=2, hidden=3, gen_hidden=(5,))
        w = generate_weights("shared_mlp", z, gen, 2).data
        assert w.shape == (4, 2, 3)
        # same MLP on every row: equal embeddings -> equal weight slices
        z.data[2] = z.data[0]
        w2 = generate_weights("shared_mlp", z, gen, 2).data
        np.testing.assert_array_equal(w2[2], w2[0])

    def test_shared_mlp_rejects_width_below_one(self, rng):
        with pytest.raises(ValueError, match="widths must be >= 1"):
            shared_mlp(Tensor(rng.standard_normal((4, 3))), rng, 2, 3, gen_hidden=(5, 0))

    def test_mode_mismatch_rejected(self, rng):
        """A generator config that disagrees with the stored arrays is refused."""
        table = toy_table(rng)
        for mode, other in [("per_channel_linear", "shared_mlp"),
                            ("shared_mlp", "per_channel_linear")]:
            model = build_hyper(DLinearBackbone(8, 3), table, 4, rng, mode=mode)
            cfg = replace(model.config(), generator=GeneratorConfig(other, ()))
            with pytest.raises(StoreError, match="head.trend.* is missing"):
                ForecastModel(cfg, dict(model.all_arrays()))
        with pytest.raises(ValueError, match="generator.mode must be one of "
                                             '"per_channel_linear", "shared_mlp", got "bogus"'):
            ModelConfig.from_json({**model.config().to_json(),
                                   "generator": {"mode": "bogus", "hidden": []}})
        cfg = replace(model.config(), generator=GeneratorConfig("shared_mlp", (4,)))
        with pytest.raises(StoreError, match="'head.trend.mlp.0.b' is missing"):
            ForecastModel(cfg, dict(model.all_arrays()))

    def test_per_channel_linear_refuses_hidden_widths(self, rng):
        """`build_hyper` passes gen_hidden through; per_channel_linear has no hidden layer."""
        with pytest.raises(ValueError, match=r"generator.hidden must be \[\] for "
                                             r"per_channel_linear, got \[64, 32\]"):
            build_hyper(DLinearBackbone(8, 3), toy_table(rng), 4, rng,
                        mode="per_channel_linear", gen_hidden=(64, 32))
        with pytest.raises(ValueError, match=r"generator.hidden must be \[\] for "
                                             r"per_channel_linear, got \[5\]"):
            init_generator(rng.standard_normal((3, 2)), 4, 5,
                           GeneratorConfig("per_channel_linear", (5,)), rng)


class TestChannelInvariants:
    @pytest.mark.parametrize("case", range(6))
    def test_tying_per_channel_mode(self, case):
        rng = make_rng(100 + case)
        n, horizon, hidden, d = 4, 3, 5, 2
        z = rng.standard_normal((n, d))
        w_phi = rng.standard_normal((n, d, horizon, hidden))
        z[1] = z[0]
        w_phi[1] = w_phi[0]
        w = linear_weights(Tensor(z), Tensor(w_phi)).data
        np.testing.assert_array_equal(w[1], w[0])

    @pytest.mark.parametrize("case", range(6))
    def test_independence_per_channel_mode(self, case):
        rng = make_rng(200 + case)
        n, horizon, hidden, d = 3, 2, 4, 2
        z = Tensor(rng.standard_normal((n, d)), requires_grad=True)
        w_phi = Tensor(rng.standard_normal((n, d, horizon, hidden)), requires_grad=True)
        target = int(rng.integers(n))
        only_target = np.zeros((n, 1, 1))
        only_target[target] = 1.0
        w = linear_weights(z, w_phi) * Tensor(only_target)
        loss = mse(w, np.zeros(w.shape))
        grads = backward(loss, [z, w_phi])
        for other in range(n):
            if other == target:
                continue
            assert np.abs(grads[z].data[other]).max() == 0.0
            assert np.abs(grads[w_phi].data[other]).max() == 0.0


    @pytest.mark.parametrize("mode", GENERATOR_MODES)
    def test_one_channel_reaches_others_only_through_a_shared_generator(self, mode):
        """Two copies of one built model train for one epoch on tables that
        differ in channel 1 alone. One backward pass sends channel n's loss
        only to z[n] in both modes, as W[n] = z[n] B; a shared_mlp generator's
        B gets Z^T dL/dW, so from the second step on every channel's z row and
        W move with channel 1's data. per_channel_linear couples nothing: every
        other channel's z row, w_phi blocks and forecast stay bit-identical."""
        from hnmvts.trainer import TrainConfig, train

        rng = make_rng(31)
        values = rng.standard_normal((240, 4)).cumsum(axis=0)
        changed = values.copy()
        changed[:, 1] = rng.standard_normal(240).cumsum()
        tables = [SeriesTable(Tensor(v), ["a", "b", "c", "d"]) for v in (values, changed)]
        built = build_hyper(DLinearBackbone(12, kernel=5), tables[0], 4, rng, mode=mode)
        cfg = TrainConfig(lookback=12, horizon=4, batch_size=16, max_epochs=1, lr=1e-2, seed=3)
        x = Tensor(make_windows(tables[0], 12, 4)[180:].batch(slice(None))[0])
        runs = []
        for table in tables:
            model = ForecastModel(built.config(), {name: Tensor(t.data.copy())
                                                   for name, t in built.all_arrays().items()})
            windows = make_windows(table, 12, 4)
            model, history = train(model, windows[:180], windows[180:], cfg)
            assert history.best_epoch == 0
            arrays = {name: t.data for name, t in model.all_arrays().items()}
            runs.append((arrays, model.forward(x).data))
        (first, first_out), (second, second_out) = runs
        w_phis = [name for name in first if name.endswith(".w_phi")]
        assert len(w_phis) == (2 if mode == "per_channel_linear" else 0)
        assert not np.array_equal(first["embed.z"][1], second["embed.z"][1])
        for other in (0, 2, 3):
            alike = [np.array_equal(first["embed.z"][other], second["embed.z"][other]),
                     np.array_equal(first_out[..., other, :], second_out[..., other, :])]
            alike += [np.array_equal(first[name][other], second[name][other]) for name in w_phis]
            assert alike == [mode == "per_channel_linear"] * len(alike), other


class TestIdentityEmbedding:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("backbone_kind", ["dlinear", "mlp"])
    def test_trains_bit_for_bit_like_the_baseline(self, request, backbone_kind, dtype):
        """With no hidden layer a shared_mlp generator computes W = Z B. Frozen at
        Z = I, with B a baseline's final layers reshaped to (N, H*D) and that
        baseline's trunk, the model trains like the baseline bit for bit: the
        same losses, validation MSE and final arrays (ROADMAP item 2)."""
        from hnmvts.trainer import TrainConfig, train

        if dtype == "float32":
            request.getfixturevalue("float32_mode")
        n, lookback, horizon = 5, 24, 8
        rng = make_rng(61)
        table = toy_table(rng, t=300, n=n)
        bb = DLinearBackbone(lookback, 5) if backbone_kind == "dlinear" else MlpBackbone(
            lookback, (16,), rng=rng)
        baseline = build_baseline(bb, n, horizon, rng)
        hyper_cfg = build_hyper(bb, table, horizon, rng, mode="shared_mlp",
                                learnable_z=False).config()
        arrays = {name: Tensor(t.data.copy()) for name, t in bb.parameters().items()}
        arrays["embed.z"] = Tensor(np.eye(n))
        for slot, dim in bb.slots:
            final = baseline.all_arrays()[f"final.{slot}.w"].data
            arrays[f"head.{slot}.mlp.0.w"] = Tensor(final.reshape(n, horizon * dim).copy())
        hyper = ForecastModel(hyper_cfg, arrays)
        windows = make_windows(table, lookback, horizon)
        cfg = TrainConfig(lookback=lookback, horizon=horizon, batch_size=16, max_epochs=4,
                          lr=1e-2, seed=2)
        (baseline, base_history), (hyper, hyper_history) = (
            train(model, windows[:200], windows[200:], cfg) for model in (baseline, hyper))
        assert hyper_history.train_loss == base_history.train_loss
        assert hyper_history.val_mse == base_history.val_mse
        trained, want = hyper.all_arrays(), baseline.all_arrays()
        assert np.array_equal(trained["embed.z"].data, np.eye(n))
        for name in bb.shapes():
            assert trained[name].data.tobytes() == want[name].data.tobytes(), name
        for slot, dim in bb.slots:
            generated = trained[f"head.{slot}.mlp.0.w"].data.reshape(n, horizon, dim)
            assert generated.tobytes() == want[f"final.{slot}.w"].data.tobytes(), slot


# (N, T, H, backbone, d, shared_mlp hidden widths) at the benchmark's three
# workload shapes: ETTm2 and ILI with DLinear, Weather with an MLP trunk
BENCH_SHAPES = {
    "ettm2_dlinear": (7, 336, 96, "dlinear", 7, (16,)),
    "weather_mlp": (21, 96, 96, "mlp", 8, (64,)),
    "ili_dlinear": (7, 36, 24, "dlinear", 7, (16,)),
}


BENCH_FORMS = ["baseline", "per_channel_linear", "shared_mlp", "baked"]


class TestSharedMlpInit:
    """A shared_mlp generator's W starts at a plain final layer's scale (ROADMAP
    item 1a): its std over every channel lies within 10% of U(-1/sqrt(D),
    1/sqrt(D))'s, at the benchmark's shapes, without a hidden layer (the
    benchmark's DLinear forms) and with one (its weather form)."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("hidden", ["none", "hidden"])
    @pytest.mark.parametrize("shape", list(BENCH_SHAPES))
    def test_generated_weights_match_a_plain_layer(self, request, shape, hidden, dtype):
        if dtype == "float32":
            request.getfixturevalue("float32_mode")
        n, lookback, horizon, kind, d, gen_hidden = BENCH_SHAPES[shape]
        rng = make_rng(4101)
        bb = DLinearBackbone(lookback, 25) if kind == "dlinear" else MlpBackbone(
            lookback, (256, 128), rng=rng)
        table = gen_synthetic(SynthSpec(n, 400, groups=[c % 3 for c in range(n)], rho=0.7), 4101)
        model = build_hyper(bb, table, horizon, rng, d=d, mode="shared_mlp",
                            gen_hidden=gen_hidden if hidden == "hidden" else ())
        with no_grad():
            weights = [w.data for w in model.final_weights()]
        for (slot, dim), w in zip(bb.slots, weights):
            assert w.dtype == np.dtype(dtype) and w.shape == (n, horizon, dim)
            ratio = float(np.std(w, dtype=np.float64)) * np.sqrt(3 * dim)
            assert abs(ratio - 1) < 0.10, (slot, ratio)

    def test_keeps_the_fan_in_draws(self):
        """Only the output layer moves, by one factor: the hidden layers and the
        rng stream are the fan-in draws."""
        z = make_rng(5).standard_normal((4, 3))
        cfg = GeneratorConfig("shared_mlp", (6,))
        rng, want_rng = make_rng(9), make_rng(9)
        got = init_generator(z, 2, 5, cfg, rng)
        want = list(draw_fan_in(want_rng, {"a.0.w": (3, 6), "a.0.b": (6,), "a.1.w": (6, 10)}
                                ).values())
        assert rng.random() == want_rng.random()  # the stream continues where it would have
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        factor = got[2] / want[2]
        np.testing.assert_allclose(factor, factor.flat[0], rtol=1e-13)


def bench_model(shape, form, rng):
    """A fresh model of `form` at a `BENCH_SHAPES` shape, drawn from `rng`: a
    baseline, a hyper model of either generator, or a baked per_channel_linear
    one (folded, when the backbone is DLinear)."""
    n, lookback, horizon, kind, d, gen_hidden = BENCH_SHAPES[shape]
    bb = DLinearBackbone(lookback, 25) if kind == "dlinear" else MlpBackbone(
        lookback, (256, 128), rng=rng)
    if form == "baseline":
        return build_baseline(bb, n, horizon, rng)
    mode = "per_channel_linear" if form == "baked" else form
    model = build_hyper(bb, toy_table(rng, t=200, n=n), horizon, rng, d=d, mode=mode,
                        gen_hidden=gen_hidden if mode == "shared_mlp" else ())
    return bake(model) if form == "baked" else model


def permuted(model, perm):
    """`model` with its channels in the order `perm`: `channel_names` and the
    rows of every per-channel array (`final.*.w`, `embed.z`, `w_phi`) move;
    the trunk and a shared_mlp generator serve every channel and stay."""
    cfg = model.config()
    cfg = replace(cfg, channel_names=tuple(cfg.channel_names[i] for i in perm))
    arrays = {}
    for name, t in model.all_arrays().items():
        moves = name.startswith("final.") or name == "embed.z" or name.endswith(".w_phi")
        arrays[name] = Tensor(t.data[perm] if moves else t.data.copy())
    return ForecastModel(cfg, arrays)


class TestChannelPermutation:
    """A fixed model is equivariant to reordering its channels, to within a
    tolerance that leaves room for a change of rounding (ROADMAP item 9)."""

    TOLERANCE = {"float64": 1e-12, "float32": 1e-5}

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("form", BENCH_FORMS)
    @pytest.mark.parametrize("shape", list(BENCH_SHAPES))
    def test_forecast_permutes_with_the_channels(self, request, shape, form, dtype):
        if dtype == "float32":
            request.getfixturevalue("float32_mode")
        rng = make_rng(71)
        model = bench_model(shape, form, rng)
        n, lookback, horizon = BENCH_SHAPES[shape][:3]
        perm = rng.permutation(n)
        assert (perm != np.arange(n)).any()
        x = rng.standard_normal((4, n, lookback)) * 3.0 + 10.0
        with no_grad():
            out = model.forward(Tensor(x)).data
            moved = permuted(model, perm).forward(Tensor(x[:, perm])).data
        assert moved.shape == out.shape == (4, n, horizon)
        assert np.abs(moved - out[:, perm]).max() <= self.TOLERANCE[dtype] * np.abs(out).max()


class TestRevinAffine:
    """With RevIN, forecast(a x + b) = a forecast(x) + b for each channel's a > 0
    and b (ROADMAP item 9). A DLinear model is linear after RevIN, so EPS
    cancels and only rounding separates the sides: 1e-12 of the largest
    forecast in float64 and 1e-5 in float32. An MLP trunk sees its input
    scaled by a (std + EPS) / (a std + EPS), a change of EPS's share; there
    the sides may also differ by MLP_SHARE of the largest forecast (about
    1e-7 at these shapes and inputs)."""

    TOLERANCE = {"float64": 1e-12, "float32": 1e-5}
    MLP_SHARE = EPS / 10

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("form", BENCH_FORMS)
    @pytest.mark.parametrize("shape", list(BENCH_SHAPES))
    def test_forecast_moves_with_the_lookback(self, request, shape, form, dtype):
        if dtype == "float32":
            request.getfixturevalue("float32_mode")
        rng = make_rng(72)
        model = bench_model(shape, form, rng)
        n, lookback, _, kind = BENCH_SHAPES[shape][:4]
        x = rng.standard_normal((4, n, lookback)) * 3.0 + 10.0
        a = np.exp(rng.uniform(-2.0, 2.0, (4, n, 1)))
        b = rng.uniform(-50.0, 50.0, (4, n, 1))
        with no_grad():
            out = model.forward(Tensor(x)).data
            moved = model.forward(Tensor(a * x + b)).data
        expected = a * out + b
        bound = self.TOLERANCE[dtype]
        if kind == "mlp":
            bound = max(bound, self.MLP_SHARE)
        assert np.abs(moved - expected).max() <= bound * np.abs(expected).max()


class TestHyperForward:
    def test_zero_generator_gives_lookback_means(self, rng):
        table = toy_table(rng, t=64, n=3)
        bb = DLinearBackbone(lookback=8, kernel=3)
        model = build_hyper(bb, table, horizon=4, rng=rng)
        for name, t in model.all_arrays().items():
            if name.startswith("head."):
                t.data[:] = 0.0
        x = rng.standard_normal((3, 8))
        out = model.forward(Tensor(x))
        means = x.mean(axis=1, keepdims=True)
        np.testing.assert_allclose(out.data, np.broadcast_to(means, (3, 4)), atol=1e-10)

    def test_single_channel_hand_composition(self):
        # identity-style backbone: DLinear kernel 1 makes trend = x, seasonal = 0
        w_phi_t = np.zeros((1, 2, 2, 3))
        w_phi_t[0, 0] = [[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]]
        w_phi_s = np.zeros((1, 2, 2, 3))
        cfg = ModelConfig.from_json({
            "variant": "hyper", "revin": False, "horizon": 2, "channel_names": ["ch0"],
            "backbone": DLinearBackbone(lookback=3, kernel=1).config(),
            "embedding": {"dim": 2, "learnable": True},
            "generator": {"mode": "per_channel_linear", "hidden": []},
        })
        model = ForecastModel(cfg, {
            "embed.z": Tensor([[1.0, -1.0]]),
            "head.trend.w_phi": Tensor(w_phi_t),
            "head.seasonal.w_phi": Tensor(w_phi_s),
        })
        x = np.array([[1.0, 2.0, 3.0]])
        # W_trend = w_phi . z = [[1,0,2],[0,1,0]]; y = W @ x
        expected = np.array([[1 * 1 + 2 * 3.0, 2.0]])
        out = model.forward(Tensor(x))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_gradient_through_everything(self, rng):
        table = toy_table(rng, t=48, n=2)
        bb = DLinearBackbone(lookback=6, kernel=3)
        model = build_hyper(bb, table, horizon=2, rng=rng, d=2)
        x = Tensor(rng.standard_normal((2, 6)))
        y = Tensor(rng.standard_normal((2, 2)))
        params = list(model.parameters().values())

        def loss():
            return mse(model.forward(x), y.data)

        assert finite_diff_check(loss, params) < 1e-4


class TestBake:
    @pytest.mark.parametrize("backbone_kind", ["dlinear", "mlp"])
    @pytest.mark.parametrize("mode", ["per_channel_linear", "shared_mlp"])
    def test_bake_equivalence(self, rng, backbone_kind, mode):
        table = toy_table(rng, t=64, n=3)
        if backbone_kind == "dlinear":
            bb = DLinearBackbone(lookback=8, kernel=3)
        else:
            bb = MlpBackbone(lookback=8, hidden_widths=(6,), rng=rng)
        model = build_hyper(bb, table, horizon=4, rng=rng, mode=mode,
                            gen_hidden=(4,) if mode == "shared_mlp" else ())
        baked = bake(model)
        for _ in range(20):
            x = Tensor(rng.standard_normal((3, 8)))
            np.testing.assert_allclose(
                model.forward(x).data, baked.forward(x).data, atol=1e-10
            )

    def test_idempotent(self, rng):
        table = toy_table(rng)
        model = build_hyper(DLinearBackbone(8, 3), table, horizon=2, rng=rng)
        baked = bake(model)
        again = bake(baked)
        assert again is baked
        assert list(again.all_arrays()) == ["final.trend.w", "final.seasonal.w"]

    def test_baked_count_equals_baseline(self, rng):
        table = toy_table(rng, n=3)
        horizon = 4
        bb = DLinearBackbone(lookback=8, kernel=3)
        hyper = build_hyper(bb, table, horizon=horizon, rng=rng)
        baked = bake(hyper)
        baseline = build_baseline(DLinearBackbone(8, 3), 3, horizon, rng)
        assert baked.param_count() == baseline.param_count()
        assert sorted(baked.all_arrays()) == sorted(baseline.all_arrays())

    def test_bake_detaches_from_training(self, rng):
        table = toy_table(rng)
        model = build_hyper(DLinearBackbone(8, 3), table, horizon=2, rng=rng)
        baked = bake(model)
        x = Tensor(rng.standard_normal((3, 8)))
        before = baked.forward(x).data.copy()
        for name, t in model.all_arrays().items():
            if name.startswith("head."):
                t.data[:] += 1.0
        np.testing.assert_array_equal(baked.forward(x).data, before)

    def test_baked_dlinear_serves_the_fold(self, rng, monkeypatch):
        """The centred fold gives RevIN around apply_final(decompose(x)) on the
        same arrays, and never runs RevIN or the decomposition."""
        baked = bake(build_hyper(DLinearBackbone(30, 25), toy_table(rng, t=128), 6, rng))
        finals = [baked.all_arrays()[f"final.{s}.w"] for s in ("trend", "seasonal")]
        x = Tensor(rng.standard_normal((5, 3, 30)) * 4.0 + 2.0)
        x_norm, stats = revin_forward(x.data)
        hidden = [Tensor(h) for h in decompose(x_norm, 25)]
        expected = revin_reverse(apply_final(finals, hidden), stats)

        def unfolded(*args):
            raise AssertionError("a baked DLinear ran the decomposition")

        def scaled(*args):
            raise AssertionError("a baked DLinear ran RevIN")

        monkeypatch.setattr(DLinearBackbone, "prepare", unfolded)
        monkeypatch.setattr(DLinearBackbone, "forward_hidden", unfolded)
        monkeypatch.setattr("hnmvts.hypernet.revin_forward", scaled)
        monkeypatch.setattr("hnmvts.hypernet.revin_reverse", scaled)
        np.testing.assert_allclose(baked.forward(x).data, expected.data, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("lookback", [2, 7, 9])
    def test_baked_dlinear_wrong_lookback(self, rng, lookback):
        baked = bake(build_hyper(DLinearBackbone(8, 3), toy_table(rng), 4, rng))
        with pytest.raises(DimensionError):
            baked.forward(Tensor(rng.standard_normal((2, 3, lookback))))

    @pytest.mark.parametrize("backbone_kind", ["dlinear", "mlp"])
    def test_baked_finals_read_only(self, rng, backbone_kind):
        """A write to a baked final layer raises instead of leaving its fold stale."""
        bb = DLinearBackbone(8, 3) if backbone_kind == "dlinear" else MlpBackbone(8, (6,), rng=rng)
        baked = bake(build_hyper(bb, toy_table(rng), 4, rng))
        for name, t in baked.all_arrays().items():
            if name.startswith("final."):
                with pytest.raises(ValueError, match="read-only"):
                    t.data[0] += 1.0

    @pytest.mark.parametrize("level", [0.0, 1e3])
    def test_centred_serve_matches_hyper(self, rng, level):
        """On a table offset by `level`, the centred fold keeps float64 bake
        equivalence to 1e-10 of the level's scale."""
        self.check_offset_equivalence(rng, level, 1e-10)

    @pytest.mark.parametrize("level", [0.0, 1e3])
    def test_centred_serve_matches_hyper_float32(self, float32_mode, level):
        self.check_offset_equivalence(make_rng(77), level, 1e-5)

    @staticmethod
    def check_offset_equivalence(rng, level, tol):
        values = rng.standard_normal((160, 3)) + level
        table = SeriesTable(Tensor(values), ["a", "b", "c"])
        model = build_hyper(DLinearBackbone(30, 25), table, 6, rng)
        baked = bake(model)
        x, _ = make_windows(table, 30, 6).batch(slice(0, 120))
        err = np.abs(model.forward(Tensor(x)).data - baked.forward(Tensor(x)).data).max()
        assert err <= tol * max(1.0, abs(level))

    @pytest.mark.parametrize("level", [0.0, 2.5, -40.0, 1e3])
    def test_constant_window_forecasts_its_level(self, rng, level):
        baked = bake(build_hyper(DLinearBackbone(30, 25), toy_table(rng, t=128), 6, rng))
        levels = level + np.arange(3.0)
        x = np.broadcast_to(levels[:, None], (4, 3, 30)).copy()
        out = baked.forward(Tensor(x)).data
        np.testing.assert_allclose(out, np.broadcast_to(levels[:, None], out.shape),
                                   rtol=0, atol=1e-12)

    def test_baked_dlinear_without_revin_serves_the_plain_fold(self, rng):
        hyper = build_hyper(DLinearBackbone(30, 25), toy_table(rng, t=128), 6, rng, revin=False)
        baked = bake(hyper)
        finals = [baked.all_arrays()[f"final.{s}.w"].data for s in ("trend", "seasonal")]
        folded = baked.backbone.fold(*finals)
        x = Tensor(rng.standard_normal((5, 3, 30)) * 4.0 + 2.0)
        np.testing.assert_allclose(baked.forward(x).data, channel_dot([Tensor(folded)], [x]).data,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(baked.forward(x).data, hyper.forward(x).data, atol=1e-10)

    @pytest.mark.parametrize("backbone_kind", ["dlinear", "mlp"])
    def test_baseline_bakes_to_copies_of_its_finals(self, rng, backbone_kind):
        """A baked DLinear baseline serves the centred fold to 1e-10; an MLP
        baseline, which does not fold, bakes bit-identically."""
        bb = DLinearBackbone(8, 3) if backbone_kind == "dlinear" else MlpBackbone(8, (6,), rng=rng)
        baseline = build_baseline(bb, 3, 4, rng)
        baked = bake(baseline)
        assert baked.variant == "baked" and baked.config().variant == "baked"
        assert list(baked.all_arrays()) == list(baseline.all_arrays())
        for name, t in baked.all_arrays().items():
            source = baseline.all_arrays()[name]
            assert t is not source and not np.shares_memory(t.data, source.data)
            np.testing.assert_array_equal(t.data, source.data)
        x = Tensor(rng.standard_normal((7, 3, 8)) * 3.0 + 5.0)
        if backbone_kind == "dlinear":
            np.testing.assert_allclose(baked.forward(x).data, baseline.forward(x).data,
                                       rtol=0, atol=1e-10)
        else:
            np.testing.assert_array_equal(baked.forward(x).data, baseline.forward(x).data)

    def test_bake_equivalence_float32(self, float32_mode):
        rng = make_rng(77)
        table = SeriesTable(
            Tensor(rng.standard_normal((64, 3))), ["a", "b", "c"]
        )
        model = build_hyper(DLinearBackbone(8, 3), table, horizon=4, rng=rng)
        baked = bake(model)
        for _ in range(10):
            x = Tensor(rng.standard_normal((3, 8)))
            np.testing.assert_allclose(
                model.forward(x).data, baked.forward(x).data, atol=1e-5
            )


def frozen_folded_forward(baked, x):
    """Frozen copy of the folded forward from before it served on plain arrays:
    the fold through `apply_final` on Tensors, the mean added by a Tensor op."""
    finals = [baked.all_arrays()[f"final.{slot}.w"].data for slot, _ in baked.backbone.slots]
    folded = Tensor(baked.backbone.fold(*finals))
    if not baked.revin:
        return apply_final([folded], [Tensor(x.data)])
    mean = x.data.mean(axis=-1, keepdims=True)
    return apply_final([folded], [Tensor(x.data - mean)]) + mean


class TestFoldedServe:
    """A baked DLinear serves on plain arrays, bit-identical to the Tensor form."""

    SHAPES = [(), (1,), (64,), (1, 3)]

    @staticmethod
    def baked(form, revin, seed=5):
        """A baked DLinear at the ILI shape (N 7, T 36, H 24, kernel 25)."""
        rng = make_rng(seed)
        table = toy_table(rng, t=200, n=7)
        bb = DLinearBackbone(36, 25)
        if form == "baseline":
            model = build_baseline(bb, 7, 24, rng, revin=revin)
        else:
            model = build_hyper(bb, table, 24, rng, mode=form, revin=revin,
                                gen_hidden=(5,) if form == "shared_mlp" else ())
        return bake(model)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("revin", [True, False], ids=["revin", "raw"])
    @pytest.mark.parametrize("form", ["baseline", "per_channel_linear", "shared_mlp"])
    def test_matches_frozen_tensor_form(self, request, form, revin, dtype):
        if dtype == "float32":
            request.getfixturevalue("float32_mode")
        baked = self.baked(form, revin)
        rng = make_rng(8)
        for batch in self.SHAPES:
            x = Tensor(rng.standard_normal((*batch, 7, 36)) * 3.0 + 40.0)
            out, want = baked.forward(x), frozen_folded_forward(baked, x)
            assert out.shape == (*batch, 7, 24) and out.data.dtype == want.data.dtype
            assert np.array_equal(out.data, want.data), batch

    @pytest.mark.parametrize("revin", [True, False], ids=["revin", "raw"])
    def test_input_untouched_and_output_off_the_graph(self, revin):
        baked = self.baked("per_channel_linear", revin)
        x = Tensor(make_rng(3).standard_normal((4, 7, 36)) + 2.0)
        before = x.data.copy()
        for out in (baked.forward(x), baked.forward_prepared(baked.prepare(x.data))):
            assert np.array_equal(x.data, before)
            assert not np.shares_memory(out.data, x.data)
            assert not out.requires_grad and out._parents == ()


def every_form(rng):
    """Both backbones in every variant, generator mode and learnable_z setting."""
    table = toy_table(rng)
    for kind in ("dlinear", "mlp"):
        def backbone():
            return DLinearBackbone(8, 3) if kind == "dlinear" else MlpBackbone(8, (6,), rng=rng)

        yield build_baseline(backbone(), 3, 4, rng)
        for mode in GENERATOR_MODES:
            for learnable in (True, False):
                hyper = build_hyper(backbone(), table, 4, rng, mode=mode,
                                    gen_hidden=(5,) if mode == "shared_mlp" else (),
                                    learnable_z=learnable)
                yield hyper
                yield bake(hyper)


class TestWalker:
    def check(self, model):
        arrays = model.all_arrays()
        frozen = set()
        if model.variant == "baked":
            frozen = {name for name in arrays if name.startswith("final.")}
        if model.variant == "hyper" and not model.config().embedding.learnable:
            frozen = {"embed.z"}
        params = model.parameters()
        assert list(params) == [name for name in arrays if name not in frozen]
        assert all(params[name] is arrays[name] and params[name].requires_grad
                   for name in params)
        hyper = model.hyper_parameters()
        assert list(hyper) == [name for name in params if name.startswith(("embed.", "head."))]
        assert all(hyper[name] is params[name] for name in hyper)
        if model.variant != "hyper":
            assert not hyper

    def test_filters_agree_with_all_arrays(self, rng, tmp_path):
        from hnmvts.checkpoint import load_checkpoint, save_checkpoint

        models = list(every_form(rng))
        assert len(models) == 18
        for i, model in enumerate(models):
            self.check(model)
            path = tmp_path / f"m{i}.npz"
            save_checkpoint(model, path)
            loaded, _ = load_checkpoint(path)
            assert list(loaded.all_arrays()) == list(model.all_arrays())
            self.check(loaded)


class TestStore:
    def test_misshaped_array_named(self, rng):
        for model in every_form(rng):
            cfg, arrays = model.config(), model.all_arrays()
            for name, t in arrays.items():
                cut = dict(arrays, **{name: Tensor(t.data[..., :-1])})
                with pytest.raises(StoreError, match="has shape") as info:
                    ForecastModel(cfg, cut)
                assert info.value.name == name

    def test_missing_and_foreign_arrays_named(self, rng):
        for model in every_form(rng):
            cfg, arrays = model.config(), model.all_arrays()
            for name in arrays:
                with pytest.raises(StoreError, match=f"'{name}' is missing"):
                    ForecastModel(cfg, {k: t for k, t in arrays.items() if k != name})
            extra = "embed.z" if model.variant != "hyper" else "final.out.w"
            with pytest.raises(StoreError, match=f"'{extra}' is not part of a {model.variant}"):
                ForecastModel(cfg, dict(arrays, **{extra: Tensor(np.zeros(3))}))


class TestParamCount:
    def test_paper_shape(self):
        # N=7, H=48, D=336, d=7, one head, learnable Z
        assert param_count(7, 48, 336, 7, learnable_z=True, heads=1) == 790_321
        assert 7 * 48 * 336 * 7 + 7 * 7 == 790_321

    def test_frozen_z_drops_nd(self):
        assert param_count(7, 48, 336, 7, learnable_z=False, heads=1) == 790_272

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_runtime_enumeration(self, seed):
        rng = make_rng(seed)
        n = int(rng.integers(2, 6))
        horizon = int(rng.integers(1, 5))
        lookback = int(rng.integers(6, 12))
        d = int(rng.integers(1, n + 1))
        learnable = bool(rng.integers(2))
        mode = ["per_channel_linear", "shared_mlp"][int(rng.integers(2))]
        gen_hidden = (int(rng.integers(2, 7)),) if mode == "shared_mlp" else ()
        table = toy_table(rng, t=lookback * 4, n=n)
        bb = DLinearBackbone(lookback, kernel=3)
        model = build_hyper(
            bb, table, horizon, rng, d=d, mode=mode, gen_hidden=gen_hidden,
            learnable_z=learnable,
        )
        counted = sum(t.size for t in model.hyper_parameters().values())
        formula = param_count(
            n, horizon, lookback, d, learnable_z=learnable, mode=mode,
            heads=2, gen_hidden=gen_hidden,
        )
        assert counted == formula


def test_embedding_export(tmp_path, rng):
    table = toy_table(rng, n=3)
    model = build_hyper(DLinearBackbone(8, 3), table, horizon=2, rng=rng)
    out = tmp_path / "emb.csv"
    export_embeddings(model, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "channel,z0,z1,z2"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "c0"
    np.testing.assert_allclose(
        [float(v) for v in first[1:]], model.all_arrays()["embed.z"].data[0], atol=0
    )
