import numpy as np
import pytest

from hnmvts.backbones import DLinearBackbone, MlpBackbone, apply_final, decompose
from hnmvts.data import SeriesTable, SynthSpec, gen_synthetic, make_windows
from hnmvts.hypernet import (
    GENERATOR_MODES,
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
from hnmvts.normalization import revin_forward, revin_reverse
from hnmvts.numcore import (
    DimensionError,
    Tensor,
    backward,
    finite_diff_check,
    make_rng,
    channel_dot,
    square,
    tsum,
)


def toy_table(rng, t=64, n=3):
    return SeriesTable(
        Tensor(rng.standard_normal((t, n))), [f"c{i}" for i in range(n)]
    )


def linear_weights(z, w_phi):
    """The per_channel_linear generator's (N, H, D) output for tensors z and w_phi."""
    return generate_weights("per_channel_linear", z, [w_phi], w_phi.shape[1])


def shared_mlp(z, rng, horizon, hidden, gen_hidden):
    """A freshly drawn shared_mlp generator's arrays for embeddings z, as tensors."""
    arrays = init_generator(z.data, horizon, hidden, "shared_mlp", rng, gen_hidden)
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
        w = linear_weights(Tensor(z), Tensor(rng.standard_normal((3, 4, 5, 2)))).data
        np.testing.assert_array_equal(w[1], np.zeros((4, 5)))
        assert np.abs(w[0]).sum() > 0

    def test_scalar_embedding_scales_block(self, rng):
        m = rng.standard_normal((4, 5, 1))
        w = linear_weights(Tensor([[2.0]]), Tensor(m[None]))
        np.testing.assert_allclose(w.data[0], 2.0 * m[..., 0], atol=1e-12)

    def test_matches_summation_oracle(self, rng):
        n, horizon, hidden, d = 2, 2, 3, 2
        w_phi = rng.standard_normal((n, horizon, hidden, d))
        z = rng.standard_normal((n, d))
        out = linear_weights(Tensor(z), Tensor(w_phi)).data
        expected = np.zeros((n, horizon, hidden))
        for c in range(n):
            for i in range(horizon):
                for j in range(hidden):
                    for q in range(d):
                        expected[c, i, j] += w_phi[c, i, j, q] * z[c, q]
        np.testing.assert_allclose(out, expected, atol=1e-12)

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
            cfg = model.config()
            cfg["generator"]["mode"] = other
            with pytest.raises(StoreError, match="head.trend.* is missing"):
                ForecastModel(cfg, dict(model.all_arrays()))
        cfg["generator"]["mode"] = "bogus"
        with pytest.raises(ValueError, match="unknown generator mode 'bogus'"):
            ForecastModel(cfg, dict(model.all_arrays()))
        cfg = model.config()
        cfg["generator"]["hidden"] = [4]
        with pytest.raises(StoreError, match="'head.trend.mlp.0.b' is missing"):
            ForecastModel(cfg, dict(model.all_arrays()))

    def test_per_channel_linear_refuses_hidden_widths(self, rng):
        """`build_hyper` passes gen_hidden through; per_channel_linear has no hidden layer."""
        with pytest.raises(ValueError, match=r"generator.hidden must be \[\] for "
                                             r"per_channel_linear, got \[64, 32\]"):
            build_hyper(DLinearBackbone(8, 3), toy_table(rng), 4, rng,
                        mode="per_channel_linear", gen_hidden=(64, 32))


class TestChannelInvariants:
    @pytest.mark.parametrize("case", range(6))
    def test_tying_per_channel_mode(self, case):
        rng = make_rng(100 + case)
        n, horizon, hidden, d = 4, 3, 5, 2
        z = rng.standard_normal((n, d))
        w_phi = rng.standard_normal((n, horizon, hidden, d))
        z[1] = z[0]
        w_phi[1] = w_phi[0]
        w = linear_weights(Tensor(z), Tensor(w_phi)).data
        np.testing.assert_array_equal(w[1], w[0])

    @pytest.mark.parametrize("case", range(6))
    def test_independence_per_channel_mode(self, case):
        rng = make_rng(200 + case)
        n, horizon, hidden, d = 3, 2, 4, 2
        z = Tensor(rng.standard_normal((n, d)), requires_grad=True)
        w_phi = Tensor(rng.standard_normal((n, horizon, hidden, d)), requires_grad=True)
        target = int(rng.integers(n))
        only_target = np.zeros((n, 1, 1))
        only_target[target] = 1.0
        loss = tsum(square(linear_weights(z, w_phi) * Tensor(only_target)))
        grads = backward(loss, [z, w_phi])
        for other in range(n):
            if other == target:
                continue
            assert np.abs(grads[z].data[other]).max() == 0.0
            assert np.abs(grads[w_phi].data[other]).max() == 0.0


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
        w_phi_t = np.zeros((1, 2, 3, 2))
        w_phi_t[0, :, :, 0] = [[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]]
        w_phi_s = np.zeros((1, 2, 3, 2))
        cfg = {
            "variant": "hyper", "revin": False, "horizon": 2, "channel_names": ["ch0"],
            "backbone": DLinearBackbone(lookback=3, kernel=1).config(),
            "embedding": {"dim": 2, "learnable": True},
            "generator": {"mode": "per_channel_linear", "hidden": []},
        }
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
            from hnmvts.numcore import tmean

            return tmean(square(model.forward(x) - y))

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
        np.testing.assert_allclose(baked.forward(x).data, channel_dot(folded, x).data,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(baked.forward(x).data, hyper.forward(x).data, atol=1e-10)

    @pytest.mark.parametrize("backbone_kind", ["dlinear", "mlp"])
    def test_baseline_bakes_to_copies_of_its_finals(self, rng, backbone_kind):
        """A baked DLinear baseline serves the centred fold to 1e-10; an MLP
        baseline, which does not fold, bakes bit-identically."""
        bb = DLinearBackbone(8, 3) if backbone_kind == "dlinear" else MlpBackbone(8, (6,), rng=rng)
        baseline = build_baseline(bb, 3, 4, rng)
        baked = bake(baseline)
        assert baked.variant == "baked" and baked.config()["variant"] == "baked"
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
        if model.variant == "hyper" and not model.config()["embedding"]["learnable"]:
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
