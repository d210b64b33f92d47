"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale dataset
criteria (5 and 7) need the ETTm2 CSV; point HNMVTS_ETTM2 at the file or
drop it at data/ETTm2.csv. Without it those two tests skip and every
property-based criterion still runs.
"""

import itertools
import os
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import finite_diff_check, make_rng
from hnmvts.backbones import DLinearBackbone, MlpBackbone
from hnmvts.data import (
    SeriesTable,
    SplitSpec,
    SynthSpec,
    chrono_split,
    gen_synthetic,
    load_csv,
    make_windows,
)
from hnmvts.bench.stats import wilcoxon_signed_rank
from hnmvts.hypernet import (
    bake,
    build_baseline,
    build_hyper,
    generate_weights,
    init_generator,
    param_count,
)
from hnmvts.normalization import revin_apply
from hnmvts.numcore import (
    Tensor,
    backward,
    mse,
    no_grad,
)
from hnmvts.schema import GeneratorConfig
from hnmvts.trainer import TrainConfig, evaluate, train

ETTM2_ENV = "HNMVTS_ETTM2"
ETTM2_BASELINE_REFERENCE = 0.1641
ETTM2_HN_REFERENCE = 0.1626


def report(criterion: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion} ({name}): {status} - {detail}")


def random_table(rng, t, n):
    values = rng.standard_normal((t, n)).cumsum(axis=0) * 0.1 + rng.standard_normal(n)
    return SeriesTable(Tensor(values), [f"c{i}" for i in range(n)])


def random_hyper_model(rng, *, backbone_kind, mode, revin=True):
    n = int(rng.integers(2, 5))
    lookback = int(rng.integers(6, 17))
    horizon = int(rng.integers(1, 5))
    d = int(rng.integers(1, n + 1))
    table = random_table(rng, max(4 * lookback, 40), n)
    if backbone_kind == "dlinear":
        kernel = int(rng.choice([1, 3, 5]))
        backbone = DLinearBackbone(lookback, kernel)
    else:
        width = int(rng.integers(3, 9))
        backbone = MlpBackbone(lookback, (width,), rng=rng)
    gen_hidden = (int(rng.integers(2, 6)),) if mode == "shared_mlp" and rng.integers(2) else ()
    model = build_hyper(
        backbone, table, horizon, rng, d=d, mode=mode, gen_hidden=gen_hidden, revin=revin
    )
    return model, n, lookback, horizon


def test_criterion_1_bake_equivalence():
    rng = make_rng(10)
    cases = 0
    worst = 0.0
    for backbone_kind in ("dlinear", "mlp"):
        for mode in ("per_channel_linear", "shared_mlp"):
            for _ in range(25):
                model, n, lookback, _ = random_hyper_model(
                    rng, backbone_kind=backbone_kind, mode=mode
                )
                baked = bake(model)
                x = Tensor(rng.standard_normal((n, lookback)))
                diff = np.abs(model.forward(x).data - baked.forward(x).data).max()
                worst = max(worst, diff)
                cases += 1
    ok = cases == 100 and worst < 1e-10
    report(1, "bake equivalence", ok, f"max |hyper - baked| = {worst:.3e} over {cases} cases")
    assert ok


def test_criterion_2_gradient_correctness():
    rng = make_rng(20)
    worst = 0.0
    cases = 0
    for i in range(20):
        backbone_kind = "dlinear" if i % 2 == 0 else "mlp"
        mode = "per_channel_linear" if i % 4 < 2 else "shared_mlp"
        model, n, lookback, horizon = random_hyper_model(
            rng, backbone_kind=backbone_kind, mode=mode, revin=True
        )
        x = Tensor(rng.standard_normal((n, lookback)))
        y = Tensor(rng.standard_normal((n, horizon)))
        params = list(model.parameters().values())

        def loss():
            pred_norm, stats = model.forward_normalized(x)
            return mse(pred_norm, revin_apply(y.data, stats))

        err = finite_diff_check(loss, params)
        worst = max(worst, err)
        cases += 1
        assert err < 1e-4, f"case {i}: finite-difference error {err:.3e}"
    ok = cases >= 20 and worst < 1e-4
    report(2, "gradient correctness", ok, f"max relative error = {worst:.3e} over {cases} cases")
    assert ok


def test_criterion_3_param_count_formula():
    rng = make_rng(30)
    checked = []

    # The reference shape: one head, N=7, H=48, D=336, d=7, learnable Z.
    table = random_table(rng, 64, 7)
    model = build_hyper(MlpBackbone(12, (336,), rng=rng), table, 48, rng, d=7)
    counted = sum(t.size for t in model.hyper_parameters().values())
    formula = param_count(7, 48, 336, 7, learnable_z=True, heads=1)
    assert formula == 790_321
    assert counted == formula
    checked.append(("reference-7x48x336x7", counted))

    for i in range(11):
        n = int(rng.integers(2, 6))
        horizon = int(rng.integers(1, 6))
        lookback = int(rng.integers(6, 14))
        d = int(rng.integers(1, n + 1))
        learnable = bool(rng.integers(2))
        mode = "per_channel_linear" if i % 2 == 0 else "shared_mlp"
        gen_hidden = (int(rng.integers(2, 7)),) if mode == "shared_mlp" else ()
        table = random_table(rng, 4 * lookback, n)
        if i % 3 == 0:
            backbone = MlpBackbone(lookback, (int(rng.integers(3, 9)),), rng=rng)
            heads = 1
            hidden = backbone.hidden_dim
        else:
            backbone = DLinearBackbone(lookback, 3)
            heads = 2
            hidden = lookback
        model = build_hyper(
            backbone, table, horizon, rng, d=d, mode=mode,
            gen_hidden=gen_hidden, learnable_z=learnable,
        )
        counted = sum(t.size for t in model.hyper_parameters().values())
        formula = param_count(
            n, horizon, hidden, d, learnable_z=learnable, mode=mode,
            heads=heads, gen_hidden=gen_hidden,
        )
        assert counted == formula, f"config {i}: counted {counted} vs formula {formula}"
        checked.append((f"cfg{i}", counted))
    ok = len(checked) >= 10
    report(3, "parameter-count formula", ok,
           f"{len(checked)} configs matched, reference = 790,321")
    assert ok


def test_criterion_4_channel_invariants():
    rng = make_rng(40)
    tying_cases = 0
    independence_cases = 0
    for case in range(30):
        n = int(rng.integers(2, 6))
        horizon = int(rng.integers(1, 4))
        hidden = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        i, j = rng.choice(n, size=2, replace=False)
        z = rng.standard_normal((n, d))
        z[j] = z[i]
        # per-channel mode with tied generator slices
        w_phi = rng.standard_normal((n, d, horizon, hidden))
        w_phi[j] = w_phi[i]
        w = generate_weights("per_channel_linear", Tensor(z), [Tensor(w_phi)], horizon).data
        assert (w[i] == w[j]).all(), "per-channel tying must be exact"
        tying_cases += 1
        # shared mode: equal embedding rows alone tie the output
        shared = init_generator(z, horizon, hidden, GeneratorConfig("shared_mlp", (3,)), rng)
        ws = generate_weights("shared_mlp", Tensor(z), [Tensor(a) for a in shared], horizon).data
        assert (ws[i] == ws[j]).all(), "shared-mlp tying must be exact"
        tying_cases += 1

    for case in range(30):
        n = int(rng.integers(2, 6))
        horizon = int(rng.integers(1, 4))
        hidden = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        z = Tensor(rng.standard_normal((n, d)), requires_grad=True)
        w_phi = Tensor(rng.standard_normal((n, d, horizon, hidden)), requires_grad=True)
        target = int(rng.integers(n))
        only_target = np.zeros((n, 1, 1))
        only_target[target] = 1.0
        w = generate_weights("per_channel_linear", z, [w_phi], horizon)
        only = w * Tensor(only_target)
        grads = backward(mse(only, np.zeros(only.shape)), [z, w_phi])
        for other in range(n):
            if other == target:
                continue
            assert np.abs(grads[z].data[other]).max() == 0.0
            assert np.abs(grads[w_phi].data[other]).max() == 0.0
        independence_cases += 1
    total = tying_cases + independence_cases
    ok = total >= 50
    report(4, "channel tying/independence", ok,
           f"{tying_cases} tying + {independence_cases} independence cases, all exact")
    assert ok


# -- desk-scale criteria (need the ETTm2 CSV) --------------------------------


def _find_ettm2() -> Path | None:
    candidates = []
    env = os.environ.get(ETTM2_ENV)
    if env:
        candidates.append(Path(env))
    here = Path(__file__).resolve().parent.parent
    candidates += [here / "data" / "ETTm2.csv", here / "ETTm2.csv"]
    for path in candidates:
        if path.exists():
            return path
    return None


@pytest.fixture(scope="module")
def ettm2_run():
    """The criterion-5 protocol, shared with criterion 7.

    DLinear vs DLinear+hypernetwork on ETTm2, H=96, T=336, 6:2:2 split of the
    first 57600 steps, 5 seeds, <=20 epochs (patience 3). The hypernetwork
    uses the shared-MLP generator with no hidden layers (the linear i.e.
    cheapest published form) so the CPU timing criterion is meaningful.
    """
    path = _find_ettm2()
    if path is None:
        pytest.skip(
            f"ETTm2.csv not available: set {ETTM2_ENV} or place data/ETTm2.csv "
            "(dataset downloading is out of scope for this package)"
        )
    table = load_csv(path, timestamp_column="date")
    assert table.n_channels == 7, "ETTm2 has 7 channels"
    train_split, val_split, test_split = chrono_split(
        table, SplitSpec((6, 2, 2), truncate_to=57600)
    )
    assert (train_split.t, val_split.t, test_split.t) == (34560, 11520, 11520)
    lookback, horizon = 336, 96
    train_w = make_windows(train_split, lookback, horizon)
    val_w = make_windows(val_split, lookback, horizon)
    test_w = make_windows(test_split, lookback, horizon)
    results = {"baseline": [], "hn_mvts": []}
    seconds = {"baseline": [], "hn_mvts": []}
    kept_models = {}
    for seed in range(5):
        for variant in ("baseline", "hn_mvts"):
            rng = make_rng(90_000 + seed * 2 + (variant == "hn_mvts"))
            backbone = DLinearBackbone(lookback, kernel=25)
            if variant == "baseline":
                model = build_baseline(
                    backbone, 7, horizon, rng, channel_names=list(table.channel_names)
                )
            else:
                model = build_hyper(
                    backbone, train_split, horizon, rng,
                    mode="shared_mlp", gen_hidden=(),
                )
            cfg = TrainConfig(
                lookback=lookback, horizon=horizon, batch_size=64, lr=1e-4,
                max_epochs=20, seed=seed, early_stop_patience=3,
            )
            model, history = train(model, train_w, val_w, cfg)
            if variant == "hn_mvts":
                model = bake(model)
            metrics = evaluate(model, test_w)
            results[variant].append(metrics["mse"])
            seconds[variant].extend(history.seconds)
            if seed == 0:
                kept_models[variant] = model
            print(
                f"  ETTm2 H=96 {variant} seed={seed}: test MSE {metrics['mse']:.4f} "
                f"({history.n_epochs} epochs, best {history.best_epoch})"
            )
    return {
        "results": results,
        "seconds": seconds,
        "models": kept_models,
        "lookback": lookback,
    }


def test_criterion_5_ettm2_reproduction(ettm2_run):
    base_mean = float(np.mean(ettm2_run["results"]["baseline"]))
    hn_mean = float(np.mean(ettm2_run["results"]["hn_mvts"]))
    lo, hi = 0.85 * ETTM2_BASELINE_REFERENCE, 1.15 * ETTM2_BASELINE_REFERENCE
    clause_a = lo <= base_mean <= hi
    clause_b = hn_mean <= base_mean
    detail = (
        f"baseline {base_mean:.4f} (reference {ETTM2_BASELINE_REFERENCE}, "
        f"accept [{lo:.4f}, {hi:.4f}]); hn_mvts {hn_mean:.4f} "
        f"(reference {ETTM2_HN_REFERENCE}); "
        f"soft clause (b) hn<=baseline: {'MET' if clause_b else 'NOT MET (recorded; soft target)'}"
    )
    report(5, "ETTm2 desk-scale reproduction", clause_a, detail)
    assert clause_a


def test_criterion_7_training_overhead(ettm2_run):
    base_epoch = float(np.mean(ettm2_run["seconds"]["baseline"]))
    hn_epoch = float(np.mean(ettm2_run["seconds"]["hn_mvts"]))
    epoch_ratio = hn_epoch / base_epoch
    baseline_model = ettm2_run["models"]["baseline"]
    baked_model = ettm2_run["models"]["hn_mvts"]
    lookback = ettm2_run["lookback"]
    rng = make_rng(777)
    x = Tensor(rng.standard_normal((7, lookback)))
    calls = 10_000

    def time_model(model):
        with no_grad():
            for _ in range(200):
                model.forward(x)
            t0 = time.perf_counter()
            for _ in range(calls):
                model.forward(x)
            return time.perf_counter() - t0

    t_base = time_model(baseline_model)
    t_baked = time_model(baked_model)
    infer_ratio = t_baked / t_base
    ok = epoch_ratio <= 1.5 and infer_ratio <= 1.05
    report(
        7, "training/inference overhead", ok,
        f"epoch ratio {epoch_ratio:.3f} (<=1.5), baked inference ratio "
        f"{infer_ratio:.3f} (<=1.05 over {calls} calls)",
    )
    assert ok


def test_criterion_6_synthetic_ci_cd_interpolation():
    spec = SynthSpec(
        n_channels=8, timesteps=8192, groups=[0, 0, 0, 0, 1, 1, 1, 1],
        rho=0.95, sigma=0.05,
    )
    table = gen_synthetic(spec, seed=4)
    train_split, val_split, _ = chrono_split(table, SplitSpec((0.7, 0.2, 0.1)))
    lookback, horizon = 96, 24
    train_w = make_windows(train_split, lookback, horizon)
    val_w = make_windows(val_split, lookback, horizon)
    rng = make_rng(60)
    model = build_hyper(DLinearBackbone(lookback, kernel=25), train_split, horizon, rng)
    cfg = TrainConfig(
        lookback=lookback, horizon=horizon, lr=1e-3, max_epochs=5, seed=0
    )
    model, _ = train(model, train_w, val_w, cfg)
    z = model.all_arrays()["embed.z"].data
    unit = z / np.linalg.norm(z, axis=1, keepdims=True)
    cos = unit @ unit.T
    within, between = [], []
    for i in range(8):
        for j in range(i + 1, 8):
            (within if spec.groups[i] == spec.groups[j] else between).append(cos[i, j])
    margin = float(np.mean(within) - np.mean(between))
    ok = margin > 0.2
    report(
        6, "synthetic CI-CD interpolation", ok,
        f"within-group cos {np.mean(within):.3f} vs between {np.mean(between):.3f} "
        f"(margin {margin:.3f} > 0.2)",
    )
    assert ok


def test_criterion_8_wilcoxon_oracle():
    rng = make_rng(80)
    checked = 0
    for _ in range(100):
        k = int(rng.integers(5, 11))
        a = rng.integers(-10, 11, size=k).astype(float)
        b = rng.integers(-10, 11, size=k).astype(float)
        res = wilcoxon_signed_rank(a, b)
        diff = a - b
        diff = diff[diff != 0.0]
        if len(diff) == 0:
            assert res.statistic == 0.0 and res.p_value == 1.0 and not res.significant
            checked += 1
            continue
        abs_d = np.abs(diff)
        order = np.argsort(abs_d, kind="stable")
        ranks = np.empty(len(diff))
        sv = abs_d[order]
        i = 0
        while i < len(diff):
            j = i
            while j + 1 < len(diff) and sv[j + 1] == sv[i]:
                j += 1
            ranks[order[i : j + 1]] = (i + j) / 2 + 1
            i = j + 1
        stat = min(ranks[diff > 0].sum(), ranks[diff < 0].sum())
        total = ranks.sum()
        count = 0
        for signs in itertools.product([0, 1], repeat=len(diff)):
            w = sum(r for s, r in zip(signs, ranks) if s)
            if w <= stat or w >= total - stat:
                count += 1
        p_oracle = count / 2 ** len(diff)
        assert res.statistic == stat
        assert res.p_value == min(1.0, p_oracle)
        checked += 1
    ok = checked == 100
    report(8, "wilcoxon exact oracle", ok, f"{checked} samples matched enumeration exactly")
    assert ok
