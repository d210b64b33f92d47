"""Experiment orchestration: baseline-vs-hypernetwork grids plus statistics.

`run_experiment` trains every (horizon, seed, variant) cell of a grid,
evaluates on the chronological test split (hypernetwork models are baked
first), and maintains a JSON-lines result file keyed by
(dataset, backbone, variant, horizon, seed): reruns overwrite matching
records atomically. `summarize` folds records into per-cell comparison rows
with exact Wilcoxon significance over the seed pairs.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from dataclasses import MISSING, asdict, astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from ..backbones import DLinearBackbone, MlpBackbone
from ..data import SeriesTable, chrono_split, gen_synthetic, load_csv, make_windows
from ..hypernet import bake, build_baseline, build_hyper
from ..numcore import spawn_rng
from ..trainer import TrainingError, evaluate, train
from .config import BASELINE, HN_MVTS, RunConfig
from .stats import wilcoxon_signed_rank

__all__ = ["ResultRecord", "SummaryRow", "run_experiment", "summarize",
           "summary_text", "summary_csv", "load_records", "write_records"]

@dataclass
class ResultRecord:
    dataset: str
    backbone: str
    variant: str
    horizon: int
    seed: int
    status: str = "ok"
    reason: str = ""
    test_mse: float | None = None
    test_mae: float | None = None
    seconds_per_epoch_mean: float | None = None
    seconds_per_epoch_std: float | None = None
    n_epochs: int | None = None
    best_epoch: int | None = None
    param_count_total: int | None = None
    param_count_trainable: int | None = None
    hyper_param_count: int | None = None

    @property
    def key(self) -> tuple:
        return (self.dataset, self.backbone, self.variant, self.horizon, self.seed)

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, line: str) -> "ResultRecord":
        """The record one results line holds; ValueError says what is wrong with it."""
        try:
            data = json.loads(line)
        except json.JSONDecodeError as err:
            raise ValueError(f"malformed JSON ({err.msg} at column {err.colno})") from None
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, got {type(data).__name__}")
        names = [f.name for f in fields(cls)]
        for key in data:
            if key not in names:
                raise ValueError(f"unknown key '{key}'")
        for f in fields(cls):
            if f.default is MISSING and f.name not in data:
                raise ValueError(f"missing key '{f.name}'")
        return cls(**data)


def load_records(path: str | Path) -> list[ResultRecord]:
    """Every record of a results file; a bad line raises ValueError naming the file and line."""
    path = Path(path)
    if not path.exists():
        return []
    records = []
    with path.open(encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    records.append(ResultRecord.from_json(line))
                except ValueError as err:
                    raise ValueError(f"{path}: line {number}: {err}") from None
    return records


def write_records(records: list[ResultRecord], path: str | Path) -> None:
    """Atomic replace so a crash never leaves a half-written result file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".results-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(rec.to_json() + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _merge_record(records: list[ResultRecord], rec: ResultRecord) -> list[ResultRecord]:
    out = [r for r in records if r.key != rec.key]
    out.append(rec)
    out.sort(key=lambda r: (r.dataset, r.backbone, r.horizon, r.variant, r.seed))
    return out


def load_table(cfg: RunConfig) -> SeriesTable:
    if cfg.source == "synthetic":
        return gen_synthetic(cfg.synth, cfg.synth_seed)
    return load_csv(cfg.source, timestamp_column=cfg.timestamp_column)


def check_embed_dim(cfg: RunConfig, table: SeriesTable, variants) -> None:
    """Refuse `[model] embed_dim` outside 1..N before any hn_mvts model is built.

    A baseline never reads embed_dim, so only a run building hn_mvts is checked.
    """
    n = table.n_channels
    if HN_MVTS in variants and cfg.embed_dim is not None and not 1 <= cfg.embed_dim <= n:
        raise ValueError(
            f"[model] embed_dim = {cfg.embed_dim} out of range for the "
            f"N = {n} channels of {cfg.source} (need 1 <= embed_dim <= N)"
        )


def build_model_for_run(cfg: RunConfig, variant: str, train_split: SeriesTable,
                        horizon: int, seed: int):
    """Deterministic model for one grid cell; init stream keyed by the cell."""
    rng = spawn_rng(seed, 50_000 + horizon * 4 + (0 if variant == BASELINE else 1))
    if cfg.backbone == "dlinear":
        backbone = DLinearBackbone(cfg.train.lookback, cfg.kernel)
    else:
        backbone = MlpBackbone(cfg.train.lookback, cfg.mlp_widths, rng=rng)
    if variant == BASELINE:
        return build_baseline(
            backbone, train_split.n_channels, horizon, rng,
            revin=cfg.revin, channel_names=list(train_split.channel_names),
        )
    return build_hyper(
        backbone, train_split, horizon, rng,
        d=cfg.embed_dim, mode=cfg.gen_mode, gen_hidden=cfg.gen_hidden,
        learnable_z=cfg.learnable_embeddings, revin=cfg.revin,
    )


def run_experiment(cfg: RunConfig, out_path: str | Path | None = None,
                   progress=None) -> list[ResultRecord]:
    """Run the full grid; returns (and optionally persists) all records."""
    table = load_table(cfg)
    check_embed_dim(cfg, table, cfg.variants)
    train_split, val_split, test_split = chrono_split(table, cfg.split)
    records = load_records(out_path) if out_path else []
    for horizon in cfg.horizons:
        try:
            train_w = make_windows(train_split, cfg.train.lookback, horizon)
            val_w = make_windows(val_split, cfg.train.lookback, horizon)
            test_w = make_windows(test_split, cfg.train.lookback, horizon)
            window_error = None
        except ValueError as err:
            window_error = str(err)
        for seed in cfg.seeds:
            for variant in cfg.variants:
                if window_error is not None:
                    rec = ResultRecord(cfg.dataset_name, cfg.backbone, variant,
                                       horizon, seed, status="failed",
                                       reason=window_error)
                else:
                    rec = _run_cell(cfg, variant, train_split, horizon, seed,
                                    train_w, val_w, test_w)
                records = _merge_record(records, rec)
                if out_path:
                    write_records(records, out_path)
                if progress:
                    progress(rec)
    return records


def _run_cell(cfg: RunConfig, variant: str, train_split: SeriesTable, horizon: int,
              seed: int, train_w, val_w, test_w) -> ResultRecord:
    rec = ResultRecord(cfg.dataset_name, cfg.backbone, variant, horizon, seed)
    try:
        model = build_model_for_run(cfg, variant, train_split, horizon, seed)
        tc = replace(cfg.train, horizon=horizon, seed=seed)
        model, history = train(model, train_w, val_w, tc)
        rec.param_count_total = model.param_count()
        rec.param_count_trainable = model.param_count(trainable_only=True)
        rec.hyper_param_count = sum(t.size for t in model.hyper_parameters().values())
        if model.variant == "hyper":
            model = bake(model)
        metrics = evaluate(model, test_w)
        rec.test_mse = metrics["mse"]
        rec.test_mae = metrics["mae"]
        rec.seconds_per_epoch_mean = float(np.mean(history.seconds))
        rec.seconds_per_epoch_std = float(np.std(history.seconds))
        rec.n_epochs = history.n_epochs
        rec.best_epoch = history.best_epoch
    except (TrainingError, ValueError) as err:
        rec.status = "failed"
        rec.reason = str(err)
    return rec


@dataclass
class SummaryRow:
    dataset: str
    backbone: str
    horizon: int
    n_seeds: int = 0
    complete: bool = False
    baseline_mse_mean: float | None = None
    baseline_mse_std: float | None = None
    hn_mse_mean: float | None = None
    hn_mse_std: float | None = None
    baseline_mae_mean: float | None = None
    hn_mae_mean: float | None = None
    rel_mse_change: float | None = None
    p_value: float | None = None
    significant: bool = False
    time_ratio: float | None = None
    note: str = ""


def summarize(records: list[ResultRecord], alpha: float = 0.05) -> list[SummaryRow]:
    """One row per (dataset, backbone, horizon) cell; a cell whose failed
    runs leave its variants unpaired still gets a row, noting how many failed."""
    cells: dict[tuple, list[ResultRecord]] = {}
    for rec in records:
        cells.setdefault((rec.dataset, rec.backbone, rec.horizon), []).append(rec)
    rows = []
    for (dataset, backbone, horizon), cell in sorted(cells.items()):
        row = SummaryRow(dataset, backbone, horizon)
        ok = [r for r in cell if r.status == "ok"]
        base = {r.seed: r for r in ok if r.variant == BASELINE}
        hn = {r.seed: r for r in ok if r.variant == HN_MVTS}
        seeds = sorted(set(base) & set(hn))
        row.n_seeds = len(seeds)
        if not seeds or set(base) != set(hn):
            n_failed = len(cell) - len(ok)
            row.note = (f"incomplete: {n_failed} failed run{'s' * (n_failed != 1)}"
                        if n_failed else "incomplete: variants cover different seeds")
            rows.append(row)
            continue
        row.complete = True
        base_mse = [base[s].test_mse for s in seeds]
        hn_mse = [hn[s].test_mse for s in seeds]
        row.baseline_mse_mean = float(np.mean(base_mse))
        row.baseline_mse_std = float(np.std(base_mse))
        row.hn_mse_mean = float(np.mean(hn_mse))
        row.hn_mse_std = float(np.std(hn_mse))
        row.baseline_mae_mean = float(np.mean([base[s].test_mae for s in seeds]))
        row.hn_mae_mean = float(np.mean([hn[s].test_mae for s in seeds]))
        row.rel_mse_change = (row.hn_mse_mean - row.baseline_mse_mean) / row.baseline_mse_mean
        if len(seeds) >= 5:
            res = wilcoxon_signed_rank(base_mse, hn_mse, alpha=alpha)
            row.p_value = res.p_value
            row.significant = res.significant
        else:
            row.note = "too few paired seeds for the significance test"
        base_time = [base[s].seconds_per_epoch_mean for s in seeds]
        hn_time = [hn[s].seconds_per_epoch_mean for s in seeds]
        if all(v is not None for v in base_time + hn_time) and np.mean(base_time) > 0:
            row.time_ratio = float(np.mean(hn_time) / np.mean(base_time))
        rows.append(row)
    return rows


def summary_text(rows: list[SummaryRow]) -> str:
    header = (
        f"{'dataset':<12} {'backbone':<9} {'H':>4}  "
        f"{BASELINE + ' MSE':>18} {HN_MVTS + ' MSE':>18} {'change':>8} "
        f"{'p':>8} {'sig':>4} {'t-ratio':>8}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        if not r.complete:
            lines.append(
                f"{r.dataset:<12} {r.backbone:<9} {r.horizon:>4}  [{r.note}]"
            )
            continue
        base = f"{r.baseline_mse_mean:.4f}±{r.baseline_mse_std:.4f}"
        hn = f"{r.hn_mse_mean:.4f}±{r.hn_mse_std:.4f}"
        p = f"{r.p_value:.4f}" if r.p_value is not None else "n/a"
        ratio = f"{r.time_ratio:.3f}" if r.time_ratio is not None else "n/a"
        lines.append(
            f"{r.dataset:<12} {r.backbone:<9} {r.horizon:>4}  "
            f"{base:>18} {hn:>18} {r.rel_mse_change:>+7.1%} "
            f"{p:>8} {'yes' if r.significant else 'no':>4} {ratio:>8}"
        )
    return "\n".join(lines)


def summary_csv(rows: list[SummaryRow]) -> str:
    cols = [f.name for f in fields(SummaryRow)]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(cols)
    writer.writerows(astuple(r) for r in rows)  # None becomes an empty cell
    return out.getvalue()
