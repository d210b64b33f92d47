"""Command-line interface.

Subcommands: train, bake, eval, bench, synth, export-embeddings. All runs
are driven by INI config files (see `hnmvts --print-config` for the full
schema with defaults). The only ambient input is HNMVTS_OUT_DIR, which
overrides the configured output directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

from ..checkpoint import load_checkpoint, save_checkpoint
from ..data import chrono_split, make_windows
from ..hypernet import bake, export_embeddings
from ..trainer import TrainingError, evaluate, train
from .config import default_config_text, load_config, resolve_out_dir
from .runner import (
    build_model_for_run,
    check_embed_dim,
    load_table,
    run_experiment,
    summarize,
    summary_csv,
    summary_text,
)

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.print_config:
        print(default_config_text(), end="")
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, TrainingError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hnmvts",
        description="Multivariate forecasting with hypernetwork-generated final layers.",
    )
    parser.add_argument(
        "--print-config", action="store_true",
        help="print the full default configuration (INI) and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p_train = sub.add_parser("train", help="single training run from a config file")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None, help="override [train] seed")
    p_train.add_argument("--out", default=None, help="override output directory")
    p_train.set_defaults(func=cmd_train)

    p_bake = sub.add_parser("bake", help="materialize final-layer weights, drop the generator")
    p_bake.add_argument("--checkpoint", required=True)
    p_bake.add_argument("--out", required=True)
    p_bake.set_defaults(func=cmd_bake)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True, help="CSV dataset path")
    p_eval.add_argument("--split", choices=["train", "val", "test"], default="test")
    p_eval.set_defaults(func=cmd_eval)

    p_bench = sub.add_parser("bench", help="full grid: horizons x seeds x variants")
    p_bench.add_argument("--spec", required=True, help="config file with a [bench] section")
    p_bench.add_argument("--out", default=None, help="override output directory")
    p_bench.set_defaults(func=cmd_bench)

    p_synth = sub.add_parser("synth", help="emit a synthetic dataset as CSV")
    p_synth.add_argument("--spec", required=True, help="config file with a [synth] section")
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_exp = sub.add_parser("export-embeddings", help="write channel embeddings as CSV")
    p_exp.add_argument("--checkpoint", required=True)
    p_exp.add_argument("--out", required=True)
    p_exp.set_defaults(func=cmd_export)

    return parser


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.train = replace(cfg.train, seed=args.seed)
    tc = cfg.train
    table = load_table(cfg)
    check_embed_dim(cfg, table, [cfg.variant])
    out_dir = resolve_out_dir(cfg.out_dir, args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_split, val_split, _ = chrono_split(table, cfg.split)
    train_w = make_windows(train_split, tc.lookback, tc.horizon)
    val_w = make_windows(val_split, tc.lookback, tc.horizon)
    model = build_model_for_run(cfg, cfg.variant, train_split, tc.horizon, tc.seed)
    model, history = train(model, train_w, val_w, tc)
    tag = f"{cfg.dataset_name}_{cfg.backbone}_{cfg.variant}_H{tc.horizon}_s{tc.seed}"
    ckpt_path = out_dir / f"{tag}.npz"
    save_checkpoint(model, ckpt_path, config_echo=cfg.echo())
    history_path = out_dir / f"{tag}_history.csv"
    history.to_csv(history_path)
    print(f"checkpoint: {ckpt_path}")
    print(f"history:    {history_path}")
    print(f"best epoch: {history.best_epoch}  val MSE: {min(history.val_mse):.6f}")
    return 0


def cmd_bake(args) -> int:
    model, echo = load_checkpoint(args.checkpoint)
    baked = bake(model)
    save_checkpoint(baked, args.out, config_echo=echo)
    print(f"baked checkpoint: {args.out}")
    return 0


def cmd_eval(args) -> int:
    model, echo = load_checkpoint(args.checkpoint)
    from ..data import SplitSpec, load_csv

    ratios = echo.get("split_ratios")
    split = SplitSpec(tuple(ratios), truncate_to=echo.get("truncate_to")) if ratios else SplitSpec()
    table = load_csv(args.data, timestamp_column=echo.get("timestamp_column"))
    segments = dict(zip(("train", "val", "test"), chrono_split(table, split)))
    windows = make_windows(segments[args.split], model.backbone.lookback, model.horizon)
    metrics = evaluate(model, windows)
    print(json.dumps({"split": args.split, "mse": metrics["mse"], "mae": metrics["mae"]}))
    return 0


def cmd_bench(args) -> int:
    cfg = load_config(args.spec)
    out_dir = resolve_out_dir(cfg.out_dir, args.out)
    results_path = out_dir / f"{cfg.dataset_name}_{cfg.backbone}_results.jsonl"

    completed = []

    def progress(rec):
        status = rec.status
        mse = f"mse={rec.test_mse:.4f}" if rec.test_mse is not None else rec.reason
        print(f"[{status}] {rec.dataset} {rec.backbone} {rec.variant} "
              f"H={rec.horizon} seed={rec.seed} {mse}")
        if status == "ok":
            completed.append(rec)

    records = run_experiment(cfg, out_path=results_path, progress=progress)
    rows = summarize(records)
    text = summary_text(rows)
    print(text)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{cfg.dataset_name}_{cfg.backbone}_summary.txt").write_text(text + "\n")
    (out_dir / f"{cfg.dataset_name}_{cfg.backbone}_summary.csv").write_text(summary_csv(rows))
    print(f"results: {results_path}")
    if not completed:
        print(f"error: no run of the grid completed; see {results_path}", file=sys.stderr)
        return 1
    return 0


def cmd_synth(args) -> int:
    cfg = load_config(args.spec)
    from ..data import gen_synthetic

    table = gen_synthetic(cfg.synth, cfg.synth_seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.channel_names)
        for row in table.values.data:
            writer.writerow([repr(float(v)) for v in row])
    print(f"synthetic dataset: {out} ({table.t} x {table.n_channels})")
    return 0


def cmd_export(args) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    export_embeddings(model, args.out)
    print(f"embeddings: {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
