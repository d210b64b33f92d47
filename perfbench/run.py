"""Benchmark entry point.

One workload, as a separate process per run:

    python3 perfbench/run.py --workload ettm2_dlinear --seed 1 --seconds 10 --trace 0

Every workload in turn, each in its own process, with a summary table:

    python3 perfbench/run.py --all --seed 1

`--trace 1` gives the per-layer figures instead of the end-to-end ones;
`--smoke` shrinks every size so a run takes a few seconds. The last line of
standard output is the JSON result; the full report (environment, checks,
ratios, digests) and the spans of a traced run go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import types
from pathlib import Path

from workloads import WORKLOADS, smoke

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_package():
    """The package from this checkout's `src/`, never an installed copy."""
    if not (SRC / "hnmvts" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC.relative_to(ROOT)}/hnmvts")
    sys.path.insert(0, str(SRC))
    import hnmvts
    import hnmvts.backbones
    import hnmvts.bench.cli
    import hnmvts.checkpoint
    import hnmvts.data
    import hnmvts.hypernet
    import hnmvts.numcore
    import hnmvts.trainer

    if Path(hnmvts.__file__).resolve().parent != (SRC / "hnmvts").resolve():
        raise SystemExit(f"error: imported hnmvts from {hnmvts.__file__}, not {SRC}")
    return types.SimpleNamespace(
        data=hnmvts.data, numcore=hnmvts.numcore, backbones=hnmvts.backbones,
        hypernet=hnmvts.hypernet, trainer=hnmvts.trainer, checkpoint=hnmvts.checkpoint,
        cli=hnmvts.bench.cli,
    )


def environment(hn) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception as err:  # numpy without the dict form of show_config
        blas = {"error": str(err)}
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "python": platform.python_version(),
        "dtype": np.dtype(hn.numcore.get_default_dtype()).name,
        **git_state(),
    }


def git_state() -> dict:
    """HEAD and whether tracked files differ from it; None outside a git checkout."""
    unknown = {"git_sha": None, "git_dirty": None}

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=20)

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return unknown
        sha = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return unknown
    if sha.returncode != 0 or dirty.returncode != 0:
        return unknown
    return {"git_sha": sha.stdout.strip(), "git_dirty": bool(dirty.stdout.strip())}


def settle_allocator(np) -> None:
    """Put the C allocator in the state a long-running process reaches anyway.

    glibc serves blocks above its mmap threshold (128 KiB at start) with a
    fresh mapping, page-faulted in on every allocation, and raises the
    threshold to the size of the largest such block freed, up to 32 MiB.
    Left alone, when the threshold moves depends on the run's history: on a
    2-vCPU VM, `evaluate` over the `ili_dlinear` test split took 4.2 ms and
    about 530 page faults per call until an unrelated free raised the
    threshold, then 2.5 ms and about 3 faults. Freeing one block just under
    the cap at start moves it once, before anything is timed.
    """
    block = np.ones((32 << 20) // 8 - (8 << 10))
    del block


def run_one(args) -> int:
    hn = import_package()
    import numpy as np

    settle_allocator(np)

    from session import Session
    from tracing import Tracer

    w = WORKLOADS[args.workload]
    if args.smoke:
        w = smoke(w)
    hn.numcore.set_default_dtype(np.float64)
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        session = Session(hn, w, args.seed, args.seconds, workdir)
        if args.trace:
            tracer = Tracer(tag)
            session.run_traced(tracer)
            tracer.write(OUT / f"{tag}.spans.jsonl")
        else:
            session.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = dict(session.ops, checks=len(session.checks.results))
    attempted = sum(ops.values())
    failed = session.checks.failed
    report = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "environment": environment(hn), "operations": ops,
        "checks": session.checks.results, "metrics": session.metrics, **session.info,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1, default=float) + "\n")
    print_report(report)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": session.metrics,
    }))
    return 0


def print_report(r: dict) -> None:
    print(f"# {r['workload']} seed={r['seed']} trace={r['trace']} seconds={r['seconds']}")
    env = r["environment"]
    print(f"env: nproc={env['nproc']} affinity={env['affinity']} numpy={env['numpy']} "
          f"python={env['python']} dtype={env['dtype']} blas_env={env['blas_env']} "
          f"git={env['git_sha']} dirty={env['git_dirty']}")
    for c in r["checks"]:
        detail = {k: v for k, v in c.items() if k not in ("name", "ok")}
        status = "ok  " if c["ok"] else "FAIL"
        print(f"check {status} {c['name']} {json.dumps(detail, default=float)}")
    for name, m in r["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    if "serve_latency_raw" in r:
        s = r["serve_latency_raw"]
        tail = (f" p{s['tail_percentile']:g}={s['tail_us']:.1f}us"
                if s["tail_percentile"] else " (too few samples for a tail)")
        print(f"serve_latency raw: samples={s['samples']} median={s['median_us']:.1f}us{tail}")
        print("reference work: " + " ".join(
            f"{kind} median={1e6 * p['median']:.0f}us min={1e6 * p['min']:.0f}us "
            f"max={1e6 * p['max']:.0f}us" for kind, p in r["reference_work_s"].items()))
    for kind, ratios in r.get("ratios", {}).items():
        base = ratios.get("base_s", ratios.get("base_us"))
        for form in ("hn_shared", "hn_pcl"):
            x = ratios[form]
            print(f"ratio {kind}.{form}/baseline = {x['ratio']:.3f} "
                  f"[q1 {x['q1']:.3f}, q3 {x['q3']:.3f}] base={base:.6g} "
                  f"paper bound <= {ratios['bound']}")
    if "digest" in r:
        print("digest " + " ".join(f"{f}={d}" for f, d in r["digest"].items()))
    print(f"operations: {r['operations']}")
    if r["phase_s"]:
        print("phases: " + " ".join(f"{k}={v:.2f}s" for k, v in r["phase_s"].items()))


def run_all(args) -> int:
    rows, bad = [], 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}")
            bad += 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        bad += not result["correct"] or result["failed"] > 0
        rows.append((name, result))
    print("\n# summary")
    for name, result in rows:
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:42s} {m['value']:14.6g} {m['unit']}")
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=list(WORKLOADS))
    target.add_argument("--all", action="store_true", help="run every workload in turn")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="time given to the serving loops")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = p.parse_args(argv)
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
