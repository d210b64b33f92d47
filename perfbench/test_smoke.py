"""Smoke test of the benchmark: output schema and correctness checks, not timings.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((HERE / "out" / f"{workload}-seed3-trace{trace}-smoke.json").read_text())
    return result, report


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == ["ettm2_dlinear", "weather_mlp",
                                                     "ili_dlinear"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    result, report = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == sum(report["operations"].values()) > 0
    assert report["checks"] and all(c["ok"] for c in report["checks"]), report["checks"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    env = report["environment"]
    for key in ("nproc", "affinity", "numpy", "blas", "blas_env", "python", "dtype",
                "git_sha", "git_dirty"):
        assert key in env
    assert env["dtype"] == "float64"
    if trace:
        assert not report["missing_hooks"]
        assert (HERE / "out" / f"{workload}-seed3-trace1-smoke.spans.jsonl").stat().st_size
    else:
        names = {c["name"].split(".")[0] for c in report["checks"]}
        assert names >= {"bake_equivalence", "reference_forward", "evaluate_recompute",
                         "checkpoint_roundtrip", "eval_cmd_matches", "param_count",
                         "beats_window_mean", "train_repeatable"}
        assert {"epoch", "latency"} <= set(report["ratios"])


def test_same_seed_same_result():
    first, first_report = run("ili_dlinear", 0)
    second, second_report = run("ili_dlinear", 0)
    assert first_report["digest"] == second_report["digest"]
    for form in ("baseline", "hn_shared", "hn_pcl"):
        key = f"test_mse.{form}"
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"]
