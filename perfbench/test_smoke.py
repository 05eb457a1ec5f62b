"""Smoke test of the benchmark itself, at toy sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs its fewest commands on 16x16 inputs and
must report every metric BENCHMARK.json names, with its unit, and pass
its output checks.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TOY = {"side": 16, "channels": (2, 4), "images": 12}
TOY_SOURCE = {"pretrain-desk": 16, "crossval-mid": 16, "evaluate-desk": 48}

# the workload-specific figures each report prints beside the end-to-end metrics
REPORTED = {
    "pretrain-desk": ("pretrain_samples_per_s", "pretrain_final_loss"),
    "crossval-mid": ("finetune_samples_per_s", "evaluate_samples_per_s", "crossval_accuracy"),
    "evaluate-desk": ("evaluate_samples_per_s", "evaluate_accuracy"),
}


def test_benchmark_json_lists_the_workloads():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == \
        {name: w.why for name, w in run.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS


def test_traced_pool_reports_parallel_efficiency():
    # pretrain-desk times one worker; its traced runs add a command at two
    w = replace(run.WORKLOADS["pretrain-desk"], source_side=16, **TOY)
    result = run.run_workload(w, seed=3, seconds=0, trace=True)
    assert [r["kind"] for r in result["records"]] == ["plain", "traced", "pool", "plain"]
    assert "--threads 2" in " ".join(run.command_args(w, result["args"], "pool"))
    assert result["checks"].failures == []
    metrics, _ = run.results(result)
    assert metrics["autoencoder.sample_ms"]["value"] > 0
    assert metrics["autoencoder.batch_wait_ms"]["value"] > 0
    assert 0 < metrics["autoencoder.parallel_efficiency"]["value"] <= 1


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_workload_reports_every_metric(name, trace, capsys):
    w = replace(run.WORKLOADS[name], source_side=TOY_SOURCE[name], **TOY)
    result = run.run_workload(w, seed=3, seconds=0, trace=trace)
    metrics, detail = run.results(result)
    run.print_report(result, detail, run.environment())

    assert result["checks"].failures == []
    assert result["checks"].attempted > 0
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in listed}
    printed = capsys.readouterr().out
    for figure in (*run.END_TO_END_UNITS, "wall_s", "setup_wall_s", *REPORTED[name],
                   "failed_share"):
        assert f" {figure} " in printed
    if trace:
        assert "uncovered remainder" in printed
        assert metrics[f"{w.phase}.uncovered_ms"]["value"] >= 0
        assert metrics["layers.conv1.fwd_ms"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in metrics.values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pretrain-desk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
