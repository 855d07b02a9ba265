"""The benchmark runs against the program as it is: a traced run of each
workload passes its checks and reports every per-layer metric, which it can
only do if the program still goes through the traced names."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def traced_run(workload: str) -> dict:
    """The result line of a traced 1 s run on seed 1, checked for every
    per-layer metric, and on a training workload for one traced Adam step
    per optimiser step."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, proc.stdout
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert len(names) == 13
    assert sorted(last["metrics"]) == sorted(names)
    if workload.startswith("train-"):
        result = ROOT / "perfbench" / "out" / f"result-{workload}-seed1-trace1.json"
        report = json.loads(result.read_text())
        assert "training.adam_ms" in report["per_layer"]
        steps = sum(r["ops"] for r in report["rounds"])
        assert report["spans"]["training.adam"]["calls"] == steps > 0
    return last


@pytest.mark.slow
def test_traced_train_morse_small_reports_every_layer_metric():
    last = traced_run("train-morse-small")
    assert last["metrics"]["model.forward_calls_per_mol"]["value"] < 1


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["train-mid", "forces-large"])
def test_traced_run_of_each_other_workload_reports_every_layer_metric(workload):
    traced_run(workload)
