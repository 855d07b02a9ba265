"""The benchmark runs against the program as it is: a traced run of the
small training workload passes its checks and reports every per-layer
metric, which it can only do if training goes through the traced names."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_traced_train_morse_small_reports_every_layer_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-morse-small",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, proc.stdout
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert len(names) == 13
    assert sorted(last["metrics"]) == sorted(names)
    assert last["metrics"]["model.forward_calls_per_mol"]["value"] < 1
