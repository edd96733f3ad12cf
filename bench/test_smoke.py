"""Smoke test: one item per workload, traced and untraced; every metric that
BENCHMARK.json names must be emitted.

    python -m pytest -q bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    r = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                        "--seed", "0", "--seconds", "0", "--trace", str(trace),
                        "--items", "1"],
                       cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
