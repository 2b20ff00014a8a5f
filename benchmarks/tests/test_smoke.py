"""Smoke test: every workload at a tiny size, untraced and traced.

Run from the repository root with ``python3 -m pytest benchmarks/tests``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRIC_LINE = re.compile(r"^metric (\S+) (\S+) (\S+)$", re.M)


def run(workload: str, trace: int) -> tuple[dict, dict, str]:
    child = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    printed = {name: (float(value), unit) for name, value, unit in METRIC_LINE.findall(child.stdout)}
    return printed, json.loads(child.stdout.strip().splitlines()[-1]), child.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    printed, result, _ = run(workload, 0)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    expected["failed_share"] = "ratio"
    if workload.startswith("simulate"):
        expected["rounds_per_s"] = "1/s"
    for name, unit in expected.items():
        assert printed[name][1] == unit, name
        assert printed[name][0] > 0 or name == "failed_share", name
    assert printed["failed_share"][0] == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers(workload):
    printed, result, stdout = run(workload, 1)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert printed[name][1] == unit, name
    assert result["correct"] and result["failed"] == 0
    assert printed["cli.main.calls"][0] > 0
    assert printed["trace.overhead_ratio"][0] > 0
    assert re.search(r"^dominant-layer \S+ predicted \S+ (holds|refuted)$", stdout, re.M)
