"""Tests of the benchmark itself, at tiny shapes.

    python3 -m pytest -q perfbench/check_bench.py

The file name keeps it out of the repository's default test collection: each
test starts several benchmark processes and takes about two minutes in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


@lru_cache(maxsize=None)
def run(workload: str, trace: int, seed: int = 3, repeat: int = 0):
    """One tiny run, cached; a different ``repeat`` forces a fresh run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stderr[-3000:] + proc.stdout[-3000:]
    info = {line.split(" ", 1)[0]: line.split(" ", 1)[1] for line in lines[:-1] if " " in line}
    return json.loads(lines[-1]), info


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_and_checks_pass(workload, trace):
    result, info = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "absent:" not in info, info.get("absent:")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_inputs_counts_and_losses(workload):
    (first, a), (second, b) = run(workload, 1), run(workload, 1, repeat=1)
    assert a["fingerprint"] == b["fingerprint"]
    assert a["digest"] == b["digest"]
    for name in ("autodiff.ops_per_step", "autodiff.matmul_gflop_per_step",
                 "autodiff.tape_mb_per_step", "graphs.link_nnz"):
        assert first["metrics"][name] == second["metrics"][name], name
    other, c = run(workload, 1, seed=4)
    assert c["fingerprint"] != a["fingerprint"]


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
