"""Smoke test of the benchmark: each workload on one tiny pair, untraced and traced.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench  # noqa: E402

TINY = (20, 20, 20)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_workload_on_one_tiny_pair(name, trace):
    workload = replace(bench.WORKLOADS[name], dims=TINY, pool=1)
    result, detail = bench.run(workload, seed=0, seconds=0, trace=trace)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    assert detail["failed_frac"] == 0
    declared = bench.declared_metrics()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], float | int) for m in result["metrics"].values())
