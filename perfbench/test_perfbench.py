"""Tests of the benchmark itself, at a tiny size.

Every run goes through a subprocess: the benchmark re-imports lenscert
for each set-up, which must not happen inside the test session.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import bench_workloads as bw  # noqa: E402

WORKLOADS = sorted(bw.WORKLOADS)
_cache: dict = {}


def bench(workload: str, seed: int, trace: int = 0, fresh: bool = False) -> list[str]:
    key = (workload, seed, trace)
    if fresh or key not in _cache:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--trace", str(trace), "--seconds", "0", "--min-items", "4"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        _cache[key] = proc.stdout.splitlines()
    return _cache[key]


def digests(lines: list[str]) -> dict[str, str]:
    pairs = (line.split() for line in lines)
    return {p[0]: p[1] for p in pairs if len(p) == 2 and p[0].endswith("_sha256")}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    lines = bench(workload, 3, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"  {name} = ") and line.endswith(f" {unit}") for line in lines)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert sorted(w["name"] for w in spec["workloads"]) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_inputs_and_certificate_bytes(workload):
    first = digests(bench(workload, 3))
    again = digests(bench(workload, 3, fresh=True))
    other = digests(bench(workload, 4))
    assert set(first) == {"inputs_sha256", "certs_sha256"}
    assert first == again
    assert first["inputs_sha256"] != other["inputs_sha256"]


def test_triangle_rank_holds_every_hyperbolic_triple_once():
    with open(bw.TRIANGLE_RANK, encoding="utf-8") as handle:
        ranked = [tuple(t) for t in json.load(handle)["triples"]]
    assert sorted(ranked) == [t for t in bw.ALL_TRIPLES if bw.is_hyperbolic(t)]
    assert len(bw.NON_HYPERBOLIC) == 24


def test_stratified_order_is_a_seeded_permutation():
    import random

    population = list(range(37))
    first = bw.stratified(population, 4, random.Random(1))
    assert sorted(first) == population
    assert first == bw.stratified(population, 4, random.Random(1))
    assert first != bw.stratified(population, 4, random.Random(2))
    # the first round takes one member of every block
    assert sorted(x // 4 for x in first[:10]) == list(range(10))
