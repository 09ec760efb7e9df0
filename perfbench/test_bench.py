"""Self-check of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_bench.py

Runs every workload once untraced and twice traced, at a few hundred trials,
and checks that every metric BENCHMARK.json names is present with its unit,
that every check passes, and that the counts the trace reports repeat
exactly and equal the values derived from the instances.
"""

from __future__ import annotations

import json
import math

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Trials per tiny run: enough for two chunks where a chunk is cheap.
TINY = {
    "edge-sweep-kvv20": 2100,
    "ratio-kvv100": 60,
    "properties-random": 200,
    "remark3-n50-jobs2": 2100,
}

CHUNK_TRIALS = 2048  # analysis._CHUNK_TRIALS

# Per trial: trial_rng calls, kernel calls, sum of arrival degrees over the
# kernel calls (None where each trial draws its own instance), and the number
# of estimator sweeps over the trials; per run: maximum_matching calls.
# kvv(n) has n(n+1)/2 edges: 210 for n=20, 5050 for n=100, 1275 for n=50.
EXPECTED = {
    "edge-sweep-kvv20": dict(stream=1, kernel=1, scans=210, sweeps=1, optimum=0),
    "ratio-kvv100": dict(stream=1, kernel=1, scans=5050, sweeps=1, optimum=2),
    "properties-random": dict(stream=1, kernel=2, scans=None, sweeps=1, optimum=0),
    "remark3-n50-jobs2": dict(stream=2, kernel=2, scans=2 * 1275, sweeps=2, optimum=0),
}


@pytest.fixture(scope="module", params=sorted(run.WORKLOADS))
def runs(request):
    name = request.param
    trials = TINY[name]
    untraced = run.measure(name, seed=3, seconds=0, trace=False, trials=trials)
    traced = [run.measure(name, seed=3, seconds=0, trace=True, trials=trials) for _ in range(2)]
    return name, trials, untraced, traced


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_every_metric_present_with_its_unit(runs):
    _, _, untraced, traced = runs
    for result, kind in [(untraced, "end_to_end")] + [(t, "per_layer") for t in traced]:
        assert result.failed == 0, result.problems
        assert {name: unit for name, (_, unit) in result.metrics.items()} == _units(kind)
        assert all(math.isfinite(value) for value, _ in result.metrics.values())


def test_counts_repeat_and_match_the_instances(runs):
    name, trials, _, traced = runs
    first, second = (t.metrics for t in traced)
    for count in run.COUNTS:
        assert first[count] == second[count], count
    expected = EXPECTED[name]
    got = {metric: value for metric, (value, _) in first.items()}
    assert got["analysis.stream_calls_per_trial"] == expected["stream"]
    assert got["matchers.kernel_calls_per_trial"] == expected["kernel"]
    assert got["matchers.optimum_calls"] == expected["optimum"]
    assert got["analysis.chunks"] == expected["sweeps"] * math.ceil(trials / CHUNK_TRIALS)
    if expected["scans"] is not None:
        assert got["matchers.edge_scans_per_trial"] == expected["scans"]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
