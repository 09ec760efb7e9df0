"""The benchmark's tracer must keep seeing every layer of the package.

perfbench/tracing.py wraps the names through which one ranking_market
module calls another (for example ``analysis._assign_min_score``) and
perfbench/run.py turns the spans into per-layer metrics. A renamed or
bypassed name does not fail a traced run: its metric goes missing. This
test runs each benchmark workload's argv at a tiny size under the tracer
and requires every per-layer metric to be present. The two perfbench files
are loaded by path and left unchanged.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from ranking_market import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Trials per workload (sweep tuples for properties): a few kernel blocks.
TINY = {
    "edge-sweep-kvv20": 300,
    "ratio-kvv100": 40,
    "properties-random": 40,
    "remark3-n50-jobs2": 300,
}


def _load(monkeypatch, name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_per_layer_metric_is_traced(monkeypatch, capsys, workload):
    tracing = _load(monkeypatch, "tracing")
    run = _load(monkeypatch, "run")
    # the tracer replaces module attributes for good; put every one back
    for module_name, attr, _ in tracing.WRAPPED:
        module = importlib.import_module(f"ranking_market.{module_name}")
        if hasattr(module, attr):
            monkeypatch.setattr(module, attr, getattr(module, attr))
    tracer = tracing.Tracer()
    tracer.install()
    trials = TINY[workload]
    argv = run.WORKLOADS[workload].command(seed=3, trials=trials, jobs=1)
    assert tracer.run(cli.main, argv) == 0
    capsys.readouterr()
    metrics = run.traced_metrics(tracer.table(), trials)
    assert [name for name, (value, _) in metrics.items() if value is None] == []
