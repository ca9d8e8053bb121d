"""Tests of the tracer against the sumchoice sources of this checkout.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sumchoice  # noqa: E402
from sumchoice import _kernels, choosability, sumnumber  # noqa: E402

from tracer import Tracer, layer_metrics  # noqa: E402


def traced(fn):
    tracer = Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer


def test_counters_reconcile_and_originals_come_back():
    original = choosability.is_choosable
    init = sumnumber.MemoStore.__init__
    g = sumchoice.generate(sumchoice.parse_family("bipartite:2,3"))

    def work():
        sumchoice.chi_sc(g, sumchoice.MemoStore())
        sumchoice.is_choosable(g, (2, 2, 2, 2, 1))

    tracer = traced(work)
    metrics, absent, problems = layer_metrics(tracer, 1.0, 1.0)
    assert absent == [] and problems == []
    assert metrics["sumnumber.chi_sc.calls"][0] >= 1
    assert metrics["sumnumber.tau.candidates"][0] >= 1
    assert metrics["choosability.not_choosable"][0] >= 1
    assert metrics["kernels.nodes"][0] > 0
    assert metrics["kernels.nodes"][0] == (metrics["kernels.solver_calls"][0]
                                           + metrics["kernels.cache_hits"][0]
                                           + metrics["kernels.prune_cuts"][0])
    assert sumnumber.is_choosable is original
    assert sumchoice.is_choosable is original
    assert sumnumber.MemoStore.__init__ is init


def test_missing_entry_point_is_reported_absent(monkeypatch):
    # a tree needs no sweep, so the program still runs without SweepState
    monkeypatch.delattr(_kernels, "SweepState")
    g = sumchoice.generate(sumchoice.parse_family("path:4"))
    tracer = traced(lambda: sumchoice.chi_sc(g, sumchoice.MemoStore()))
    metrics, absent, problems = layer_metrics(tracer, 1.0, 1.0)
    assert "kernels.nodes" in absent and "kernels.nodes" not in metrics
    assert "kernels.sweeps" in absent
    assert metrics["sumnumber.chi_sc.calls"][0] >= 1
    assert metrics["graphs.blocks.calls"][0] >= 1
    assert problems == []


def test_metric_names_match_benchmark_json():
    import json
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    g = sumchoice.generate(sumchoice.parse_family("cycle:5"))
    tracer = traced(lambda: sumchoice.chi_sc(g, sumchoice.MemoStore()))
    metrics, absent, _ = layer_metrics(tracer, 1.0, 1.0)
    assert absent == []
    from run import latency_report
    metrics.update((name, (v, unit)) for name, (v, unit, _) in latency_report([]).items())
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert all(metrics[m["name"]][1] == m["unit"] for m in spec["per_layer"])
