import json
import random
from dataclasses import replace

import pytest

from sumchoice import (
    Budget, MemoStore, canonical_form, choosability, generate, graph_from_edges,
    induced_subgraph,
)
from sumchoice import suites
from sumchoice.suites import (
    SUITE_NAMES, build_suite, reduction_equivalence, run_suite, subdivide_edge,
)
from sumchoice.families import Cycle, Wheel


def test_every_suite_builds():
    for name in SUITE_NAMES:
        tasks = build_suite(name, extended=True)
        assert tasks
        assert all(t.provenance for t in tasks)
        assert all(callable(t.check) for t in tasks)
        assert len({t.case_id for t in tasks}) == len(tasks)


def test_subdivide_edge():
    c4 = generate(Cycle(4))
    c5 = subdivide_edge(c4, 0, 1)
    assert canonical_form(c5) == canonical_form(generate(Cycle(5)))
    with pytest.raises(ValueError):
        subdivide_edge(c4, 0, 2)


def test_report_json_shape():
    report = run_suite("four-vertex", budget_seconds=300)
    *cases, summary = map(json.loads, report.to_json_lines().splitlines())
    assert summary["suite"] == "four-vertex" and summary["summary"] is True
    assert summary["failed"] == 0
    assert cases[0]["suite"] == "four-vertex"
    assert cases[0]["provenance"] == "literature"
    assert report.exit_code() == 0


def test_unknown_outcome_on_tiny_budget():
    report = run_suite("table1-small", budget_seconds=0.000001)
    assert report.failed == 0
    assert report.unknown >= 1
    assert report.exit_code() == 3


@pytest.mark.parametrize("name", ["edges-and-subdivisions", "cycle-structures",
                                  "min-nscg-scan"])
def test_fast_suites_pass(name):
    report = run_suite(name, budget_seconds=600)
    assert report.exit_code() == 0, report.to_json_lines()


@pytest.mark.slow
def test_five_vertex_suite_passes():
    report = run_suite("five-vertex", budget_seconds=900)
    assert report.exit_code() == 0, report.to_json_lines()


@pytest.mark.slow
def test_lemma_suite_passes():
    report = run_suite("lemma-properties", budget_seconds=900)
    assert report.exit_code() == 0, report.to_json_lines()


def test_reduction_equivalence_catches_a_wrong_reduction(monkeypatch):
    # a reduction that strips a size-1 vertex without shrinking its
    # neighbours' lists: it claims Choosable too often, but every witness it
    # finds still lifts into a sound one, so only the comparison catches it
    real = choosability.reduce_size_function

    def wrong(g, f):
        kept = [(u, v) for u, v in g.edges() if f[u] > 1 and f[v] > 1]
        return real(graph_from_edges(g.n, kept), f)

    monkeypatch.setattr(choosability, "reduce_size_function", wrong)
    ok, _expected, computed, _note = reduction_equivalence(
        (200,), MemoStore(), Budget.of(seconds=600), random.Random(1729))
    assert not ok
    assert "disagreement" in computed


def test_reduction_equivalence_catches_a_reduction_that_drops_too_much(monkeypatch):
    # a reduction that also strips the last vertex of an irreducible
    # remainder as if its list were larger than its degree: G - v is often
    # choosable when G is not, but a witness for G - v lifts into a sound
    # one for G, so only the comparison on irreducible instances catches it
    real = choosability.reduce_size_function

    def wrong(g, f):
        red = real(g, f)
        if red.dead or red.graph.n == 0:
            return red
        keep = list(range(red.graph.n - 1))
        red.steps.append(choosability.ReductionStep(
            "surplus", red.vertex_map[-1], size=red.sizes[-1]))
        return choosability.Reduction(
            graph=induced_subgraph(red.graph, keep),
            sizes=red.sizes[:-1], steps=red.steps,
            vertex_map=red.vertex_map[:-1], dead=False)

    monkeypatch.setattr(choosability, "reduce_size_function", wrong)
    ok, _expected, computed, _note = reduction_equivalence(
        (200,), MemoStore(), Budget.of(seconds=600), random.Random(1729))
    assert not ok
    assert "disagreement" in computed


def test_min_nscg_scan_fails_without_a_seven_edge_class_of_value_eleven(monkeypatch):
    # the suite's own reading of the five-vertex seven-edge class is 12; the
    # scan, which computes apart from the suite, still finds three classes
    real = suites.chi_sc

    def misread(g, memo=None, budget=None, **kw):
        out = real(g, memo, budget, **kw)
        if g.n == 5 and g.edge_count == 7 and out.chi_sc == 11:
            return replace(out, chi_sc=12)
        return out

    monkeypatch.setattr(suites, "chi_sc", misread)
    report = run_suite("min-nscg-scan", budget_seconds=600)
    assert [c.outcome for c in report.cases] == ["fail"]
    assert len(report.cases[0].computed["classes"]) == 3
    assert len(report.cases[0].expected["classes"]) == 2


def test_reports_deterministic_for_fixed_seed():
    a = run_suite("edges-and-subdivisions", seed=7, budget_seconds=600)
    b = run_suite("edges-and-subdivisions", seed=7, budget_seconds=600)
    assert [(c.case_id, c.outcome, c.expected, c.computed) for c in a.cases] \
        == [(c.case_id, c.outcome, c.expected, c.computed) for c in b.cases]


@pytest.mark.research
def test_research_mode_wheels():
    """No expected values: report whatever the budget allows on the open
    wheel instances."""
    from sumchoice import Budget, MemoStore, SumChoiceRecord, chi_sc, greedy_bound
    memo = MemoStore()
    for k in (5, 6):
        g = generate(Wheel(k))
        out = chi_sc(g, memo, Budget.of(seconds=900))
        if isinstance(out, SumChoiceRecord):
            print(f"wheel {k}: chi_sc={out.chi_sc} gb={out.greedy_bound} "
                  f"sc_greedy={out.sc_greedy}")
            assert out.chi_sc <= greedy_bound(g)
        else:
            print(f"wheel {k}: unknown, bounds [{out.lower}, {out.upper}]")
