"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  All expected values are exact integers (tolerance zero).

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  The checks marked ``extended`` are non-blocking and excluded from
the default run; include them with ``-m extended``.
"""

import random
import zlib

import pytest

from sumchoice import (
    Budget, Choosable, MemoStore, SumChoiceRecord, canonical_form, chi_sc,
    classify_minimally_not_sc_greedy, encode_graph6,
    enumerate_connected_graphs, find_forcing_assignment, generate,
    greedy_bound, is_choosable,
)
from sumchoice.choosability import all_proper_colorings
from sumchoice.families import (
    BrokenWheel, CartesianProduct, Complete, CompleteBipartite, Cycle, Path,
    PathOfCycles, Power, Theta, TreeOfCycles, Wheel,
)
from sumchoice.graphs import blocks
from sumchoice.suites import (
    glue_and_pendant, monotonicity, reduction_equivalence, witness_soundness,
)


@pytest.fixture(scope="module")
def memo():
    return MemoStore()


@pytest.fixture(scope="module")
def budget_factory():
    return lambda: Budget.of(seconds=1800)


def report(number: int, description: str, ok: bool) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {description}",
          flush=True)
    assert ok, f"criterion {number} failed: {description}"


def value(g, memo, budget) -> SumChoiceRecord:
    out = chi_sc(g, memo, budget)
    assert isinstance(out, SumChoiceRecord), f"budget ran out: {out}"
    return out


def test_criterion_1_four_vertex_completeness(memo, budget_factory):
    budget = budget_factory()
    bad = []
    for n in range(1, 5):
        for g in enumerate_connected_graphs(n):
            if not value(g, memo, budget).sc_greedy:
                bad.append(encode_graph6(g))
    report(1, "every connected graph on at most four vertices is sc-greedy",
           not bad)


def _five_vertex_values(memo, budget):
    out = {}
    for g in enumerate_connected_graphs(5):
        rec = value(g, memo, budget)
        out[canonical_form(g)] = (g, rec)
    return out


def test_criterion_2_five_vertex_table(memo, budget_factory):
    budget = budget_factory()
    stats = _five_vertex_values(memo, budget)
    two_conn = {k: v for k, v in stats.items() if len(blocks(v[0])[0]) == 1}
    k5 = canonical_form(generate(Complete(5)))
    multiset = sorted(rec.chi_sc for key, (_, rec) in two_conn.items()
                      if key != k5)
    ok = multiset == [10, 10, 11, 11, 12, 12, 12, 13, 14]
    named = {
        "cycle:5": 10,
        "bipartite:2,3": 10,
        "theta:0,1,2": 11,
        "brokenwheel:4": 12,
        "wheel:4": 12,
    }
    from sumchoice import parse_family
    for text, want in named.items():
        g = generate(parse_family(text))
        ok = ok and value(g, memo, budget).chi_sc == want
    k5e = generate(Complete(5)).remove_edge(0, 1)
    ok = ok and value(k5e, memo, budget).chi_sc == 14
    ok = ok and stats[k5][1].chi_sc == 15 and stats[k5][1].sc_greedy
    bw4 = canonical_form(generate(BrokenWheel(4)))
    p5sq = canonical_form(generate(Power(Path(5), 2)))
    ok = ok and bw4 == p5sq
    report(2, "two-connected five-vertex values form the published multiset; "
              "named graphs match", ok)


def test_criterion_3_new_five_vertex_results(memo, budget_factory):
    budget = budget_factory()
    hits = []
    for g in enumerate_connected_graphs(5):
        if g.edge_count == 7 and len(blocks(g)[0]) == 1:
            rec = value(g, memo, budget)
            if rec.chi_sc == 11:
                hits.append(rec)
    w4 = value(generate(Wheel(4)), memo, budget)
    ok = (len(hits) == 1
          and hits[0].greedy_bound == 12
          and w4.chi_sc == 12 and w4.greedy_bound == 13)
    report(3, "unique seven-edge two-connected class has value 11 = "
              "bound - 1; the four-wheel has 12 = bound - 1", ok)


def test_criterion_4_bipartite_and_products(memo, budget_factory):
    budget = budget_factory()
    ok = True
    for n, want in [(1, 5), (2, 8), (3, 10), (4, 13)]:
        ok = ok and value(generate(CompleteBipartite(2, n)), memo,
                          budget).chi_sc == want
    ok = ok and value(generate(CartesianProduct(Complete(2), Complete(3))),
                      memo, budget).chi_sc == 14
    t111 = generate(Theta((1, 1, 1)))
    ok = ok and value(t111, memo, budget).chi_sc == 10
    ok = ok and canonical_form(t111) == canonical_form(
        generate(CompleteBipartite(2, 3)))
    t112 = value(generate(Theta((1, 1, 2))), memo, budget)
    ok = ok and t112.chi_sc == 13 and t112.sc_greedy
    report(4, "complete bipartite, prism and theta values match the known "
              "closed forms", ok)


@pytest.mark.extended
def test_criterion_4_extended_flagged(memo):
    budget = Budget.of(seconds=3600)
    ok = value(generate(CompleteBipartite(3, 3)), memo, budget).chi_sc == 13
    ok = ok and value(generate(Theta((1, 1, 3))), memo, budget).chi_sc == 14
    ok = ok and value(generate(CartesianProduct(Path(3), Path(3))), memo,
                      budget).chi_sc == 20
    report(4, "extended: K33 = 13, long theta = 14, 3x3 grid = 20", ok)


def test_criterion_5_cycle_structures(memo, budget_factory):
    budget = budget_factory()
    a = value(generate(PathOfCycles((4, 4))), memo, budget)
    b = value(generate(PathOfCycles((4, 5))), memo, budget)
    tree = TreeOfCycles(4, ((1, 0, 4), (1, 2, 4)))
    c = value(generate(tree), memo, budget)
    ok = (a.chi_sc == a.greedy_bound == 13
          and b.chi_sc == b.greedy_bound == 15
          and c.chi_sc == c.greedy_bound == 2 * 12 - 3 * 2)
    report(5, "paths and trees of cycles meet the greedy bound "
              "(13, 15 and 18)", ok)


def test_criterion_6_edge_phenomena(memo, budget_factory):
    budget = budget_factory()
    k23 = generate(CompleteBipartite(2, 3))
    pan = k23.remove_edge(0, 2)  # 4-cycle with one pendant vertex
    ok = value(pan, memo, budget).chi_sc == 10
    ok = ok and value(k23, memo, budget).chi_sc == 10
    bigger = k23.add_edge(0, 1)
    rec = value(bigger, memo, budget)
    ok = ok and bigger.edge_count == 7 and rec.chi_sc == 12
    bw3 = value(generate(BrokenWheel(3)), memo, budget)
    ok = ok and bw3.sc_greedy and bw3.chi_sc == 9
    ok = ok and not value(k23, memo, budget).sc_greedy
    ok = ok and value(generate(Theta((1, 1, 2))), memo, budget).sc_greedy
    report(6, "edge-difference pairs, subdivision pair and theta flags all "
              "match", ok)


def test_criterion_7_minimally_not_sc_greedy(memo, budget_factory):
    budget = budget_factory()
    entries = classify_minimally_not_sc_greedy(5, memo, budget)
    keys = sorted(canonical_form(e.graph) for e in entries)
    seven_edge = [canonical_form(g) for g in enumerate_connected_graphs(5)
                  if g.edge_count == 7 and len(blocks(g)[0]) == 1
                  and value(g, memo, budget).chi_sc == 11]
    expected = sorted([
        canonical_form(generate(CompleteBipartite(2, 3))),
        canonical_form(generate(Wheel(4)))] + seven_edge)
    ok = (keys == expected
          and all(e.gap_is_one for e in entries)
          and all(e.gap_is_one for e in entries if e.min_degree == 2)
          and not [e for e in entries if e.graph.n < 5])
    report(7, "scan finds exactly three minimal classes, each one below the "
              "bound; degree-two members obey the gap rule", ok)


def test_criterion_8_lemma_property_suites(memo, budget_factory):
    budget = budget_factory()
    rng = random.Random(1729 ^ zlib.crc32(b"acceptance"))
    # the deterministic lemma checks (direct agreement, min(rho, tau),
    # canonical exhaustiveness, induced heredity) run in the lemma-properties
    # suite test; these four draw their instances from this test's own seed
    checks = [
        (reduction_equivalence, (200,)),
        (glue_and_pendant, (80,)),
        (monotonicity, (80,)),
        (witness_soundness, (60,)),
    ]
    counts = {}
    ok = True
    for check, args in checks:
        good, _expected, computed, _note = check(args, memo, budget, rng)
        ok = ok and good
        counts[check.__name__] = computed
    # spec'd minimum instance counts
    ok = ok and counts["reduction_equivalence"]["agreements"] >= 200
    ok = ok and counts["glue_and_pendant"]["instances_checked"] >= 100
    ok = ok and counts["monotonicity"]["instances_checked"] >= 200
    report(8, "reduction, merging, monotonicity and witness properties hold "
              "at the required counts", ok)


def test_criterion_9_forcing_assignments(memo, budget_factory):
    budget = budget_factory()
    g = generate(Cycle(4))
    f = (1, 2, 2, 3)  # a verified size-8 choice function
    assert isinstance(is_choosable(g, f, budget), Choosable)
    rng = random.Random(97)
    ok = True
    for v in range(4):
        for color in rng.sample(range(9), 3):
            lists = find_forcing_assignment(g, f, v, [color], budget)
            if lists is None:
                ok = False
                continue
            colorings = list(all_proper_colorings(g, lists))
            ok = ok and bool(colorings) and all(c[v] == color for c in colorings)
    report(9, "forcing assignments exist and pin the sampled color at every "
              "vertex of the 4-cycle", ok)
