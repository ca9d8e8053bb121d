"""Verification suites: named bundles of checks with expected values.

Every expected value carries a provenance tag so nothing is asserted
without a source:

* ``literature``: a published sum choice number or classification;
* ``formula``: a published closed form evaluated at these parameters;
* ``derived``: computed here by an independent oracle (brute force,
  direct search, canonical-key comparison);
* ``direct``: immediate from definitions.

Suites are lists of independent tasks; ``run_suite`` runs them in order
through one shared memo store, each with its own budget and seeded rng.
A task outcome is ``pass``/``fail``/``unknown``; unknown means a budget
ran out, never a guess.
"""

from __future__ import annotations

import json
import random
import time
import zlib
from dataclasses import dataclass, field, asdict
from typing import Any, Callable

from . import families as fam
from .choosability import (
    Budget, Choosable, NotChoosable, UnknownVerdict, all_proper_colorings,
    canonical_assignments, find_forcing_assignment, is_choosable,
    is_list_colorable, reduce_size_function,
)
from .errors import SearchBudgetExceeded, SumChoiceError
from .graphs import (
    Graph, blocks, canonical_form, encode_graph6, enumerate_connected_graphs,
    graph_from_edges, induced_subgraph, parse_graph6,
)
from .sumnumber import (
    ChiUnknown, MemoStore, bounded_sum_vectors, chi_sc, closed_form,
    confirm_minimality, classify_minimally_not_sc_greedy,
    direct_min_choice_size, greedy_bound, greedy_choice_function, tau,
)

SUITE_NAMES = (
    "four-vertex",
    "five-vertex",
    "table1-small",
    "edges-and-subdivisions",
    "cycle-structures",
    "lemma-properties",
    "min-nscg-scan",
)


@dataclass(frozen=True)
class Task:
    case_id: str
    provenance: str
    kind: str
    args: tuple = ()


@dataclass
class CaseResult:
    case_id: str
    provenance: str
    outcome: str  # pass | fail | unknown
    expected: Any
    computed: Any
    elapsed: float
    note: str = ""

    def line(self) -> str:
        mark = {"pass": "PASS", "fail": "FAIL", "unknown": "UNKNOWN"}[self.outcome]
        extra = f"  ({self.note})" if self.note else ""
        return (f"[{mark}] {self.case_id} [{self.provenance}] "
                f"expected={self.expected} computed={self.computed}"
                f" {self.elapsed:.2f}s{extra}")


@dataclass
class RunReport:
    suite: str
    cases: list[CaseResult] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cases if c.outcome == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cases if c.outcome == "fail")

    @property
    def unknown(self) -> int:
        return sum(1 for c in self.cases if c.outcome == "unknown")

    def exit_code(self) -> int:
        if self.failed:
            return 1
        if self.unknown:
            return 3
        return 0

    def to_json_lines(self) -> str:
        lines = [json.dumps({"suite": self.suite, **asdict(c)})
                 for c in self.cases]
        lines.append(json.dumps({
            "suite": self.suite, "summary": True,
            "passed": self.passed, "failed": self.failed,
            "unknown": self.unknown, "elapsed": round(self.elapsed, 3),
        }))
        return "\n".join(lines)

    def summary(self) -> str:
        return (f"{self.suite}: {self.passed} passed, {self.failed} failed, "
                f"{self.unknown} unknown in {self.elapsed:.1f}s")


def resolve_graph(source: str) -> Graph:
    if source.startswith("g6:"):
        return parse_graph6(source[3:])
    return fam.generate(fam.parse_family(source))


def subdivide_edge(g: Graph, u: int, v: int) -> Graph:
    """Replace edge uv by a length-two path through a new vertex n."""
    if not g.has_edge(u, v):
        raise ValueError(f"no edge {u}-{v}")
    edges = [e for e in g.edges() if set(e) != {u, v}]
    edges += [(u, g.n), (g.n, v)]
    return graph_from_edges(g.n + 1, edges)


# ---------------------------------------------------------------------------
# Task implementations.  Each returns (ok, expected, computed, note).
# ---------------------------------------------------------------------------

_TASKS: dict[str, Callable] = {}


def _task(name: str):
    def deco(fn):
        _TASKS[name] = fn
        return fn
    return deco


def _rng(seed: int, case_id: str) -> random.Random:
    return random.Random(seed ^ zlib.crc32(case_id.encode()))


def _chi(g: Graph, memo: MemoStore, budget: Budget):
    out = chi_sc(g, memo, budget)
    if isinstance(out, ChiUnknown):
        raise SearchBudgetExceeded(
            f"chi_sc undecided, bounds [{out.lower}, {out.upper}]")
    return out


@_task("chi_value")
def _t_chi_value(args, memo, budget, rng):
    source, expect = args
    g = resolve_graph(source)
    rec = _chi(g, memo, budget)
    computed = {"chi_sc": rec.chi_sc, "gb": rec.greedy_bound,
                "sc_greedy": rec.sc_greedy}
    ok = all(computed[k] == v for k, v in expect.items())
    return ok, expect, {k: computed[k] for k in expect}, ""


@_task("closed_form_agrees")
def _t_closed_form(args, memo, budget, rng):
    (source,) = args
    spec = fam.parse_family(source)
    want = closed_form(spec)
    rec = _chi(fam.generate(spec), memo, budget)
    return rec.chi_sc == want, {"chi_sc": want}, {"chi_sc": rec.chi_sc}, "closed form vs search"


@_task("isomorphic")
def _t_isomorphic(args, memo, budget, rng):
    a, b = args
    ka = canonical_form(resolve_graph(a))
    kb = canonical_form(resolve_graph(b))
    return ka == kb, {"same_class": True}, {"same_class": ka == kb,
                                            "keys": [ka, kb]}, ""


@_task("gb_value")
def _t_gb_value(args, memo, budget, rng):
    source, want_n, want_m, want_gb = args
    g = resolve_graph(source)
    computed = {"n": g.n, "m": g.edge_count, "gb": greedy_bound(g)}
    expect = {"n": want_n, "m": want_m, "gb": want_gb}
    return computed == expect, expect, computed, ""


@_task("five_vertex_multiset")
def _t_five_vertex_multiset(args, memo, budget, rng):
    (expected_multiset,) = args
    values = {}
    for g in enumerate_connected_graphs(5):
        if len(blocks(g)[0]) != 1:
            continue
        values[canonical_form(g)] = _chi(g, memo, budget).chi_sc
    k5 = canonical_form(fam.generate(fam.Complete(5)))
    rest = sorted(v for key, v in values.items() if key != k5)
    ok = rest == list(expected_multiset) and values[k5] == 15
    note = (f"{len(values)} two-connected classes in total; the published "
            f"table covers the {len(values) - 1} besides the complete graph")
    return ok, {"multiset": list(expected_multiset), "K5": 15}, \
        {"multiset": rest, "K5": values[k5]}, note


@_task("unique_seven_edge_gap_one")
def _t_unique_seven_edge(args, memo, budget, rng):
    hits = []
    for g in enumerate_connected_graphs(5):
        if g.edge_count != 7 or len(blocks(g)[0]) != 1:
            continue
        rec = _chi(g, memo, budget)
        if rec.chi_sc == 11:
            hits.append((canonical_form(g), rec.chi_sc, rec.greedy_bound))
    ok = len(hits) == 1 and hits[0][2] - hits[0][1] == 1
    return ok, {"count": 1, "value": 11, "gb": 12}, {"hits": hits}, ""


@_task("all_sc_greedy_upto")
def _t_all_sc_greedy(args, memo, budget, rng):
    (max_n,) = args
    bad = []
    total = 0
    for n in range(1, max_n + 1):
        for g in enumerate_connected_graphs(n):
            total += 1
            rec = _chi(g, memo, budget)
            if not rec.sc_greedy:
                bad.append(encode_graph6(g))
    return not bad, {"non_sc_greedy": []}, \
        {"non_sc_greedy": bad, "graphs_checked": total}, ""


@_task("cut_vertex_classes_sc_greedy")
def _t_cut_vertex_greedy(args, memo, budget, rng):
    (n,) = args
    bad = []
    total = 0
    for g in enumerate_connected_graphs(n):
        if len(blocks(g)[0]) == 1:
            continue
        total += 1
        rec = _chi(g, memo, budget)
        if not rec.sc_greedy:
            bad.append(encode_graph6(g))
    return not bad, {"non_sc_greedy": []}, \
        {"non_sc_greedy": bad, "graphs_checked": total}, \
        "every class with a cut vertex must meet the greedy bound"


@_task("minimality_sweep")
def _t_minimality(args, memo, budget, rng):
    (n,) = args
    refuted = 0
    graphs = 0
    for g in enumerate_connected_graphs(n):
        rec = _chi(g, memo, budget)
        refuted += confirm_minimality(g, rec.chi_sc, budget)
        graphs += 1
    return True, {"choosable_below_optimum": 0}, \
        {"graphs": graphs, "size_functions_refuted": refuted}, \
        "every size function one below the optimum was refuted by witness"


@_task("edge_pair_values")
def _t_edge_pair(args, memo, budget, rng):
    # two graphs differing in one edge, with expected values for both
    src_small, src_large, expect_small, expect_large = args
    small = resolve_graph(src_small)
    large = resolve_graph(src_large)
    diff = large.edge_count - small.edge_count
    ci = _chi(small, memo, budget).chi_sc
    cj = _chi(large, memo, budget).chi_sc
    ok = diff == 1 and ci == expect_small and cj == expect_large
    return ok, {"small": expect_small, "large": expect_large, "edge_diff": 1}, \
        {"small": ci, "large": cj, "edge_diff": diff}, ""


@_task("subdivision_case")
def _t_subdivision(args, memo, budget, rng):
    # subdividing edge (u, v) of the source graph lands in the class of
    # `target`, and the sc-greedy flags are as stated
    source, u, v, target, source_greedy, target_greedy = args
    g = resolve_graph(source)
    h = subdivide_edge(g, u, v)
    same = canonical_form(h) == canonical_form(resolve_graph(target))
    sg = _chi(g, memo, budget).sc_greedy
    tg = _chi(h, memo, budget).sc_greedy
    ok = same and sg == source_greedy and tg == target_greedy
    return ok, {"lands_in_target_class": True, "source_sc_greedy": source_greedy,
                "target_sc_greedy": target_greedy}, \
        {"lands_in_target_class": same, "source_sc_greedy": sg,
         "target_sc_greedy": tg}, ""


@_task("min_nscg_scan")
def _t_min_nscg(args, memo, budget, rng):
    (n,) = args
    entries = classify_minimally_not_sc_greedy(n, memo, budget)
    keys = sorted(canonical_form(e.graph) for e in entries)
    expected_keys = sorted((
        canonical_form(fam.generate(fam.CompleteBipartite(2, 3))),
        canonical_form(fam.generate(fam.Wheel(4))),
        _unique_seven_edge_key(memo, budget),
    ))
    gaps_ok = all(e.gap_is_one for e in entries)
    small = [encode_graph6(e.graph) for e in entries if e.graph.n < 5]
    deg2_ok = all(e.gap_is_one for e in entries if e.min_degree == 2)
    ok = keys == expected_keys and gaps_ok and not small and deg2_ok
    return ok, {"classes": expected_keys, "all_gap_one": True,
                "below_five_vertices": []}, \
        {"classes": keys, "all_gap_one": gaps_ok, "below_five_vertices": small,
         "degree_two_gap_one": deg2_ok}, \
        "minimum degree and gap per entry: " + "; ".join(
            f"{encode_graph6(e.graph)} delta={e.min_degree} "
            f"gap={e.greedy_bound - e.chi_sc}" for e in entries)


def _unique_seven_edge_key(memo, budget):
    for g in enumerate_connected_graphs(5):
        if g.edge_count == 7 and len(blocks(g)[0]) == 1:
            if _chi(g, memo, budget).chi_sc == 11:
                return canonical_form(g)
    raise AssertionError("no 7-edge class with value 11 found")


# -- property bundles -------------------------------------------------------

def _random_graph(rng: random.Random, n: int) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i)]
    return graph_from_edges(n, [e for e in edges if rng.random() < 0.55])


def _irreducible_instance(rng: random.Random, n: int) -> tuple[Graph, tuple[int, ...]]:
    # minimum degree 2 and 2 <= f(v) <= deg(v): the reduction strips nothing
    while True:
        g = _random_graph(rng, n)
        degrees = [g.degree(v) for v in range(n)]
        if min(degrees) >= 2:
            return g, tuple(rng.randint(2, d) for d in degrees)


@_task("reduction_equivalence")
def _t_reduction_equiv(args, memo, budget, rng):
    # every other instance is irreducible, so a fault in what the reduction
    # leaves, and not only in what it strips, changes a verdict
    (count,) = args
    agree = irreducible = 0
    for i in range(count):
        if i % 2:
            g, f = _irreducible_instance(rng, rng.randint(3, 5))
        else:
            n = rng.randint(2, 5)
            g = _random_graph(rng, n)
            f = tuple(rng.randint(1, min(g.degree(v) + 2, 4)) for v in range(n))
        if not reduce_size_function(g, f).steps:
            irreducible += 1
        reduced = is_choosable(g, f, budget)
        unreduced = is_choosable(g, f, budget, reduce_first=False)
        if UnknownVerdict in (type(reduced), type(unreduced)):
            raise SearchBudgetExceeded("reduction check interrupted")
        if isinstance(reduced, Choosable) != isinstance(unreduced, Choosable):
            return False, {"agreements": count}, \
                {"disagreement": {"graph": encode_graph6(g), "sizes": f}}, ""
        agree += 1
    return True, {"agreements": count}, \
        {"agreements": agree, "irreducible": irreducible}, ""


@_task("lemma3_direct_agreement")
def _t_lemma3(args, memo, budget, rng):
    (max_n,) = args
    checked = 0
    for n in range(1, max_n + 1):
        for g in enumerate_connected_graphs(n):
            rec = _chi(g, memo, budget)
            direct, _f = direct_min_choice_size(g, budget)
            if direct != rec.chi_sc:
                return False, {}, {"graph": encode_graph6(g),
                                   "direct": direct, "engine": rec.chi_sc}, ""
            checked += 1
    return True, {"graphs": "all"}, {"graphs_checked": checked}, \
        "direct nondecreasing-size search equals the rho/tau value"


@_task("min_rho_tau_identity")
def _t_min_rho_tau(args, memo, budget, rng):
    # chi == min(rho, tau), with rho and tau recomputed standalone.  tau
    # values at or above rho cannot change the minimum, so searching size
    # functions up to rho - 1 evaluates min(rho, tau) exactly.
    (max_n,) = args
    from .sumnumber import rho as rho_fn
    checked = 0
    for n in range(1, max_n + 1):
        for g in enumerate_connected_graphs(n):
            rec = _chi(g, memo, budget)
            r = rho_fn(g, memo, budget)
            t = tau(g, r.value - 1, budget)
            if t.unknown:
                raise SearchBudgetExceeded("tau recomputation interrupted")
            if min(r.value, t.value) != rec.chi_sc:
                return False, {}, {"graph": encode_graph6(g), "rho": r.value,
                                   "tau": t.value, "chi": rec.chi_sc}, ""
            checked += 1
    return True, {"identity": "chi = min(rho, tau)"}, \
        {"graphs_checked": checked}, \
        "tau capped below rho, which cannot change the minimum"


@_task("glue_and_pendant")
def _t_glue_pendant(args, memo, budget, rng):
    (glue_count,) = args
    bases = [g for n in range(1, 5) for g in enumerate_connected_graphs(n)]
    checked = 0
    # appending one pendant vertex adds exactly 2, for every base and vertex
    for base in bases:
        want = _chi(base, memo, budget).chi_sc + 2
        for v in range(base.n):
            g = graph_from_edges(base.n + 1, list(base.edges()) + [(v, base.n)])
            got = chi_sc(g, memo, budget, use_blocks=False)
            if isinstance(got, ChiUnknown):
                raise SearchBudgetExceeded("pendant check interrupted")
            if got.chi_sc != want:
                return False, {}, {"base": encode_graph6(base), "vertex": v,
                                   "expected": want, "got": got.chi_sc}, ""
            checked += 1
    # gluing two graphs at a single shared vertex: sum minus one
    for _ in range(glue_count):
        a = rng.choice(bases)
        b = rng.choice(bases)
        va = rng.randrange(a.n)
        vb = rng.randrange(b.n)
        mapping = {}
        nxt = a.n
        for u in range(b.n):
            if u == vb:
                mapping[u] = va
            else:
                mapping[u] = nxt
                nxt += 1
        edges = list(a.edges()) + [(mapping[x], mapping[y]) for x, y in b.edges()]
        glued = graph_from_edges(nxt, edges)
        want = (_chi(a, memo, budget).chi_sc + _chi(b, memo, budget).chi_sc - 1)
        got = chi_sc(glued, memo, budget, use_blocks=False)
        if isinstance(got, ChiUnknown):
            raise SearchBudgetExceeded("gluing check interrupted")
        if got.chi_sc != want:
            return False, {}, {"a": encode_graph6(a), "b": encode_graph6(b),
                               "expected": want, "got": got.chi_sc}, ""
        checked += 1
    return True, {"instances": f">= {glue_count}"}, {"instances_checked": checked}, \
        "single-vertex merges computed without block decomposition"


@_task("monotonicity")
def _t_monotonicity(args, memo, budget, rng):
    (f_count,) = args
    checked = 0
    for _ in range(f_count):
        n = rng.randint(2, 5)
        g = _random_graph(rng, n)
        f = tuple(rng.randint(1, min(g.degree(v) + 2, 4)) for v in range(n))
        bigger = tuple(x + rng.randint(0, 1) for x in f)
        vf = is_choosable(g, f, budget)
        vg = is_choosable(g, bigger, budget)
        if isinstance(vf, UnknownVerdict) or isinstance(vg, UnknownVerdict):
            raise SearchBudgetExceeded("monotonicity check interrupted")
        if isinstance(vf, Choosable) and not isinstance(vg, Choosable):
            return False, {}, {"graph": encode_graph6(g), "f": f,
                               "bigger": bigger}, ""
        checked += 1
    # deleting any edge never raises the value
    for n in range(2, 6):
        for g in enumerate_connected_graphs(n):
            base = _chi(g, memo, budget).chi_sc
            for u, v in g.edges():
                out = chi_sc(g.remove_edge(u, v), memo, budget)
                if isinstance(out, ChiUnknown):
                    raise SearchBudgetExceeded("edge-deletion check interrupted")
                if out.chi_sc > base:
                    return False, {}, {"graph": encode_graph6(g),
                                       "edge": (u, v)}, ""
                checked += 1
    return True, {"instances": f">= {f_count}"}, {"instances_checked": checked}, \
        "growing f keeps choosability; deleting an edge never raises the value"


@_task("witness_soundness")
def _t_witness_soundness(args, memo, budget, rng):
    (count,) = args
    found = 0
    tries = 0
    while found < count and tries < count * 40:
        tries += 1
        n = rng.randint(2, 5)
        g = _random_graph(rng, n)
        f = tuple(rng.randint(1, max(1, g.degree(v))) for v in range(n))
        verdict = is_choosable(g, f, budget)
        if not isinstance(verdict, NotChoosable):
            continue
        w = verdict.witness
        if tuple(len(r) for r in w) != f:
            return False, {}, {"bad_sizes": w}, ""
        if is_list_colorable(g, w) is not None:
            return False, {}, {"colorable_witness": w}, ""
        shift = {c: 2 * c + 5 for row in w for c in row}
        renamed = [tuple(sorted(shift[c] for c in row)) for row in w]
        if is_list_colorable(g, renamed) is not None:
            return False, {}, {"renaming_broke_witness": w}, ""
        found += 1
    ok = found >= count
    return ok, {"witnesses": count}, {"witnesses_verified": found}, \
        "sizes match, uncolorable, and stays uncolorable under injective recoloring"


@_task("canonical_exhaustive")
def _t_canonical_exhaustive(args, memo, budget, rng):
    (max_total,) = args
    small = [
        graph_from_edges(1, []),
        graph_from_edges(2, []),
        graph_from_edges(2, [(0, 1)]),
        graph_from_edges(3, []),
        graph_from_edges(3, [(0, 1)]),
        graph_from_edges(3, [(0, 1), (1, 2)]),
        graph_from_edges(3, [(0, 1), (1, 2), (0, 2)]),
    ]
    import itertools
    checked = 0
    for g in small:
        for total in range(g.n, max_total + 1):
            for f in bounded_sum_vectors([1] * g.n, [total] * g.n, total):
                universe = range(total)
                reps = set()
                verdict_naive = True
                for lists in itertools.product(
                        *[itertools.combinations(universe, x) for x in f]):
                    reps.add(_canonical_rep(lists))
                    if next(all_proper_colorings(g, lists), None) is None:
                        verdict_naive = False
                stream = list(canonical_assignments(g, f))
                engine = is_choosable(g, f, budget)
                if isinstance(engine, UnknownVerdict):
                    raise SearchBudgetExceeded("exhaustiveness oracle interrupted")
                ok = (len(stream) == len(reps)
                      and set(stream) == reps
                      and isinstance(engine, Choosable) == verdict_naive)
                if not ok:
                    return False, {}, {
                        "graph": encode_graph6(g), "sizes": f,
                        "stream": len(stream), "classes": len(reps),
                        "naive": verdict_naive,
                        "engine": isinstance(engine, Choosable)}, ""
                checked += 1
    return True, {"instances": "all, orders <= 3"}, {"instances_checked": checked}, \
        "canonical stream matches brute-force renaming classes and verdicts agree"


def _canonical_rep(lists) -> tuple:
    ranks: dict[int, int] = {}
    for row in lists:
        for c in sorted(row):
            if c not in ranks:
                ranks[c] = len(ranks)
    return tuple(tuple(sorted(ranks[c] for c in row)) for row in lists)


@_task("induced_heredity")
def _t_induced_heredity(args, memo, budget, rng):
    # a non-sc-greedy induced subgraph forces non-sc-greediness
    (n,) = args
    import itertools
    checked = 0
    for g in enumerate_connected_graphs(n):
        rec = _chi(g, memo, budget)
        if rec.sc_greedy:
            for k in range(1, g.n):
                for sub in itertools.combinations(range(g.n), k):
                    s = _chi(induced_subgraph(g, sub), memo, budget)
                    if not s.sc_greedy:
                        return False, {}, {"graph": encode_graph6(g),
                                           "subset": sub}, ""
                    checked += 1
    return True, {"violations": 0}, {"subgraphs_checked": checked}, \
        "sc-greedy graphs have only sc-greedy induced subgraphs"


@_task("forcing_instances")
def _t_forcing(args, memo, budget, rng):
    source, sizes, colors_per_vertex = args
    g = resolve_graph(source)
    f = tuple(sizes)
    verified = 0
    for v in range(g.n):
        palette = rng.sample(range(10), colors_per_vertex)
        for color in palette:
            lists = find_forcing_assignment(g, f, v, [color], budget)
            if lists is None:
                return False, {}, {"vertex": v, "color": color,
                                   "found": None}, ""
            colorings = list(all_proper_colorings(g, lists))
            if not colorings or any(c[v] != color for c in colorings):
                return False, {}, {"vertex": v, "color": color,
                                   "lists": lists}, ""
            verified += 1
    return True, {"forcing_assignments": g.n * colors_per_vertex}, \
        {"verified": verified}, \
        "every proper coloring of each returned assignment pins the color"


@_task("greedy_function_choosable")
def _t_greedy_choosable(args, memo, budget, rng):
    (max_n, samples) = args
    checked = 0
    for _ in range(samples):
        n = rng.randint(1, max_n)
        g = _random_graph(rng, n)
        order = list(range(n))
        rng.shuffle(order)
        f = greedy_choice_function(g, order)
        if sum(f) != greedy_bound(g):
            return False, {}, {"graph": encode_graph6(g), "order": order}, ""
        verdict = is_choosable(g, f, budget)
        if isinstance(verdict, UnknownVerdict):
            raise SearchBudgetExceeded("greedy verification interrupted")
        if not isinstance(verdict, Choosable):
            return False, {}, {"graph": encode_graph6(g), "f": f}, ""
        checked += 1
    return True, {"instances": samples}, {"instances_checked": checked}, \
        "back-degree size functions have greedy-bound size and are choosable"


# ---------------------------------------------------------------------------
# Suite definitions
# ---------------------------------------------------------------------------

def build_suite(name: str, extended: bool = False) -> list[Task]:
    if name == "four-vertex":
        return [
            Task("four-vertex/all-sc-greedy", "literature",
                 "all_sc_greedy_upto", (4,)),
        ]
    if name == "five-vertex":
        expected = (10, 10, 11, 11, 12, 12, 12, 13, 14)
        tasks = [
            Task("five-vertex/two-connected-multiset", "literature",
                 "five_vertex_multiset", (expected,)),
            Task("five-vertex/C5", "literature", "chi_value",
                 ("cycle:5", {"chi_sc": 10, "sc_greedy": True})),
            Task("five-vertex/K23", "literature", "chi_value",
                 ("bipartite:2,3", {"chi_sc": 10, "sc_greedy": False})),
            Task("five-vertex/Theta012", "literature", "chi_value",
                 ("theta:0,1,2", {"chi_sc": 11, "sc_greedy": True})),
            Task("five-vertex/BW4", "literature", "chi_value",
                 ("brokenwheel:4", {"chi_sc": 12, "sc_greedy": True})),
            Task("five-vertex/BW4-is-P5-squared", "derived", "isomorphic",
                 ("brokenwheel:4", "power:path:5,2")),
            Task("five-vertex/W4", "literature", "chi_value",
                 ("wheel:4", {"chi_sc": 12, "sc_greedy": False})),
            Task("five-vertex/K5-minus-edge", "literature", "chi_value",
                 ("g6:" + encode_graph6(
                     fam.generate(fam.Complete(5)).remove_edge(0, 1)),
                  {"chi_sc": 14, "sc_greedy": True})),
            Task("five-vertex/K5", "literature", "chi_value",
                 ("complete:5", {"chi_sc": 15, "sc_greedy": True})),
            Task("five-vertex/unique-seven-edge-gap-one", "literature",
                 "unique_seven_edge_gap_one", ()),
            Task("five-vertex/cut-vertex-classes", "literature",
                 "cut_vertex_classes_sc_greedy", (5,)),
            Task("five-vertex/minimality", "derived", "minimality_sweep", (5,)),
        ]
        return tasks
    if name == "table1-small":
        tasks = [
            Task("table1/K21", "formula", "chi_value",
                 ("bipartite:2,1", {"chi_sc": 5})),
            Task("table1/K22", "formula", "chi_value",
                 ("bipartite:2,2", {"chi_sc": 8})),
            Task("table1/K23", "formula", "chi_value",
                 ("bipartite:2,3", {"chi_sc": 10})),
            Task("table1/K24", "formula", "chi_value",
                 ("bipartite:2,4", {"chi_sc": 13})),
            Task("table1/K2xK3", "formula", "chi_value",
                 ("product:complete:2,complete:3", {"chi_sc": 14})),
            Task("table1/Theta111", "formula", "chi_value",
                 ("theta:1,1,1", {"chi_sc": 10})),
            Task("table1/Theta111-is-K23", "derived", "isomorphic",
                 ("theta:1,1,1", "bipartite:2,3")),
            Task("table1/Theta112", "formula", "chi_value",
                 ("theta:1,1,2", {"chi_sc": 13, "sc_greedy": True})),
            Task("table1/closed-form-cross-checks", "formula",
                 "closed_form_agrees", ("bipartite:2,4",)),
        ]
        if extended:
            tasks += [
                Task("table1/K33", "formula", "chi_value",
                     ("bipartite:3,3", {"chi_sc": 13})),
                Task("table1/Theta113", "formula", "chi_value",
                     ("theta:1,1,3", {"chi_sc": 14, "sc_greedy": False})),
                Task("table1/P3xP3", "formula", "chi_value",
                     ("product:path:3,path:3", {"chi_sc": 20})),
            ]
        return tasks
    if name == "edges-and-subdivisions":
        k23 = fam.generate(fam.CompleteBipartite(2, 3))
        pan = k23.remove_edge(0, 2)  # a 4-cycle with one pendant vertex
        g55 = k23.add_edge(0, 1)
        return [
            Task("edges/pendant-cycle-vs-K23", "literature", "edge_pair_values",
                 ("g6:" + encode_graph6(pan), "bipartite:2,3", 10, 10)),
            Task("edges/K23-vs-one-edge-supergraph", "literature",
                 "edge_pair_values",
                 ("bipartite:2,3", "g6:" + encode_graph6(g55), 10, 12)),
            Task("edges/BW3-subdivides-to-K23", "literature", "subdivision_case",
                 ("brokenwheel:3", 0, 2, "bipartite:2,3", True, False)),
            Task("edges/K23-subdivides-to-Theta112", "literature",
                 "subdivision_case",
                 ("bipartite:2,3", 0, 2, "theta:1,1,2", False, True)),
        ]
    if name == "cycle-structures":
        return [
            Task("cycles/path-4-4", "literature", "chi_value",
                 ("pathcycles:4,4", {"chi_sc": 13, "sc_greedy": True})),
            Task("cycles/path-4-5", "literature", "chi_value",
                 ("pathcycles:4,5", {"chi_sc": 15, "sc_greedy": True})),
            Task("cycles/tree-of-three", "literature", "chi_value",
                 ("treecycles:4/1.0.4/1.2.4", {"chi_sc": 18, "sc_greedy": True})),
            Task("cycles/tree-greedy-bound", "formula", "gb_value",
                 ("treecycles:6/1.0.4/1.2.4/1.4.4", 12, 15, 27)),
            Task("cycles/path-greedy-bound", "formula", "gb_value",
                 ("pathcycles:4,5,4", 9, 11, 20)),
        ]
    if name == "lemma-properties":
        return [
            Task("lemma/reduction-equivalence", "derived",
                 "reduction_equivalence", (200,)),
            Task("lemma/min-size-direct-agreement", "derived",
                 "lemma3_direct_agreement", (4,)),
            Task("lemma/min-rho-tau-identity", "derived",
                 "min_rho_tau_identity", (5,)),
            Task("lemma/glue-and-pendant", "derived", "glue_and_pendant", (80,)),
            Task("lemma/monotonicity", "derived", "monotonicity", (80,)),
            Task("lemma/witness-soundness", "derived", "witness_soundness", (60,)),
            Task("lemma/canonical-exhaustive", "derived",
                 "canonical_exhaustive", (7,)),
            Task("lemma/induced-heredity", "derived", "induced_heredity", (5,)),
            Task("lemma/greedy-function", "derived",
                 "greedy_function_choosable", (5, 60)),
            Task("lemma/forcing-on-C4", "literature", "forcing_instances",
                 ("cycle:4", (1, 2, 2, 3), 3)),
        ]
    if name == "min-nscg-scan":
        return [
            Task("min-nscg/scan-to-five", "literature", "min_nscg_scan", (5,)),
        ]
    raise SumChoiceError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def run_task(task: Task, memo: MemoStore, budget_seconds: float,
             seed: int) -> CaseResult:
    budget = Budget.of(seconds=budget_seconds)
    rng = _rng(seed, task.case_id)
    start = time.monotonic()
    try:
        ok, expected, computed, note = _TASKS[task.kind](
            task.args, memo, budget, rng)
        outcome = "pass" if ok else "fail"
    except SearchBudgetExceeded as exc:
        outcome, expected, computed, note = "unknown", None, None, str(exc)
    return CaseResult(
        case_id=task.case_id,
        provenance=task.provenance,
        outcome=outcome,
        expected=expected,
        computed=computed,
        elapsed=time.monotonic() - start,
        note=note,
    )


def run_suite(name: str, cache: str | None = None,
              budget_seconds: float = 600.0, seed: int = 1729,
              extended: bool = False) -> RunReport:
    tasks = build_suite(name, extended=extended)
    start = time.monotonic()
    memo = MemoStore(cache)
    cases = [run_task(t, memo, budget_seconds, seed) for t in tasks]
    return RunReport(suite=name, cases=cases, elapsed=time.monotonic() - start)
