"""Kernel-level checks: the solver must agree with brute force on any color
values, the sweep must match the reference enumeration, and the verdicts and
search counts of a few fixed cases are pinned."""

import itertools
import random

from sumchoice import Choosable, NotChoosable, canonical_assignments, generate, is_choosable
from sumchoice.choosability import (
    _bfs_order, _run_sweep, all_proper_colorings, is_list_colorable,
)
from sumchoice.families import Complete, CompleteBipartite, Cycle, Wheel
from sumchoice.graphs import iter_bits

from conftest import graph_from_mask, vertex_pairs


def test_list_colorable_agrees_with_brute_force_past_63_colors():
    # one vertex also holds 66 private colors, so every instance uses more
    # than 63 distinct values and the shared colors often rank past the 63rd
    rng = random.Random(41)
    uncolorable = 0
    for _ in range(100):
        n = rng.randint(2, 5)
        pairs = vertex_pairs(n)
        g = graph_from_mask(n, rng.getrandbits(len(pairs)), pairs)
        values = rng.sample(range(200), 70)
        palette, private = values[:4], values[4:]
        lists = [rng.sample(palette, rng.randint(1, 3)) for _ in range(n)]
        lists[rng.randrange(n)] += private
        assert len({c for row in lists for c in row}) > 63
        coloring = is_list_colorable(g, lists)
        if next(all_proper_colorings(g, lists), None) is None:
            assert coloring is None
            uncolorable += 1
        else:
            assert coloring is not None
            assert all(coloring[v] in lists[v] for v in range(n))
            assert all(coloring[u] != coloring[v] for u, v in g.edges())
    assert uncolorable > 0


def test_sweep_leaf_count_matches_reference_stream():
    # with pruning off, the kernel must examine exactly the canonical classes
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 4)
        pairs = vertex_pairs(n)
        g = graph_from_mask(n, rng.getrandbits(len(pairs)), pairs)
        f = [rng.randint(1, 2) for _ in range(n)]
        order = _bfs_order(g, (1 << n) - 1) if g.is_connected() else list(range(n))
        if not g.is_connected():
            continue
        out = _run_sweep(
            [_relabel_adj(g, order)[v] for v in range(n)],
            [f[v] for v in order], sum(f), conn_prune=False,
            budget=None, context="test")
        if out.witness is not None:
            continue  # a witness stops the count early by design
        stream = list(canonical_assignments(g, f, order=order))
        assert out.assignments == len(stream)


def _relabel_adj(g, order):
    pos = {v: i for i, v in enumerate(order)}
    adj = [0] * g.n
    for v in order:
        for u in iter_bits(g.adj[v]):
            adj[pos[v]] |= 1 << pos[u]
    return adj


def test_verdicts_match_naive_enumeration():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 3)
        pairs = vertex_pairs(n)
        g = graph_from_mask(n, rng.getrandbits(len(pairs)), pairs)
        f = [rng.randint(1, 3) for _ in range(n)]
        if sum(f) > 7:
            continue
        total = sum(f)
        naive = True
        for lists in itertools.product(
                *[itertools.combinations(range(total), x) for x in f]):
            if next(all_proper_colorings(g, lists), None) is None:
                naive = False
                break
        verdict = is_choosable(g, f)
        assert isinstance(verdict, Choosable) == naive


def test_conn_prune_does_not_change_verdicts():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 5)
        pairs = vertex_pairs(n)
        g = graph_from_mask(n, rng.getrandbits(len(pairs)), pairs)
        f = tuple(rng.randint(1, 3) for _ in range(n))
        a = is_choosable(g, f, conn_prune=True)
        b = is_choosable(g, f, conn_prune=False)
        assert isinstance(a, Choosable) == isinstance(b, Choosable)


# verdict, assignments_examined and nodes of a few fixed cases
PINNED = {
    "K3": (generate(Complete(3)), (2, 2, 2), NotChoosable, None, 3),
    "C4": (generate(Cycle(4)), (2, 2, 2, 2), Choosable, 180, 383),
    "K2,3": (generate(CompleteBipartite(2, 3)), (2, 2, 2, 2, 2), Choosable, 1794, 5056),
    "W4": (generate(Wheel(4)), (3, 2, 2, 2, 3), Choosable, 21014, 30705),
    "W4-low": (generate(Wheel(4)), (2, 2, 2, 2, 3), NotChoosable, None, 3),
}


def test_pinned_verdicts_and_counts():
    for name, (g, f, verdict, assignments, nodes) in PINNED.items():
        v = is_choosable(g, f)
        assert type(v) is verdict, name
        assert v.nodes == nodes, name
        if verdict is Choosable:
            assert v.assignments_examined == assignments, name
    assert is_choosable(*PINNED["K3"][:2]).witness == ((0, 1), (0, 1), (0, 1))


def test_bench_smoke():
    from sumchoice.bench import run_bench
    results = run_bench()
    assert len(results) == 4
    assert all(r["seconds"] >= 0 for r in results)
