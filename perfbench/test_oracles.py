"""Tests of the benchmark's own oracles on known cases.

    python3 -m pytest perfbench
"""

import itertools

import pytest

import oracles
from stats import percentile, tail_level


def rows(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def cycle(n):
    return rows(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return rows(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return rows(n, list(itertools.combinations(range(n), 2)))


def bipartite(a, b):
    return rows(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def theta(*lengths):
    """Two poles 0 and 1 joined by paths with the given numbers of edges."""
    edges, nxt = [], 2
    for length in lengths:
        chain = [0] + list(range(nxt, nxt + length - 1)) + [1]
        nxt += length - 1
        edges.extend(zip(chain, chain[1:]))
    return rows(nxt, edges)


C4, C5, K4 = cycle(4), cycle(5), complete(4)
K23, K24 = bipartite(2, 3), bipartite(2, 4)
THETA_224 = theta(2, 2, 4)


@pytest.mark.parametrize("adj, expected", [
    (C4, True), (C5, False), (K23, True), (K24, False), (THETA_224, True),
    (K4, False), (theta(1, 2, 2), False), (theta(2, 2, 3), False),
    (path(4), True), (complete(1), True),
    (rows(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)]), True),  # C4 plus a pendant
    (rows(6, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (0, 4)]), True),  # C4 plus a path
    (rows(8, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (6, 7), (7, 4)]),
     False),  # two C4s joined by an edge: the core is no cycle or theta
])
def test_two_choosable(adj, expected):
    assert oracles.is_two_choosable(adj) is expected


def test_theta_lengths():
    assert oracles.theta_path_lengths(K23) == (2, 2, 2)
    assert oracles.theta_path_lengths(THETA_224) == (2, 2, 4)
    assert oracles.theta_path_lengths(C4) is None
    assert oracles.theta_path_lengths(K24) is None


def test_core_strips_pendant_trees():
    pendant = rows(6, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5)])
    assert oracles.core(pendant) == C4
    assert len(oracles.core(path(5))) == 1


@pytest.mark.parametrize("family, n, value", [
    ("cycle", 4, 8), ("cycle", 5, 10), ("k2n", 3, 10), ("k2n", 4, 13),
    ("complete", 4, 10), ("complete", 5, 15), ("star", 4, 9), ("path", 5, 9),
])
def test_published_values(family, n, value):
    assert oracles.published_chi_sc(family, n) == value


def test_sc_greedy_value_of_small_cases():
    # C4, C5 and K4 are sc-greedy; K2,3 is one below its greedy bound
    assert oracles.greedy_value(C4) == 8
    assert oracles.greedy_value(C5) == 10
    assert oracles.greedy_value(K4) == 10
    assert oracles.greedy_value(K23) == 11


def test_cut_vertices():
    assert oracles.cut_vertices(C4) == []
    assert oracles.cut_vertices(path(4)) == [1, 2]
    assert oracles.cut_vertices(rows(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])) == [2]
    assert oracles.cut_vertices(K23) == []


def test_witness_check():
    # the classical assignment showing K2,4 is not 2-choosable
    lists = ((0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3))
    assert oracles.is_uncolorable_witness(K24, (2,) * 6, lists)
    colorable = ((0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (4, 5))
    assert not oracles.is_uncolorable_witness(K24, (2,) * 6, colorable)
    assert not oracles.is_uncolorable_witness(K24, (2,) * 6, lists[:5] + ((1,),))
    assert not oracles.is_uncolorable_witness(K24, (2,) * 6, lists[:5] + ((1, 1),))
    # an odd cycle with identical lists {0, 1} has no proper coloring
    assert oracles.is_uncolorable_witness(C5, (2,) * 5, ((0, 1),) * 5)
    assert not oracles.is_uncolorable_witness(C4, (2,) * 4, ((0, 1),) * 4)


def test_size_function_check():
    assert oracles.size_function_ok(K4, (1, 2, 3, 4), 10)
    assert not oracles.size_function_ok(K4, (1, 2, 3, 3), 10)
    assert not oracles.size_function_ok(K4, (0, 3, 3, 4), 10)
    assert not oracles.size_function_ok(K4, (4, 3, 3), 10)


def test_connected_graph_counts_by_brute_force():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        classes = set()
        for mask in range(1 << len(pairs)):
            adj = rows(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            if oracles.is_connected(adj):
                classes.add(min(oracles.relabel(adj, p)
                                for p in itertools.permutations(range(n))))
        assert len(classes) == oracles.CONNECTED_GRAPH_COUNTS[n]


def test_relabel_is_an_isomorphism():
    g = theta(2, 2, 4)
    perm = [3, 0, 6, 1, 5, 2, 4]
    h = oracles.relabel(g, perm)
    assert oracles.edge_count(h) == oracles.edge_count(g)
    assert sorted(r.bit_count() for r in h) == sorted(r.bit_count() for r in g)
    assert oracles.is_two_choosable(h)


def test_tail_level_keeps_ten_samples_beyond():
    assert tail_level(6) == 50  # too few for any: the median
    assert tail_level(21) == 50
    assert tail_level(40) == 75
    assert tail_level(100) == 90
    assert tail_level(996) == 98
    xs = list(range(1, 101))
    assert percentile(xs, 50) == 50
    assert percentile(xs, 90) == 90
    assert percentile([], 50) == 0.0
