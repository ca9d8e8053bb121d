"""Correctness oracles for the benchmark, computed apart from sumchoice.

Graphs are plain data here: an order ``n`` and a tuple of ``n`` bit-mask
adjacency rows (bit u of row v set when uv is an edge), which is what a
``sumchoice.Graph`` carries in ``.n`` and ``.adj``.  Nothing in this module
imports the program under test.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

# Connected graphs on 1..7 vertices up to isomorphism (OEIS A001349).
CONNECTED_GRAPH_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

# The paper's table: sum choice numbers of the 2-connected graphs on five
# vertices other than K5, as a sorted multiset.  K5 has 15.
FIVE_VERTEX_2CONNECTED = (10, 10, 11, 11, 12, 12, 12, 13, 14)
K5_VALUE = 15


def neighbors(adj: Sequence[int], v: int) -> list[int]:
    row = adj[v]
    return [u for u in range(len(adj)) if row >> u & 1]


def edge_count(adj: Sequence[int]) -> int:
    return sum(row.bit_count() for row in adj) // 2


def edges(adj: Sequence[int]) -> list[tuple[int, int]]:
    return [(u, v) for v in range(len(adj)) for u in neighbors(adj, v) if u < v]


def is_connected(adj: Sequence[int], removed: int = -1) -> bool:
    """Whether the graph minus vertex ``removed`` (none when -1) is connected."""
    alive = [v for v in range(len(adj)) if v != removed]
    if not alive:
        return True
    seen = {alive[0]}
    stack = [alive[0]]
    while stack:
        v = stack.pop()
        for u in neighbors(adj, v):
            if u != removed and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(alive)


def cut_vertices(adj: Sequence[int]) -> list[int]:
    """Vertices whose deletion disconnects a connected graph, by brute force."""
    return [v for v in range(len(adj)) if not is_connected(adj, removed=v)]


def greedy_value(adj: Sequence[int]) -> int:
    """|V| + |E|, the value of every sc-greedy graph."""
    return len(adj) + edge_count(adj)


def relabel(adj: Sequence[int], perm: Sequence[int]) -> tuple[int, ...]:
    """Rows of the graph with vertex v renamed perm[v]."""
    rows = [0] * len(adj)
    for v, row in enumerate(adj):
        for u in range(len(adj)):
            if row >> u & 1:
                rows[perm[v]] |= 1 << perm[u]
    return tuple(rows)


# ---------------------------------------------------------------------------
# Published sum choice numbers (warm-cache answers)
# ---------------------------------------------------------------------------

def published_chi_sc(family: str, *params: int) -> int:
    """Published values: K1,n = 2n+1, K2,n = 2n+1+floor(sqrt(4n+1)),
    C_n = 2n, P_n = 2n-1, K_n = n(n+1)/2."""
    if family == "star":
        (n,) = params
        return 2 * n + 1
    if family == "k2n":
        (n,) = params
        return 2 * n + 1 + math.isqrt(4 * n + 1)
    if family == "cycle":
        (n,) = params
        return 2 * n
    if family == "path":
        (n,) = params
        return 2 * n - 1
    if family == "complete":
        (n,) = params
        return n * (n + 1) // 2
    raise ValueError(f"no published value for {family}")


# ---------------------------------------------------------------------------
# 2-choosability (Erdos, Rubin and Taylor, 1979)
# ---------------------------------------------------------------------------

def core(adj: Sequence[int]) -> tuple[int, ...]:
    """Rows of the graph left after deleting degree-1 vertices repeatedly,
    relabeled 0..k-1 in ascending original order."""
    alive = set(range(len(adj)))
    changed = True
    while changed and len(alive) > 1:
        changed = False
        for v in sorted(alive):
            if sum(1 for u in neighbors(adj, v) if u in alive) <= 1 and len(alive) > 1:
                alive.discard(v)
                changed = True
    keep = sorted(alive)
    pos = {v: i for i, v in enumerate(keep)}
    rows = [0] * len(keep)
    for v in keep:
        for u in neighbors(adj, v):
            if u in pos:
                rows[pos[v]] |= 1 << pos[u]
    return tuple(rows)


def theta_path_lengths(adj: Sequence[int]) -> tuple[int, ...] | None:
    """Sorted edge lengths of the three paths of a theta graph, or None when
    the graph is not a theta graph (two degree-3 vertices joined by three
    internally disjoint paths, every other vertex of degree 2)."""
    degs = [row.bit_count() for row in adj]
    ends = [v for v, d in enumerate(degs) if d == 3]
    if len(ends) != 2 or any(d != 2 for v, d in enumerate(degs) if v not in ends):
        return None
    if not is_connected(adj):
        return None
    a, b = ends
    lengths = []
    for start in neighbors(adj, a):
        prev, cur, length = a, start, 1
        while cur != b:
            if cur == a:
                return None
            nxt = [u for u in neighbors(adj, cur) if u != prev]
            prev, cur, length = cur, nxt[0], length + 1
        lengths.append(length)
    return tuple(sorted(lengths))


def is_two_choosable(adj: Sequence[int]) -> bool:
    """A connected graph is 2-choosable iff its core is K1, an even cycle or
    theta(2, 2, 2m) with m >= 1 (path lengths in edges)."""
    if not is_connected(adj):
        raise ValueError("the theorem covers connected graphs")
    c = core(adj)
    k = len(c)
    if k == 1:
        return True
    degs = [row.bit_count() for row in c]
    if all(d == 2 for d in degs):
        return k % 2 == 0  # a connected 2-regular core is a cycle
    lengths = theta_path_lengths(c)
    return (lengths is not None and lengths[0] == 2 and lengths[1] == 2
            and lengths[2] % 2 == 0)


# ---------------------------------------------------------------------------
# Witnesses and size functions
# ---------------------------------------------------------------------------

def is_uncolorable_witness(adj: Sequence[int], f: Sequence[int],
                           lists: Sequence[Sequence[int]]) -> bool:
    """True when every list has the size f gives it, has no repeated color,
    and no proper coloring from the lists exists (checked exhaustively)."""
    n = len(adj)
    if len(lists) != n or len(f) != n:
        return False
    if any(len(lists[v]) != f[v] or len(set(lists[v])) != f[v] for v in range(n)):
        return False
    pairs = edges(adj)
    for combo in itertools.product(*[tuple(row) for row in lists]):
        if all(combo[u] != combo[v] for u, v in pairs):
            return False
    return True


def size_function_ok(adj: Sequence[int], f: Sequence[int], value: int) -> bool:
    """A claimed optimal size function has one positive integer entry per
    vertex and sums to the claimed value."""
    return (len(f) == len(adj) and all(isinstance(x, int) and x >= 1 for x in f)
            and sum(f) == value)
