import itertools
import random

import pytest

from sumchoice import Budget, MemoStore, graph_from_edges
from sumchoice._kernels import SweepState
from sumchoice.graphs import Graph


@pytest.fixture(scope="session")
def memo():
    """One memo store for the whole run; records are final so sharing is safe."""
    return MemoStore()


@pytest.fixture
def budget():
    return Budget.of(seconds=300)


class NoSkip(SweepState):
    """The sweep with the full pass searching every subtree, as if no hunt
    had run before it; ``is_choosable`` then counts the hunt's assignments
    twice."""

    def __init__(self, adj, sizes, u_cap, *, hunted=0):
        super().__init__(adj, sizes, u_cap)


def perm_orbit_min(n: int, edge_mask: int, pairs: list[tuple[int, int]]) -> int:
    """Smallest edge mask in the relabeling orbit: an isomorphism oracle that
    is independent of the canonical-labeling code."""
    pair_index = {p: i for i, p in enumerate(pairs)}
    best = edge_mask
    for perm in itertools.permutations(range(n)):
        out = 0
        for i, (u, v) in enumerate(pairs):
            if edge_mask >> i & 1:
                a, b = sorted((perm[u], perm[v]))
                out |= 1 << pair_index[(a, b)]
        if out < best:
            best = out
    return best


def graph_from_mask(n: int, edge_mask: int, pairs: list[tuple[int, int]]) -> Graph:
    edges = [pairs[i] for i in range(len(pairs)) if edge_mask >> i & 1]
    return graph_from_edges(n, edges)


def vertex_pairs(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def twin_rich_graph(rng: random.Random) -> Graph:
    """A graph of order 8-10 with classes of twins: the vertices of a random
    graph on 2 to n-1 vertices are blown up into classes, each a clique or
    an independent set, and the result is relabeled at random."""
    n = rng.randint(8, 10)
    m = rng.randint(2, n - 1)
    owner = list(range(m)) + [rng.randrange(m) for _ in range(n - m)]
    density = rng.random()
    base = {(a, b): rng.random() < density for a in range(m) for b in range(a + 1, m)}
    clique = [rng.random() < 0.5 for _ in range(m)]
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    for u, v in vertex_pairs(n):
        a, b = sorted((owner[u], owner[v]))
        if clique[a] if a == b else base[a, b]:
            edges.append((perm[u], perm[v]))
    return graph_from_edges(n, edges)
