"""Core graph representation and structural algorithms.

Graphs are simple, undirected and labeled 0..n-1 with n <= 32; the adjacency
matrix is stored as one bit row per vertex so the search kernels can treat a
neighborhood as a single machine word.  All operations here are pure: they
take graphs and return new graphs or plain data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NewType

from .errors import CapacityError, GraphFormatError

MAX_ORDER = 32
CANONICAL_MAX_ORDER = 10

CanonicalKey = NewType("CanonicalKey", str)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph as bit-mask adjacency rows.

    Invariants (checked on construction): symmetric adjacency, empty
    diagonal, 0 <= n <= 32.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.n <= MAX_ORDER:
            raise CapacityError(f"graph order {self.n} outside supported range 0..{MAX_ORDER}")
        if len(self.adj) != self.n:
            raise ValueError(f"adjacency has {len(self.adj)} rows for order {self.n}")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"row {v} has bits outside 0..{self.n - 1}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            for u in iter_bits(row):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @cached_property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for u in iter_bits(self.adj[v] >> (v + 1) << (v + 1)):
                yield (v, u)

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((row.bit_count() for row in self.adj), reverse=True))

    def min_degree(self) -> int:
        return min((row.bit_count() for row in self.adj), default=0)

    def add_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise ValueError("self-loops are not allowed")
        rows = list(self.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, tuple(rows))

    def remove_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise ValueError(f"no edge {u}-{v}")
        rows = list(self.adj)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph(self.n, tuple(rows))

    def relabel(self, perm: Iterable[int]) -> "Graph":
        """Return the graph with vertex v renamed to perm[v]."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm is not a permutation of the vertex set")
        rows = [0] * self.n
        for v, row in enumerate(self.adj):
            new_row = 0
            for u in iter_bits(row):
                new_row |= 1 << perm[u]
            rows[perm[v]] = new_row
        return Graph(self.n, tuple(rows))

    def delete_vertex(self, v: int) -> "Graph":
        keep = [u for u in range(self.n) if u != v]
        return induced_subgraph(self, keep)

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = 1
        frontier = 1
        while frontier:
            grow = 0
            for v in iter_bits(frontier):
                grow |= self.adj[v]
            frontier = grow & ~seen
            seen |= frontier
        return seen == (1 << self.n) - 1

    def component_masks(self) -> list[int]:
        """Vertex masks of the connected components, by smallest member."""
        remaining = (1 << self.n) - 1
        out = []
        while remaining:
            start = remaining & -remaining
            seen = start
            frontier = start
            while frontier:
                grow = 0
                for v in iter_bits(frontier):
                    grow |= self.adj[v]
                frontier = grow & ~seen
                seen |= frontier
            out.append(seen)
            remaining &= ~seen
        return out


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError("self-loops are not allowed")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


# ---------------------------------------------------------------------------
# graph6 encoding
# ---------------------------------------------------------------------------

def encode_graph6(g: Graph) -> str:
    """Standard graph6 text: header byte n+63, then the upper triangle
    column-major, packed into 6-bit groups (zero padded), each +63."""
    out = [chr(g.n + 63)]
    group = 0
    nbits = 0
    for col in range(1, g.n):
        for row in range(col):
            group = group << 1 | (g.adj[row] >> col & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(group + 63))
                group = 0
                nbits = 0
    if nbits:
        group <<= 6 - nbits
        out.append(chr(group + 63))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    """Inverse of :func:`encode_graph6`; strict about length and byte range."""
    text = text.strip()
    if not text:
        raise GraphFormatError("empty graph6 string")
    header = ord(text[0])
    if header == 126:
        raise CapacityError("multi-byte graph6 order (n > 62) is not supported")
    if not 63 <= header <= 126:
        raise GraphFormatError(f"bad graph6 header byte {text[0]!r}")
    n = header - 63
    if n > MAX_ORDER:
        raise CapacityError(f"graph6 order {n} exceeds {MAX_ORDER}")
    body = text[1:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise GraphFormatError(
            f"graph6 body has {len(body)} characters, expected {need} for n={n}"
        )
    bits = 0
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise GraphFormatError(f"bad graph6 body byte {ch!r}")
        bits = bits << 6 | val
    total = 6 * len(body)
    rows = [0] * n
    pos = 0
    for col in range(1, n):
        for row in range(col):
            if bits >> (total - 1 - pos) & 1:
                rows[row] |= 1 << col
                rows[col] |= 1 << row
            pos += 1
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# Subgraphs and decomposition
# ---------------------------------------------------------------------------

def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced by ``vertices``, relabeled in ascending original order."""
    vs = sorted(set(vertices))
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    index = {v: i for i, v in enumerate(vs)}
    rows = [0] * len(vs)
    for i, v in enumerate(vs):
        for u in iter_bits(g.adj[v]):
            if u in index:
                rows[i] |= 1 << index[u]
    return Graph(len(vs), tuple(rows))


def blocks(g: Graph) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """Blocks (maximal 2-connected subgraphs and bridges) plus cut vertices.

    Isolated vertices form their own single-vertex block.  Every edge lies
    in exactly one block; the cut vertices are exactly the vertices that
    belong to two or more blocks.
    """
    n = g.n
    disc = [-1] * n
    low = [0] * n
    edge_stack: list[tuple[int, int]] = []
    found: list[tuple[int, ...]] = []
    cuts: set[int] = set()
    timer = 0

    def dfs(u: int, parent: int) -> None:
        nonlocal timer
        disc[u] = low[u] = timer
        timer += 1
        children = 0
        for v in iter_bits(g.adj[u]):
            if disc[v] == -1:
                edge_stack.append((u, v))
                children += 1
                dfs(v, u)
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    if parent != -1 or children > 1:
                        cuts.add(u)
                    comp: set[int] = set()
                    while True:
                        e = edge_stack.pop()
                        comp.add(e[0])
                        comp.add(e[1])
                        if e == (u, v):
                            break
                    found.append(tuple(sorted(comp)))
            elif v != parent and disc[v] < disc[u]:
                edge_stack.append((u, v))
                low[u] = min(low[u], disc[v])

    for root in range(n):
        if disc[root] == -1:
            dfs(root, -1)
            if g.adj[root] == 0:
                found.append((root,))
    return found, tuple(sorted(cuts))


def distances_from(g: Graph, source: int) -> list[int]:
    """BFS distances; -1 for unreachable vertices."""
    dist = [-1] * g.n
    dist[source] = 0
    frontier = 1 << source
    seen = frontier
    d = 0
    while frontier:
        d += 1
        grow = 0
        for v in iter_bits(frontier):
            grow |= g.adj[v]
        frontier = grow & ~seen
        seen |= frontier
        for v in iter_bits(frontier):
            dist[v] = d
    return dist


def graph_power(g: Graph, k: int) -> Graph:
    """Graph on the same vertices with edges between vertices at distance 1..k."""
    if k < 1:
        raise ValueError("power must be a positive integer")
    rows = [0] * g.n
    for v in range(g.n):
        dist = distances_from(g, v)
        for u in range(g.n):
            if u != v and 0 < dist[u] <= k:
                rows[v] |= 1 << u
    return Graph(g.n, tuple(rows))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex (u, u') maps to index u*|V(h)| + u'.

    (u,u') ~ (v,v') iff u == v and u' ~ v', or u' == v' and u ~ v.
    """
    n = g.n * h.n
    if n > MAX_ORDER:
        raise CapacityError(f"product order {n} exceeds {MAX_ORDER}")
    edges = []
    for u in range(g.n):
        for a, b in h.edges():
            edges.append((u * h.n + a, u * h.n + b))
    for a, b in g.edges():
        for u in range(h.n):
            edges.append((a * h.n + u, b * h.n + u))
    return graph_from_edges(n, edges)


# ---------------------------------------------------------------------------
# Canonical labeling
# ---------------------------------------------------------------------------

def _refine(g: Graph, colors: list[int]) -> list[int]:
    """Stable partition refinement by multiset of neighbor colors."""
    n = g.n
    while True:
        sigs = []
        for v in range(n):
            nbr = sorted(colors[u] for u in iter_bits(g.adj[v]))
            sigs.append((colors[v], tuple(nbr)))
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _canonical_rows(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lexicographically smallest adjacency rows over all relabelings
    consistent with iterated refinement (exact: ties are fully searched),
    plus the permutation (old vertex -> new position) achieving them.

    A leaf whose rows tie the best so far yields an automorphism, and the
    search skips a child that one of them, fixing the node's individualized
    vertices pointwise, maps from an explored sibling: its leaves repeat
    that sibling's rows. The first smallest leaf in search order is never
    skipped, so rows and permutation are those of the full search, and the
    cost no longer grows with |Aut(G)|."""
    n = g.n
    best: tuple[int, ...] | None = None
    best_perm: tuple[int, ...] = ()
    automorphisms: list[tuple[int, ...]] = []

    def leaf(colors: list[int]) -> None:
        nonlocal best, best_perm
        perm = [0] * n
        for pos, v in enumerate(sorted(range(n), key=lambda v: colors[v])):
            perm[v] = pos
        rows = [0] * n
        for v in range(n):
            acc = 0
            for u in iter_bits(g.adj[v]):
                acc |= 1 << perm[u]
            rows[perm[v]] = acc
        cand = tuple(rows)
        if best is None or cand < best:
            best = cand
            best_perm = tuple(perm)
        elif cand == best:
            # g.relabel(perm) == g.relabel(best_perm), so best_perm^-1 o perm
            # maps g onto itself.
            inverse = [0] * n
            for v, pos in enumerate(best_perm):
                inverse[pos] = v
            automorphisms.append(tuple(inverse[pos] for pos in perm))

    def search(colors: list[int], fixed: list[int]) -> None:
        colors = _refine(g, colors)
        cells: dict[int, list[int]] = {}
        for v in range(n):
            cells.setdefault(colors[v], []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            leaf(colors)
            return
        # Union-find over the target cell: an automorphism fixing `fixed`
        # pointwise fixes this node, so it maps the cell onto itself.
        root = {v: v for v in target}

        def find(v: int) -> int:
            while root[v] != v:
                v = root[v]
            return v

        used = 0
        explored: list[int] = []
        for v in target:
            for gamma in automorphisms[used:]:
                if all(gamma[u] == u for u in fixed):
                    for u in target:
                        root[find(u)] = find(gamma[u])
            used = len(automorphisms)
            if any(find(u) == find(v) for u in explored):
                continue
            explored.append(v)
            branched = [2 * c for c in colors]
            branched[v] -= 1
            search(branched, fixed + [v])

    if n == 0:
        return (), ()
    search([0] * n, [])
    assert best is not None
    return best, best_perm


def canonical_form_and_permutation(g: Graph) -> tuple[CanonicalKey, tuple[int, ...]]:
    """Canonical key plus a permutation (old vertex -> canonical position)
    realizing the canonical relabeling."""
    if g.n > CANONICAL_MAX_ORDER:
        raise CapacityError(
            f"canonical labeling supports order <= {CANONICAL_MAX_ORDER}, got {g.n}"
        )
    rows, perm = _canonical_rows(g)
    return CanonicalKey(encode_graph6(Graph(g.n, rows))), perm


def canonical_form(g: Graph) -> CanonicalKey:
    """graph6 string of the canonically relabeled graph.

    Two graphs of order <= 10 have equal keys iff they are isomorphic.
    """
    return canonical_form_and_permutation(g)[0]


# ---------------------------------------------------------------------------
# Enumeration of small connected graphs
# ---------------------------------------------------------------------------

_ENUM_MAX = 7
_enum_cache: dict[int, list[Graph]] = {}


def _connected_classes(n: int) -> list[Graph]:
    if n in _enum_cache:
        return _enum_cache[n]
    if n == 1:
        reps = [empty_graph(1)]
    else:
        # Every connected graph has a non-cut vertex, so every class on n
        # vertices arises from some class on n-1 vertices by attaching one
        # vertex with a nonempty neighborhood.
        seen: dict[str, None] = {}
        for base in _connected_classes(n - 1):
            rows = list(base.adj) + [0]
            for mask in range(1, 1 << (n - 1)):
                cand_rows = list(rows)
                cand_rows[n - 1] = mask
                for u in iter_bits(mask):
                    cand_rows[u] |= 1 << (n - 1)
                seen.setdefault(canonical_form(Graph(n, tuple(cand_rows))), None)
        reps = [parse_graph6(key) for key in sorted(seen)]
    _enum_cache[n] = reps
    return reps


def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """One canonical representative per isomorphism class of connected
    graphs on exactly n vertices, in canonical-key order."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > _ENUM_MAX:
        raise CapacityError(f"enumeration supports n <= {_ENUM_MAX}, got {n}")
    yield from _connected_classes(n)
