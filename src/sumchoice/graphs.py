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
    return _graph6_of_rows(g.n, g.adj)


def _graph6_of_rows(n: int, adj: tuple[int, ...]) -> str:
    """graph6 text of the adjacency rows ``adj`` of a graph of order n."""
    out = [chr(n + 63)]
    group = 0
    nbits = 0
    for col in range(1, n):
        for row in range(col):
            group = group << 1 | (adj[row] >> col & 1)
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

def _refine(adj: tuple[int, ...], cells: list[int], changed: list[int]) -> list[int]:
    """Refine the ordered partition ``cells`` (vertex masks) until it is
    equitable: every vertex of a cell has as many neighbours in each cell as
    every other vertex of that cell.

    Each round compares every cell of two or more vertices against the
    previous round's cells. Its vertices are grouped by their neighbour
    counts in those cells, and the groups stay in the cell's place, sorted
    so that the group with more neighbours in the first cell where the
    counts differ comes first. The rounds stop when no cell splits.

    This is the order of the sorted tuples of neighbour colors, a vertex's
    color being the position of its cell, in which the search was first
    written. Every vertex of a cell has the same degree: that holds for the
    starting degree partition, and splitting a cell or individualizing a
    vertex keeps it. So two vertices of a cell have tuples of equal length,
    which first differ at the first cell where their counts differ, and the
    vertex with more neighbours there sorts first. Only the order of the
    cells ever mattered, not the color values.

    A round counts neighbours only in ``changed``, the cells (in partition
    order) that the previous round split off, which gives the same groups
    in the same order. A cell that did not split, or a split cell taken
    whole, already gave all vertices of a cell the same count. So the counts
    in the other cells tie, and so does the count in the last piece of a
    split cell once the counts in its other pieces tie: the pieces of a cell
    are adjacent, so no difference is skipped. For its first round the
    caller passes every cell, or, when the partition was equitable before a
    vertex v was individualized, v's own cell alone; then each cell splits
    into v's neighbours and the rest."""
    while changed:
        new: list[int] = []
        split: list[int] = []
        if len(changed) == 1 and not changed[0] & (changed[0] - 1):
            row = adj[changed[0].bit_length() - 1]
            for cell in cells:
                inside = cell & row
                if inside and inside != cell:
                    new += (inside, cell ^ inside)
                    split.append(inside)
                else:
                    new.append(cell)
        else:
            only = changed[0] if len(changed) == 1 else 0
            for cell in cells:
                if not cell & (cell - 1):
                    new.append(cell)
                    continue
                pieces: dict = {}
                rest = cell
                while rest:
                    low = rest & -rest
                    row = adj[low.bit_length() - 1]
                    if only:
                        key = (row & only).bit_count()
                    else:
                        key = tuple([(row & c).bit_count() for c in changed])
                    pieces[key] = pieces.get(key, 0) | low
                    rest ^= low
                ordered = [pieces[key] for key in sorted(pieces, reverse=True)]
                new += ordered
                split += ordered[:-1]
        cells, changed = new, split
    return cells


def _canonical_rows(adj: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lexicographically smallest adjacency rows over all relabelings of
    the graph with rows ``adj`` consistent with iterated refinement (exact:
    ties are fully searched), plus the permutation (old vertex -> new
    position) achieving them.

    A node of the search is an ordered partition of the vertices, kept as a
    list of cell masks and refined by :func:`_refine`. The root is the
    degree partition, cells in ascending degree. A node branches on its
    first cell of two or more vertices, individualizing each vertex v of it
    in ascending order: v's own cell goes just before the rest of the cell.
    At a leaf every cell is one vertex, and position p gets the vertex of
    ``cells[p]``.

    A leaf whose rows tie the best so far yields an automorphism, and the
    search skips a child that one of them, fixing the node's individualized
    vertices pointwise, maps from an explored sibling: its leaves repeat
    that sibling's rows. The first smallest leaf in search order is never
    skipped, so rows and permutation are those of the full search, and the
    cost no longer grows with |Aut(G)|. Each automorphism is kept with the
    mask of the vertices it fixes, so that test is one mask comparison, and
    a node applies each automorphism once, merging the orbits of its cell
    as vertex masks."""
    n = len(adj)
    if n == 0:
        return (), ()
    best: tuple[int, ...] | None = None
    best_perm: tuple[int, ...] = ()
    best_order: list[int] = []
    # (automorphism as a vertex map, mask of the vertices it fixes)
    automorphisms: list[tuple[list[int], int]] = []

    def leaf(cells: list[int]) -> None:
        nonlocal best, best_perm, best_order
        # Vertex bit -> its bit after relabeling: cells[p] goes to position p.
        moved = {cell: 1 << pos for pos, cell in enumerate(cells)}
        rows = []
        for cell in cells:
            row = adj[cell.bit_length() - 1]
            acc = 0
            while row:
                low = row & -row
                acc |= moved[low]
                row ^= low
            rows.append(acc)
        cand = tuple(rows)
        order = [cell.bit_length() - 1 for cell in cells]
        if best is None or cand < best:
            best = cand
            perm = [0] * n
            for pos, v in enumerate(order):
                perm[v] = pos
            best_perm = tuple(perm)
            best_order = order
        elif cand == best:
            # g.relabel(perm) == g.relabel(best_perm), so best_perm^-1 o perm
            # maps g onto itself: it sends order[p] to best_order[p].
            gamma = [0] * n
            fixes = 0
            for v, w in zip(order, best_order):
                gamma[v] = w
                if v == w:
                    fixes |= 1 << v
            automorphisms.append((gamma, fixes))

    def search(cells: list[int], changed: list[int], fixed: int) -> None:
        cells = _refine(adj, cells, changed)
        if len(cells) == n:
            leaf(cells)
            return
        i = 0
        while not cells[i] & (cells[i] - 1):
            i += 1
        cell = cells[i]
        # Orbits of the cell under the automorphisms that fix `fixed`
        # pointwise: they fix this node, so they map the cell onto itself.
        # Built when the first of them turns up.
        orbit: list[int] = []
        used = 0
        explored = 0
        rest = cell
        while rest:
            low = rest & -rest
            rest ^= low
            while used < len(automorphisms):
                gamma, fixes = automorphisms[used]
                used += 1
                if fixes & fixed == fixed:
                    if not orbit:
                        orbit = [cell & 1 << u for u in range(n)]
                    for u, w in enumerate(gamma):
                        if orbit[u] and not orbit[u] >> w & 1:
                            merged = orbit[u] | orbit[w]
                            m = merged
                            while m:
                                bit = m & -m
                                orbit[bit.bit_length() - 1] = merged
                                m ^= bit
            if orbit and orbit[low.bit_length() - 1] & explored:
                continue
            explored |= low
            search(cells[:i] + [low, cell ^ low] + cells[i + 1:], [low], fixed | low)

    by_degree: dict[int, int] = {}
    for v, row in enumerate(adj):
        d = row.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    start = [by_degree[d] for d in sorted(by_degree)]
    search(start, start, 0)
    assert best is not None
    return best, best_perm


def canonical_form_and_permutation(g: Graph) -> tuple[CanonicalKey, tuple[int, ...]]:
    """Canonical key plus a permutation (old vertex -> canonical position)
    realizing the canonical relabeling."""
    if g.n > CANONICAL_MAX_ORDER:
        raise CapacityError(
            f"canonical labeling supports order <= {CANONICAL_MAX_ORDER}, got {g.n}"
        )
    rows, perm = _canonical_rows(g.adj)
    return CanonicalKey(_graph6_of_rows(g.n, rows)), perm


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
        # vertex with a nonempty neighborhood. The candidate rows are
        # symmetric by construction, so they are labeled without a Graph.
        seen: dict[str, None] = {}
        for base in _connected_classes(n - 1):
            rows = list(base.adj) + [0]
            for mask in range(1, 1 << (n - 1)):
                cand_rows = list(rows)
                cand_rows[n - 1] = mask
                for u in iter_bits(mask):
                    cand_rows[u] |= 1 << (n - 1)
                canon, _perm = _canonical_rows(tuple(cand_rows))
                seen.setdefault(_graph6_of_rows(n, canon), None)
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
