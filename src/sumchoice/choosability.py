"""Exact f-choosability: reductions, the exhaustive decision procedure and
the color-forcing search.

A size function assigns each vertex a positive list size; the graph is
f-choosable when every assignment of concrete color lists of those sizes
admits a proper coloring from the lists.  The decision procedure enumerates
one representative per color-renaming class of assignments (sum(f) colors
always suffice, since an assignment can mention at most that many distinct
colors and verdicts are renaming-invariant) and checks each for
colorability, so a Choosable answer is a finite exhaustive proof and a
NotChoosable answer carries a concrete witness assignment.
"""

from __future__ import annotations

import itertools
import operator
import time
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from . import _kernels
from .errors import SearchBudgetExceeded
from .graphs import Graph, induced_rows, induced_subgraph, iter_bits

SizeFunction = tuple[int, ...]
Coloring = tuple[int, ...]
# per-vertex color lists, each sorted ascending
ListAssignment = tuple[tuple[int, ...], ...]

CHUNK_NODES = 1 << 11
# Largest list size accepted: a witness spells out every list in full, and
# a graph of order <= 32 is choosable for any sizes above its degrees.
MAX_LIST_SIZE = 1 << 14


@dataclass
class Budget:
    """Wall-clock and node limits shared across one computation.

    Enforced between search chunks (tens of milliseconds of kernel work), so
    a run may overshoot slightly before reporting unknown; a search that
    completes within its final chunk keeps its exact answer.
    """

    deadline: float | None = None
    node_limit: int | None = None
    nodes: int = 0

    @classmethod
    def of(cls, seconds: float | None = None, node_limit: int | None = None) -> "Budget":
        deadline = time.monotonic() + seconds if seconds is not None else None
        return cls(deadline=deadline, node_limit=node_limit)

    def add_nodes(self, delta: int) -> None:
        self.nodes += delta

    def check(self, context: str = "") -> None:
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise SearchBudgetExceeded(
                f"node limit {self.node_limit} exceeded{' in ' + context if context else ''}")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SearchBudgetExceeded(
                f"deadline exceeded{' in ' + context if context else ''}")


@dataclass(frozen=True)
class Choosable:
    """Every list assignment admits a proper coloring."""

    assignments_examined: int
    nodes: int = 0


@dataclass(frozen=True)
class NotChoosable:
    """Carries a concrete uncolorable assignment of the right list sizes."""

    witness: ListAssignment
    nodes: int = 0


@dataclass(frozen=True)
class UnknownVerdict:
    """Budget ran out; progress is reported, nothing is guessed."""

    nodes: int
    progress: str


ChoosabilityVerdict = Union[Choosable, NotChoosable, UnknownVerdict]


# ---------------------------------------------------------------------------
# List colorability
# ---------------------------------------------------------------------------

def is_list_colorable(g: Graph, lists: Sequence[Sequence[int]]) -> Coloring | None:
    """A proper coloring drawn from the lists, or None.

    Deterministic: fewest-remaining-colors vertex selection with ties to the
    lowest vertex index, candidate colors in ascending value.
    """
    if len(lists) != g.n:
        raise ValueError(f"{len(lists)} lists for {g.n} vertices")
    if g.n == 0:
        return ()
    values = sorted({c for row in lists for c in row})
    index = {c: i for i, c in enumerate(values)}
    masks = _list_masks([[index[c] for c in row] for row in lists])
    colors = _kernels.solve_lists_once(list(g.adj), masks)
    if colors is None:
        return None
    return tuple(values[c] for c in colors)


def _list_masks(lists: Sequence[Sequence[int]]) -> list[int]:
    """One mask per list of non-negative integers, with bit c set for each c
    in the list.  Each OR copies the mask, so a list of more than 64 entries
    sets its bits in a bytearray and converts once, which keeps the cost
    linear."""
    masks = []
    for row in lists:
        if len(row) > 64:
            bits = bytearray(max(row) // 8 + 1)
            for c in row:
                bits[c >> 3] |= 1 << (c & 7)
            mask = int.from_bytes(bits, "little")
        else:
            mask = 0
            for c in row:
                mask |= 1 << c
        masks.append(mask)
    return masks


def all_proper_colorings(g: Graph, lists: Sequence[Sequence[int]]) -> Iterator[Coloring]:
    """Brute-force stream of every proper coloring from the lists (oracle
    scale; exponential)."""
    for combo in itertools.product(*[tuple(row) for row in lists]):
        if all(combo[u] != combo[v] for u, v in g.edges()):
            yield combo


# ---------------------------------------------------------------------------
# Size-function reduction
# ---------------------------------------------------------------------------

def _size_tuple(f: Sequence[int], n: int) -> SizeFunction:
    """``f`` as a tuple of n integers.  A size that is not an integer (a
    float or a string, say) raises ValueError rather than being truncated."""
    try:
        sizes = tuple(map(operator.index, f))
    except TypeError:
        raise ValueError(f"list sizes must be integers: {f!r}") from None
    if len(sizes) != n:
        raise ValueError(f"size function has {len(sizes)} entries for order {n}")
    return sizes


def _checked_sizes(f: Sequence[int], n: int) -> SizeFunction:
    """``_size_tuple`` for a size function that ``is_choosable`` accepts: no
    size is negative or above MAX_LIST_SIZE."""
    sizes = _size_tuple(f, n)
    if any(x < 0 for x in sizes):
        raise ValueError(f"negative list size in {sizes}")
    if any(x > MAX_LIST_SIZE for x in sizes):
        raise ValueError(f"list size above {MAX_LIST_SIZE} in {sizes}")
    return sizes


@dataclass(frozen=True)
class ReductionStep:
    kind: str  # "unit" (size-1 vertex) or "surplus" (size > degree)
    vertex: int  # original label
    neighbors: tuple[int, ...] = ()  # original labels, unit steps only
    size: int = 0  # deleted size, surplus steps only


@dataclass
class Reduction:
    graph: Graph
    sizes: SizeFunction
    steps: list[ReductionStep]
    vertex_map: tuple[int, ...]  # reduced index -> original label
    dead: bool = False  # some size hit zero: immediately not choosable


def reduce_size_function(g: Graph, f: Sequence[int]) -> Reduction:
    """Strip vertices with f(v) = 1 (decrementing neighbor sizes) or
    f(v) > deg(v) (sizes unchanged) until 2 <= f(v) <= deg(v) everywhere or
    nothing is left.  Choosability is preserved in both directions; if a
    size reaches zero the instance is immediately not choosable.

    Reducible vertices are processed in ascending original label, so the
    step log is deterministic.  A worklist mask of the reducible vertices
    gives that order without rescanning: a step lowers only the live degrees
    of the stripped vertex's neighbours and, for a unit step, their sizes by
    as much, so a reducible vertex stays reducible (or the instance dies)
    and only those neighbours can join the mask.  Its lowest bit is thus
    always the lowest reducible vertex.  When nothing is stripped, the
    reduced graph is ``g`` itself.
    """
    n = g.n
    adj = g.adj
    sizes = list(_size_tuple(f, n))
    degree = [row.bit_count() for row in adj]  # among the live vertices
    steps: list[ReductionStep] = []
    alive = (1 << n) - 1
    dead = any(s <= 0 for s in sizes)
    todo = 0
    if not dead:
        for v, s in enumerate(sizes):
            if s == 1 or s > degree[v]:
                todo |= 1 << v
    while todo:
        pick = todo & -todo
        todo ^= pick
        alive ^= pick
        v = pick.bit_length() - 1
        nbrs = adj[v] & alive
        if sizes[v] == 1:
            labels = []
            while nbrs:
                low = nbrs & -nbrs
                nbrs ^= low
                u = low.bit_length() - 1
                labels.append(u)
                degree[u] -= 1
                sizes[u] -= 1
                if sizes[u] <= 0:
                    dead = True
                elif sizes[u] == 1:
                    todo |= low
            steps.append(ReductionStep("unit", v, tuple(labels)))
            if dead:
                break
        else:
            steps.append(ReductionStep("surplus", v, size=sizes[v]))
            while nbrs:
                low = nbrs & -nbrs
                nbrs ^= low
                u = low.bit_length() - 1
                degree[u] -= 1
                if sizes[u] > degree[u]:
                    todo |= low

    if alive == (1 << n) - 1:
        return Reduction(graph=g, sizes=tuple(sizes), steps=steps,
                         vertex_map=tuple(range(n)), dead=dead)
    remaining = [v for v in range(n) if alive >> v & 1]
    return Reduction(
        graph=induced_subgraph(g, remaining),
        sizes=tuple(sizes[v] for v in remaining),
        steps=steps,
        vertex_map=tuple(remaining),
        dead=dead,
    )


def _lift_witness(steps: Sequence[ReductionStep],
                  witness: dict[int, tuple[int, ...]]) -> None:
    """Undo reduction steps on a witness (uncolorable) assignment, keeping it
    uncolorable with the original list sizes.

    A unit vertex returns with a fresh color that is also appended to each
    neighbor's list: any proper coloring must spend the fresh color on the
    unit vertex, leaving the neighbors with their old effective lists.  A
    surplus vertex returns with any list at all, since no proper coloring of
    the rest exists to extend.  Each step's fresh colors are the ones just
    above every color in use, so the base is found once and then advanced.
    """
    base = max((c for row in witness.values() for c in row), default=-1) + 1
    for step in reversed(steps):
        if step.kind == "unit":
            witness[step.vertex] = (base,)
            for u in step.neighbors:
                witness[u] = tuple(sorted(witness[u] + (base,)))
            base += 1
        else:
            witness[step.vertex] = tuple(range(base, base + step.size))
            base += step.size


# ---------------------------------------------------------------------------
# Canonical assignment stream (reference implementation)
# ---------------------------------------------------------------------------

def canonical_assignments(g: Graph, f: Sequence[int],
                          order: Sequence[int] | None = None) -> Iterator[ListAssignment]:
    """Restricted-growth stream of f-assignments: one representative per
    color-renaming class, occasionally more.

    Vertices are scanned in ``order`` (default 0..n-1) and a brand-new color
    may enter a list only as the smallest unused integer.  Renaming any
    assignment by first occurrence maps it to exactly one member of the
    stream, so every f-assignment is an injective recoloring of a yielded
    one and exhausting the stream is a sound choosability proof.  (A class
    can appear twice when a vertex introduces several fresh colors whose
    later uses are asymmetric; the swap relating them fixes that list, so
    coverage is what matters and it always holds.)

    Options per vertex go by number of fresh colors ascending, then
    lexicographically; this matches the search kernels' ordering.
    """
    n = g.n
    order = tuple(order) if order is not None else tuple(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError("order is not a permutation of the vertex set")
    if len(f) != n:
        raise ValueError(f"size function has {len(f)} entries for order {n}")
    assign: list[tuple[int, ...]] = [()] * n

    def rec(i: int, used: int) -> Iterator[ListAssignment]:
        if i == n:
            yield tuple(assign)
            return
        v = order[i]
        fv = f[v]
        for fresh in range(fv + 1):
            new_block = tuple(range(used, used + fresh))
            for old in itertools.combinations(range(used), fv - fresh):
                assign[v] = old + new_block
                yield from rec(i + 1, used + fresh)

    return rec(0, 0)


# ---------------------------------------------------------------------------
# The decision procedure
# ---------------------------------------------------------------------------

def _bfs_order(g: Graph, comp_mask: int) -> list[int]:
    adj = g.adj
    seen = comp_mask & -comp_mask
    order = [seen.bit_length() - 1]
    head = 0  # the order is its own queue: order[head:] is still to scan
    while head < len(order):
        fresh = adj[order[head]] & comp_mask & ~seen
        head += 1
        seen |= fresh
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            order.append(low.bit_length() - 1)
    return order


@dataclass
class _SweepOutcome:
    witness: tuple[tuple[int, ...], ...] | None
    assignments: int
    nodes: int


def _run_sweep(adj: Sequence[int], sizes: list[int], u_cap: int,
               budget: Budget | None, context: str) -> _SweepOutcome:
    state = _kernels.SweepState(adj, sizes, u_cap)
    while True:
        before = state.nodes
        status = state.run(CHUNK_NODES)
        if budget is not None:
            budget.add_nodes(state.nodes - before)
        if status == _kernels.SWEEP_PAUSED:
            if budget is not None:
                budget.check(context)
            continue
        if status == _kernels.SWEEP_WITNESS:
            return _SweepOutcome(state.witness_lists(), state.assignments_examined,
                                 state.nodes)
        return _SweepOutcome(None, state.assignments_examined, state.nodes)


def is_choosable(g: Graph, f: Sequence[int], budget: Budget | None = None, *,
                 reduce_first: bool = True) -> ChoosabilityVerdict:
    """Decide whether every f-assignment of color lists is colorable.

    The exhaustive sweep runs over canonical assignments with sum(f) colors
    available, which is always enough.  A preliminary witness-hunting pass
    over a small universe (max list size + 2, an empirically good cap) may
    settle NotChoosable early but is never used to conclude Choosable.
    A size of 0 gives NotChoosable; a size that is not an integer, a
    negative size, or one above MAX_LIST_SIZE raises ValueError.

    The sweep skips every assignment in which some vertex v holds a color
    that none of its neighbours has (a private color), and each component
    G_c then also checks every G_c - v for f restricted to it.  This is
    exact.  Under such an assignment L, any coloring of G - v from L extends
    to v with its private color, so L is colorable iff L restricted to
    G - v is (Erdos, Rubin and Taylor 1979).  Hence G is f-choosable iff
    every assignment with connected color classes and no private color is
    colorable, which the sweep checks, and every G - v is choosable for f
    restricted to it, which the nested searches prove.  Conversely a witness
    for G - v, with any list at v, is a witness for G.

    Whichever path finds it (a size of 0, a sweep or a G_c - v search), the
    witness is lifted through the reduction steps to an f-assignment of G
    and then checked once, on G: an f-assignment that no coloring fits
    proves the verdict, whatever built it.
    """
    f = _checked_sizes(f, g.n)
    start = budget.nodes if budget is not None else 0
    try:
        witness, assignments, nodes = _decide(g, f, budget, reduce_first)
    except SearchBudgetExceeded as exc:
        return UnknownVerdict(nodes=budget.nodes - start, progress=str(exc))
    if witness is None:
        return Choosable(assignments_examined=assignments, nodes=nodes)
    _assert_witness(g, f, witness)
    return NotChoosable(witness=witness, nodes=nodes)


def _decide(g: Graph, f: SizeFunction, budget: Budget | None,
            reduce_first: bool = True) -> tuple[ListAssignment | None, int, int]:
    """The search behind ``is_choosable``: (an unchecked witness or None,
    canonical assignments examined, sweep nodes).  Raises
    SearchBudgetExceeded when the budget runs out."""
    if reduce_first:
        red = reduce_size_function(g, f)
    else:
        red = Reduction(g, f, [], tuple(range(g.n)), dead=0 in f)
    work, sizes = red.graph, red.sizes
    # a witness on part of ``work``; a size of 0 has an empty list, no color
    found: dict[int, tuple[int, ...]] | None = {} if red.dead else None
    assignments = nodes = 0
    for comp_mask in [] if red.dead else work.component_masks():
        order = _bfs_order(work, comp_mask)
        adj = induced_rows(work.adj, order)
        comp_sizes = [sizes[v] for v in order]
        total = sum(comp_sizes)
        caps = []
        if max(comp_sizes) + 2 < total:
            caps.append(max(comp_sizes) + 2)
        caps.append(total)
        for cap in caps:
            out = _run_sweep(adj, comp_sizes, cap, budget=budget,
                             context=f"choosability sweep (cap {cap})")
            nodes += out.nodes
            if out.witness is not None:
                found = dict(zip(order, out.witness))
                break
            if cap == total:
                assignments += out.assignments
        else:
            # the sweep skipped assignments with a private color: check G_c - v
            for v in order:
                rest = [u for u in iter_bits(comp_mask) if u != v]
                sub, sub_assignments, sub_nodes = _decide(
                    induced_subgraph(work, rest), tuple(sizes[u] for u in rest), budget)
                nodes += sub_nodes
                if sub is not None:
                    # v returns as a surplus vertex, with fresh colors just
                    # above those of the G_c - v witness
                    found = dict(zip(rest, sub))
                    _lift_witness([ReductionStep("surplus", v, size=sizes[v])], found)
                    break
                assignments += sub_assignments
                if budget is not None:
                    budget.check("choosability checks of G - v")
        if found is not None:
            break
    if found is None:
        return None, assignments, nodes
    # the other vertices of ``work`` keep arbitrary lists
    witness = {red.vertex_map[v]: tuple(sorted(found[v])) if v in found
               else tuple(range(s)) for v, s in enumerate(sizes)}
    _lift_witness(red.steps, witness)
    return tuple(witness[v] for v in range(g.n)), assignments, nodes


def _assert_witness(g: Graph, f: SizeFunction, witness: ListAssignment) -> None:
    # internal soundness check: right sizes (of distinct colors), genuinely
    # uncolorable by a fresh solve.  Engine colors are non-negative integers
    # below a few times the total size, so they serve as bit positions
    # without a value index.
    masks = _list_masks(witness)
    bad_size = [v for v in range(g.n)
                if len(witness[v]) != f[v] or masks[v].bit_count() != f[v]]
    if bad_size:
        raise AssertionError(f"witness sizes wrong at {bad_size}")
    if _kernels.solve_lists_once(list(g.adj), masks) is not None:
        raise AssertionError("witness assignment is colorable")


# ---------------------------------------------------------------------------
# Forcing assignments
# ---------------------------------------------------------------------------

def find_forcing_assignment(g: Graph, f: Sequence[int], vertex: int,
                            colors: Sequence[int],
                            budget: Budget | None = None) -> ListAssignment | None:
    """An f-assignment L that admits a proper coloring and under which every
    proper coloring uses one of ``colors`` on ``vertex``; None if no such
    assignment exists in the canonical search space.

    The target colors are pinned as distinguished (never renamed); all other
    colors are enumerated in restricted-growth order.  Such an assignment
    exists whenever f is a choice function with size(f) <= chi_sc + |colors| - 1.
    """
    f = _size_tuple(f, g.n)
    if not colors:
        raise ValueError("need at least one target color")
    target_set = set(colors)
    target = sorted(target_set)
    s = len(target)
    free_values: list[int] = []
    c = 0
    while len(free_values) < sum(f):
        if c not in target_set:
            free_values.append(c)
        c += 1

    assign: list[tuple[int, ...]] = [()] * g.n
    counter = [0]

    def materialize() -> ListAssignment:
        out = []
        for row in assign:
            out.append(tuple(sorted(
                target[c] if c < s else free_values[c - s] for c in row)))
        return tuple(out)

    def forcing(cand: ListAssignment) -> bool:
        if is_list_colorable(g, cand) is None:
            return False
        stripped = [list(row) for row in cand]
        stripped[vertex] = [c for c in stripped[vertex] if c not in target_set]
        return is_list_colorable(g, stripped) is None

    def rec(i: int, used_free: int) -> ListAssignment | None:
        if i == g.n:
            cand = materialize()
            return cand if forcing(cand) else None
        fv = f[i]
        base = s + used_free
        for fresh in range(fv + 1):
            new_block = tuple(range(base, base + fresh))
            for old in itertools.combinations(range(base), fv - fresh):
                if i == vertex and not any(c < s for c in old):
                    continue  # colorings would never touch the target set
                counter[0] += 1
                if budget is not None and counter[0] % 4096 == 0:
                    budget.add_nodes(4096)
                    budget.check("forcing-assignment search")
                assign[i] = old + new_block
                hit = rec(i + 1, used_free + fresh)
                if hit is not None:
                    return hit
        return None

    found = rec(0, 0)
    if budget is not None:
        budget.add_nodes(counter[0] % 4096)  # the nodes since the last full block
    return found
