"""Search kernels behind the choosability engine.

Two hot loops live here: a backtracking list-coloring solver and the
depth-first sweep over canonical color-list assignments.

Conventions:

* vertex sets are Python int bit masks, vertex v = bit v;
* a color list is a Python int mask, color c = bit c, with no bound on the
  number of colors;
* a sweep's state lives in plain lists owned by ``SweepState``, apart from
  what two process-wide caches share between sweeps (see below).

The sweep enumerates one representative per color-renaming class of list
assignments: scanning vertices in a fixed order, a new color may enter a
list only as the smallest unused integer.  Options at each vertex are
ordered by number of fresh colors ascending (maximal reuse first, which
finds uncolorable assignments early) and lexicographically within that.
No branch is built whose partial color classes can no longer end up
connected in the graph; an uncolorable assignment can always be
rewritten, by splitting a disconnected color class into two colors, into
an uncolorable assignment whose classes are all connected.  The prune also
drops branches in which a vertex holds a color that none of its neighbours
can hold (a private color): a class that is a single vertex with no future
neighbour.  Such an assignment is colorable iff its restriction to G - v
is, so the caller (``choosability.is_choosable``) covers these assignments
by checking every G - v instead.  A sweep certifies choosability only
together with those checks.

Each node's work is incremental.  Every level keeps one coloring of its
prefix, and a child probes its own prefix in three steps, cheapest first:
it extends the parent's coloring to the new vertex, an O(deg) test; else it
moves one earlier neighbour off a color of the new vertex's list and gives
the vertex that color; else it calls the solver, which forward-checks.
Colorability is decided exactly either way, so only which coloring a level
keeps depends on the steps.  Every level also keeps its prefix's
color class masks, and the prune shapes the options of the next vertex:
they are generated once per parent prefix from a per-class test of the
classes, so the sweep never builds a prefix the prune would cut, and every
node it counts is probed.  Sibling prefixes share most of their classes,
and the sweeps of a process share graphs (both passes of a call, tau's
candidates, recurring subgraphs) and option keys.  So two bounded LRU
caches serve every sweep: ``_plan`` memoizes the test's outcome per (graph,
vertex, class mask), and ``_option_rows`` the options per (list size,
colors that must hold the vertex, colors that may, colors used, cap).
Given the graph, the test is a function of (vertex, class mask) alone, so
a lookup gives exactly what computing afresh would, whichever sweep
filled it.

A full pass that follows a finished witness hunt skips what the hunt
proved.  The hunt with color cap h searches exactly the part of the full
pass's tree whose nodes use at most h colors, since the options come in
the same order and the cap only ends them sooner.  Below vertex v only
the later vertices with a later neighbour can add fresh colors, at most
their sizes.  So an option of v whose colors used plus those sizes are at
most h spans a subtree inside the hunt's tree, whose every prefix the
hunt probed colorable, and the full pass leaves it out.  Witnesses are
unchanged, as the first uncolorable prefix lies outside every such
subtree.

The last vertex's options are probed in one inner loop of their own.  Its
prefixes are full assignments and have no children, so the loop keeps no
coloring and no class masks for them; it probes, counts and pauses exactly
as the general step would.  The search counters live in locals while a
chunk runs and are written back to ``SweepState.counters`` whenever ``run``
returns, so they are exact between chunks.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import Iterator, Sequence

SWEEP_DONE = 0
SWEEP_WITNESS = 1
SWEEP_PAUSED = 2

# Bounds of the process-wide caches.  P3xP3 fills 2,976 option keys, and
# f = 2 on the connected graphs of order <= 7 sweeps 599 graphs.
_OPTION_ROWS_MAX = 4096
_PLANS_MAX = 1024


def _solve_lists(adj: Sequence[int], avail: list[int], todo: int,
                 color_of: list[int]) -> bool:
    """Color the vertices in ``todo`` from ``avail``, writing color bits into
    ``color_of``; False if impossible.

    ``avail[v]`` is v's list minus the colors already placed on its
    neighbours.  Fewest available colors first, ties to the lowest index,
    stop on a vertex with none; colors tried in ascending value.
    Deterministic.  Forward checking keeps ``avail`` current: each child gets
    a copy with the chosen color struck from the uncolored neighbours, made
    only when there are such neighbours.  A color that leaves a neighbour
    with none is skipped, as the child would stop on that neighbour, and a
    vertex with one color ends the selection scan, as only a vertex with
    none could beat it.  Neither changes the verdict or the coloring found.
    """
    if not todo:
        return True
    best_v = -1
    best_cnt = -1
    t = todo
    while t:
        low = t & -t
        t ^= low
        v = low.bit_length() - 1
        cnt = avail[v].bit_count()
        if best_cnt < 0 or cnt < best_cnt:
            best_v, best_cnt = v, cnt
            if cnt <= 1:
                if cnt == 0:
                    return False
                break
    rest = todo ^ (1 << best_v)
    nbrs = adj[best_v] & rest
    colors = avail[best_v]
    while colors:
        low = colors & -colors
        colors ^= low
        child = avail[:] if nbrs else avail
        n = nbrs
        while n:
            u = n & -n
            n ^= u
            x = u.bit_length() - 1
            child[x] &= ~low
            if not child[x]:
                break
        else:
            color_of[best_v] = low
            if _solve_lists(adj, child, rest, color_of):
                return True
    return False


def _options(size: int, must: int, free: list[int], u: int,
             u_cap: int) -> Iterator[tuple[int, int]]:
    """(list mask, colors used after it) for each option of one vertex: the
    old colors in ``must``, more old colors from ``free`` and k fresh
    colors.  By k ascending, then old-color set in lexicographic order.
    Fresh colors are u, u+1, ..., never past u_cap."""
    need = size - must.bit_count()
    free_bits = [1 << x for x in free]
    for k in range(max(need - len(free), 0), need + 1):
        if u + k > u_cap:
            return
        fresh = ((1 << k) - 1) << u
        for old in combinations(free_bits, need - k):
            yield fresh + must + sum(old), u + k  # distinct bits: the sum is the union


@lru_cache(maxsize=_OPTION_ROWS_MAX)
def _option_rows(size: int, must: int, free: int, u: int,
                 u_cap: int) -> tuple[tuple[int, int], ...]:
    """``_options`` with the old colors ``must`` and ``free`` as masks, in
    one tuple that every sweep shares."""
    return tuple(_options(size, must, [x for x in range(u) if free >> x & 1], u,
                          u_cap))


# outcomes of the prune's per-class test at one vertex, see ``_class_test``
_OUT, _FREE, _MUST, _DEAD = range(4)


def _class_test(adj: Sequence[int], v: int, reach: int, mask: int) -> int:
    """The prune's test of one old color, with class mask M = ``mask`` on the
    prefix before vertex ``v``, given that the parent prefix passed.

    ``reach`` is the set of vertices up to v with a neighbour after v; a
    component of a class still reaches when it meets it.  The color may hold
    v when the component of v in M + v still reaches or is all of M + v (M
    next to v), or when v and M both still reach (M apart from v: v is then
    a component of its own).  It may stay out of v's list when every
    component of M next to v still reaches or is all of M, with two or more
    vertices.  Returns _FREE if both are allowed, _MUST if only holding v,
    _OUT if only staying out, _DEAD if neither.

    The outcome is a function of (v, M) alone: ``adj`` is fixed for a sweep
    and ``reach`` for a vertex."""
    adj_v = adj[v]
    later = reach >> v & 1
    if not mask & adj_v:
        return _FREE if later and mask & reach else _OUT
    may_omit = True
    touched = 0
    todo = mask & adj_v
    while todo:
        # flood the component of M that holds the lowest vertex of ``todo``
        comp = frontier = todo & -todo
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grown = adj[low.bit_length() - 1] & mask & ~comp
            comp |= grown
            frontier |= grown
        todo &= ~comp
        touched |= comp
        if not comp & reach and (comp != mask or not mask & (mask - 1)):
            may_omit = False
    may_hold = later or touched & reach or touched == mask
    if may_omit:
        return _FREE if may_hold else _OUT
    return _MUST if may_hold else _DEAD


def _pruned_options(adj: Sequence[int], classes: list[int], v: int, reach: int,
                    size: int, u_cap: int, tests: dict[int, int],
                    covered: int) -> Iterator[tuple[int, int]]:
    """The options of vertex ``v`` whose color classes can all still end up
    connected, given the class masks of the prefix before it, which passed.

    A fresh color is a class {v}, so it needs a later neighbour of v.  No
    other class changes from the parent's, so the prune is an AND of
    ``_class_test`` over the old colors, and the lists it passes are exactly
    those with every _MUST color, any of the _FREE ones, and fresh colors.
    They come in the order in which ``_options`` over all old colors gives
    them: two old-color sets of one size are ordered by the smallest color
    in only one of them, which the colors both must hold do not change.

    ``tests`` (class mask -> outcome) is v's memo from the graph's plan,
    valid for v alone; it is exact, as each value is a function of its key
    and v.  The options come from ``_option_rows``, which orders them by
    colors used after them ascending; those using at most ``covered``
    colors are a prefix of the rows, and they are left out."""
    must = free = 0
    for x, mask in enumerate(classes):
        test = tests.get(mask)
        if test is None:
            test = tests[mask] = _class_test(adj, v, reach, mask)
        if test == _FREE:
            free |= 1 << x
        elif test == _MUST:
            must |= 1 << x
        elif test == _DEAD:
            return iter(())
    u = len(classes)
    rows = _option_rows(size, must, free, u, u_cap if reach >> v & 1 else u)
    if covered >= u:  # every option uses at least u colors
        rows = rows[bisect_right(rows, covered, key=itemgetter(1)):]
    return iter(rows)


@lru_cache(maxsize=_PLANS_MAX)
def _plan(adj: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...],
                                         tuple[int, ...], list[dict[int, int]]]:
    """What every sweep of the graph ``adj`` shares, per vertex v: its
    earlier neighbours, the vertices up to v with a neighbour after v
    (``reach``), and the memo of ``_class_test``'s outcome by class mask,
    which the sweeps fill."""
    m = len(adj)
    earlier = []
    # u joins ``reach`` at v = u if it has a later neighbour and leaves at
    # its last
    leaving = [0] * m
    for u, row in enumerate(adj):
        if row >> (u + 1):
            leaving[row.bit_length() - 1] |= 1 << u
    reach = []
    live = 0
    for v, row in enumerate(adj):
        below = row & ((1 << v) - 1)
        nbrs = []
        while below:
            low = below & -below
            below ^= low
            nbrs.append(low.bit_length() - 1)
        earlier.append(tuple(nbrs))
        if row >> (v + 1):
            live |= 1 << v
        live &= ~leaving[v]
        reach.append(live)
    return tuple(earlier), tuple(reach), [{} for _ in range(m)]


class SweepState:
    """Resumable DFS over canonical list assignments.

    Probes every prefix for colorability; an uncolorable prefix is completed
    with arbitrary valid lists into a witness.  Each prefix is probed in
    three steps, cheapest first:

    1. extension: the parent prefix's coloring, kept per level, is extended
       to the new vertex v if a color of its list is free among its earlier
       neighbours;
    2. repair: else, for each color c of v's list in ascending order, if
       exactly one earlier neighbour u of v holds c and u's list has a color
       outside c and outside the colors of u's neighbours in the parent
       prefix, u moves to the lowest such color and v gets c.  This is a
       proper coloring from the lists: u's new color avoids every colored
       neighbour of u (v is not yet one of them), and c, held by no other
       neighbour of v, is free for v once u has left it;
    3. else the solver colors the prefix from scratch: fewest available
       colors first, ties to the lowest index, colors ascending, with
       forward checking (see ``_solve_lists``).

    Steps 1 and 2 find a coloring only when one exists, and step 3 decides
    the rest, so the first uncolorable prefix, and every witness, is the one
    the solver alone would give; only the coloring a level keeps differs.

    The coloring found becomes the prefix's own, for its children.  The
    color class masks of each prefix are kept per level too: a child's are
    its parent's plus the new vertex in each color of its list.  The prune
    then shapes each vertex's options: once per parent prefix,
    ``_pruned_options`` keeps only the lists under which every class can
    still end up connected and no class is a single vertex with no future
    neighbour (a private color), so no prefix it would cut is ever built.
    SWEEP_DONE then proves only the assignments with connected classes and
    no private color colorable.

    The prune reads two process-wide caches, filled as the sweeps go:
    the graph's plan (``_plan``), which holds per vertex v the per-class
    test's outcome by class mask M, and the option rows (``_option_rows``)
    by (list size, must, free, colors used, cap).  They are exact because
    the test reads only ``adj``, v, ``reach[v]`` and M, and ``reach`` is a
    function of ``adj``, which keys the plan; so states on one graph may
    share the plan in any interleaving.  The
    colors of v's earlier neighbours in the parent prefix's coloring are
    likewise computed once, when the level is entered, not per sibling, as
    are those of them held by exactly one earlier neighbour (the colors
    step 2 may take).

    The last vertex is probed in one inner loop (the leaf loop) with the
    same three steps, in the same order and with the same pause at
    ``node_budget``.  No child reads a full assignment's coloring, so the
    loop only decides whether one exists: it builds no coloring tuple, and
    it skips the repair when no color of the list is held by exactly one
    earlier neighbour, where the repair would find nothing.

    ``hunted`` is the color cap of a witness hunt on the same graph and
    sizes that ended SWEEP_DONE (0: none).  The options of vertex v that
    use at most ``covered[v]`` colors, ``hunted`` minus the sizes of the
    later vertices with a later neighbour, are then left out, as their
    subtrees lie inside the hunt's finished tree (see the module
    docstring).  They are a prefix of v's option rows.

    counters: 0 nodes, 1 full assignments examined, 2 solver calls,
    3 prefixes colored without the solver (steps 1 and 2), 4 prefixes
    colored by a repair (step 2 alone, a subset of 3).  Every node is
    probed, so counters[0] == counters[2] + counters[3].  A pass with
    ``hunted`` = h examines exactly the full assignments that use more
    than h colors, so its counters[1] plus the hunt's equals a pass's
    without it.  ``run`` keeps them in locals and writes them back on
    every return.
    """

    def __init__(self, adj_masks: list[int], sizes: list[int], u_cap: int, *,
                 hunted: int = 0):
        m = len(sizes)
        self.m = m
        self.adj = adj = tuple(adj_masks)
        self.f = list(sizes)
        self.u_cap = min(u_cap, sum(sizes))
        # per vertex, the options using at most this many colors are skipped
        self.covered = covered = [0] * m
        rest = 0
        for v in range(m - 1, -1, -1):
            covered[v] = hunted - rest
            if adj[v] >> (v + 1):
                rest += sizes[v]
        self.lists = [0] * m
        self.color_of = [0] * m
        # per vertex its earlier neighbours, the reach masks and the prune's
        # memo (see _plan and _pruned_options)
        self.earlier, self.reach, self.class_tests = _plan(adj)
        self.level = 0
        # per level, the colors of that vertex's earlier neighbours in its
        # parent prefix's coloring: set when the level is entered
        self.forbidden = [0] * m
        # per level, those of its colors held by exactly one earlier neighbour
        self.single = [0] * m
        # entry j: a coloring (color bit per vertex) of the prefix of the
        # first j vertices, and per color its class mask on that prefix
        self.colorings: list[tuple[int, ...]] = [()] * (m + 1)
        self.classes: list[list[int]] = [[]] * (m + 1)
        # per level, the iterator over that vertex's remaining options
        self.options = [iter(())] * m
        if m:
            self.options[0] = self._level_options(0)
        self.counters = [0, 0, 0, 0, 0]

    def _level_options(self, level: int) -> Iterator[tuple[int, int]]:
        return _pruned_options(self.adj, self.classes[level], level,
                               self.reach[level], self.f[level], self.u_cap,
                               self.class_tests[level], self.covered[level])

    def run(self, node_budget: int) -> int:
        """Advance by at most ``node_budget`` nodes; returns SWEEP_DONE,
        SWEEP_WITNESS or SWEEP_PAUSED (call again to resume).  The counters
        are kept in locals and written back on every return."""
        m, adj, f, lists = self.m, self.adj, self.f, self.lists
        counters, colorings, classes = self.counters, self.colorings, self.classes
        earlier, forbidden, single = self.earlier, self.forbidden, self.single
        color_of, last, full = self.color_of, m - 1, (1 << m) - 1
        nodes, assignments, solves, extended, repaired = counters
        level = self.level
        nodes_here = 0
        while True:
            if level < 0:
                status = SWEEP_DONE
                break
            if nodes_here >= node_budget:
                status = SWEEP_PAUSED
                break
            if level == last:  # the leaf loop
                forb = forbidden[level]
                movable = single[level]
                for row, _ in self.options[level]:
                    lists[level] = row
                    nodes_here += 1
                    nodes += 1
                    if row & ~forb:
                        extended += 1
                    elif row & movable and self._repair(level, row & movable):
                        extended += 1
                        repaired += 1
                    else:
                        solves += 1
                        if not _solve_lists(adj, lists, full, color_of):
                            status = SWEEP_WITNESS
                            break
                    assignments += 1
                    if nodes_here >= node_budget:
                        status = SWEEP_PAUSED
                        break
                else:
                    level -= 1
                    continue
                break
            option = next(self.options[level], None)
            if option is None:
                level -= 1
                continue
            row, u_after = option
            lists[level] = row
            nodes_here += 1
            nodes += 1
            # the parent's coloring extends if a color of the list is free
            free = row & ~forbidden[level]
            if free:
                extended += 1
                colorings[level + 1] = colorings[level] + (free & -free,)
            # else an earlier neighbour may move off a color of the list
            elif moved := self._repair(level, row & single[level]):
                extended += 1
                repaired += 1
                colorings[level + 1] = moved
            else:
                solves += 1
                if not _solve_lists(adj, lists, (1 << (level + 1)) - 1, color_of):
                    for j in range(level + 1, m):
                        lists[j] = (1 << f[j]) - 1
                    status = SWEEP_WITNESS
                    break
                colorings[level + 1] = tuple(color_of[:level + 1])
            bit = 1 << level
            masks = classes[level] + [0] * (u_after - len(classes[level]))
            rest = row
            while rest:
                low = rest & -rest
                rest ^= low
                masks[low.bit_length() - 1] |= bit
            classes[level + 1] = masks
            level += 1
            coloring = colorings[level]
            forb = twice = 0
            for u in earlier[level]:
                c = coloring[u]
                twice |= forb & c
                forb |= c
            forbidden[level] = forb
            single[level] = forb & ~twice
            self.options[level] = self._level_options(level)
        self.level = level
        counters[:] = nodes, assignments, solves, extended, repaired
        return status

    def _repair(self, level: int, colors: int) -> tuple[int, ...] | None:
        """The parent prefix's coloring with one earlier neighbour u of the
        vertex at ``level`` moved off its color c, and the vertex given c;
        None if no color in ``colors`` (each held by exactly one earlier
        neighbour) lets u move.  Colors c and u's new colors are tried in
        ascending order."""
        coloring = self.colorings[level]
        adj, lists = self.adj, self.lists
        prefix = (1 << level) - 1
        while colors:
            c = colors & -colors
            colors ^= c
            for u in self.earlier[level]:
                if coloring[u] == c:
                    break
            forb = c
            nbrs = adj[u] & prefix
            while nbrs:
                w = nbrs & -nbrs
                nbrs ^= w
                forb |= coloring[w.bit_length() - 1]
            alt = lists[u] & ~forb
            if alt:
                moved = list(coloring)
                moved[u] = alt & -alt
                moved.append(c)
                return tuple(moved)
        return None

    @property
    def nodes(self) -> int:
        return self.counters[0]

    @property
    def assignments_examined(self) -> int:
        return self.counters[1]

    def witness_lists(self) -> tuple[tuple[int, ...], ...]:
        out = []
        for row in self.lists:
            colors = []
            while row:
                low = row & -row
                colors.append(low.bit_length() - 1)
                row ^= low
            out.append(tuple(colors))
        return tuple(out)


def solve_lists_once(adj_masks: list[int], list_masks: list[int]) -> list[int] | None:
    """One-shot proper-coloring search over explicit list masks; returns the
    color of each vertex, or None."""
    color_of = [0] * len(adj_masks)
    if not _solve_lists(adj_masks, list_masks, (1 << len(adj_masks)) - 1, color_of):
        return None
    return [c.bit_length() - 1 for c in color_of]
