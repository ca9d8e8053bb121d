"""Kernel-level checks: the solver must agree with brute force on any color
values and with a plain reference solver, a reference copy of the kernel
that rebuilds its state at every node must match the reference enumeration
with its prune off and the kernel with it on, every coloring the kernel
keeps must be proper, and the verdicts and search counts of a few fixed
cases are pinned."""

import hashlib
import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from sumchoice import (
    Choosable, NotChoosable, canonical_assignments, enumerate_connected_graphs,
    generate, is_choosable,
)
from sumchoice import _kernels, choosability
from sumchoice._kernels import (
    _DEAD, _FREE, _MUST, SWEEP_DONE, SWEEP_PAUSED, SWEEP_WITNESS, SweepState,
    _class_test, _options, _solve_lists,
)
from sumchoice.choosability import (
    _bfs_order, _run_sweep, all_proper_colorings, is_list_colorable,
)
from sumchoice.families import Complete, CompleteBipartite, Cycle, Wheel
from sumchoice.graphs import iter_bits

from conftest import NoSkip, graph_from_mask, vertex_pairs


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
    # with pruning off, the reference must examine exactly the canonical classes
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 4)
        pairs = vertex_pairs(n)
        g = graph_from_mask(n, rng.getrandbits(len(pairs)), pairs)
        f = [rng.randint(1, 2) for _ in range(n)]
        order = _bfs_order(g, (1 << n) - 1) if g.is_connected() else list(range(n))
        if not g.is_connected():
            continue
        ref, status = _uncut_sweep(_relabel_adj(g, order), [f[v] for v in order])
        if status == SWEEP_WITNESS:
            continue  # a witness stops the count early by design
        stream = list(canonical_assignments(g, f, order=order))
        assert ref.counters[1] == len(stream)


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
    # the full-cap sweep with and without the prune, on connected graphs
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 5)
        pairs = vertex_pairs(n)
        g = graph_from_mask(n, rng.getrandbits(len(pairs)), pairs)
        if not g.is_connected():
            continue
        f = [rng.randint(1, 3) for _ in range(n)]
        order = _bfs_order(g, (1 << n) - 1)
        adj = _relabel_adj(g, order)
        sizes = [f[v] for v in order]
        out = _run_sweep(adj, sizes, sum(f), budget=None, context="test")
        _, status = _uncut_sweep(adj, sizes)
        assert (out.witness is None) == (status == SWEEP_DONE)


def _uncut_sweep(adj, sizes):
    # the full-cap reference sweep with no prune at all, run to its end
    ref = ReferenceSweep(adj, sizes, sum(sizes), conn_prune=False)
    status = SWEEP_PAUSED
    while status == SWEEP_PAUSED:
        status = ref.run(1 << 20)
    return ref, status


def _uncut_verdict(g, f):
    # the reference for the cut
    adj, order = _sweep_input(g)
    _, status = _uncut_sweep(adj, [f[v] for v in order])
    return Choosable if status == SWEEP_DONE else NotChoosable


def test_private_color_cut_keeps_verdicts_on_small_graphs():
    # every connected graph of order <= 4 with 1 <= f <= deg + 1
    checked = {Choosable: 0, NotChoosable: 0}
    for n in range(1, 5):
        for g in enumerate_connected_graphs(n):
            boxes = [range(1, g.degree(v) + 2) for v in range(n)]
            for f in itertools.product(*boxes):
                verdict = type(is_choosable(g, f))
                assert verdict is _uncut_verdict(g, f), (g.adj, f)
                checked[verdict] += 1
    assert min(checked.values()) > 100


# the uncut reference sweeps the unreduced instance with sum(f) colors, so
# its cost grows with sum(f): over 525 random draws of order 5 with
# 1 <= f <= deg + 1, the worst took about 95k nodes at sum(f) = 13, 225k at
# 14 and more than 3M from 18 (K5 - e with f = (3,3,4,4,4): 6.4M)
DRAWN_TOTAL_MAX = 13


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_private_color_cut_keeps_verdicts_on_drawn_graphs(data):
    n = data.draw(st.integers(min_value=2, max_value=5))
    pairs = vertex_pairs(n)
    g = graph_from_mask(n, data.draw(st.integers(0, (1 << len(pairs)) - 1)), pairs)
    assume(g.is_connected())
    f = []
    for v in range(n):
        # leave at least 1 for each vertex still to draw
        top = DRAWN_TOTAL_MAX - sum(f) - (n - 1 - v)
        f.append(data.draw(st.integers(1, min(g.degree(v) + 1, top))))
    assert type(is_choosable(g, f)) is _uncut_verdict(g, f)


# verdict, assignments_examined, nodes and summed solver calls of a few
# fixed cases, the G - v checks included, and the nodes and solver calls
# without the full pass's skip; the solver calls rise if a prefix stops
# trying its parent's coloring, or a one-recolor repair of it, before the
# solver
PINNED = {
    "K3": (generate(Complete(3)), (2, 2, 2), NotChoosable, None, (3, 3), None),
    "C4": (generate(Cycle(4)), (2, 2, 2, 2), Choosable, 17, (37, 66), (2, 4)),
    "K2,3": (generate(CompleteBipartite(2, 3)), (2, 2, 2, 2, 2), Choosable, 170,
             (442, 744), (30, 60)),
    "W4": (generate(Wheel(4)), (3, 2, 2, 2, 3), Choosable, 1393, (2215, 4097),
           (89, 178)),
    "W4-low": (generate(Wheel(4)), (2, 2, 2, 2, 3), NotChoosable, None, (3, 3), None),
}


def test_pinned_verdicts_and_counts(monkeypatch):
    states = []
    for no_skip, sweep in enumerate((SweepState, NoSkip)):

        class Recorded(sweep):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                states.append(self)

        monkeypatch.setattr(_kernels, "SweepState", Recorded)
        for name, (g, f, verdict, assignments, nodes, solver_calls) in PINNED.items():
            states.clear()
            v = is_choosable(g, f)
            assert type(v) is verdict, name
            assert v.nodes == nodes[no_skip], name
            if verdict is Choosable and not no_skip:
                assert v.assignments_examined == assignments, name
            if solver_calls is not None:
                assert sum(state.counters[2] for state in states) == solver_calls[no_skip], \
                    name
        assert is_choosable(*PINNED["K3"][:2]).witness == ((0, 1), (0, 1), (0, 1))


# --- the kernel with its prune as a cut: every option of a vertex is built,
# and a node whose class masks, rebuilt from the lists, fail the prune is
# cut.  The kernel instead generates only the options that pass, so its
# nodes are the reference's nodes minus its cuts.  The reference makes the
# same cuts, the private-color cut included, and probes a prefix in the same
# three steps (the parent's coloring, a one-recolor repair of it, then the
# solver), each with its own plain code: the solver below recomputes each
# vertex's available colors from its colored neighbours instead of
# forward-checking.  It shares only the option order with the
# kernel, so it pins the node order, prune decisions, solver calls, repairs
# and witnesses.

def _reference_solve_lists(adj, lists, todo, colored, color_of):
    """Extend the coloring of ``colored`` to the vertices in ``todo`` from the
    list masks, writing color indices into ``color_of``; False if impossible.
    Fewest available colors first, ties to the lowest index, colors
    ascending."""
    if not todo:
        return True
    best_v = -1
    best_avail = 0
    best_cnt = -1
    t = todo
    while t:
        low = t & -t
        t ^= low
        v = low.bit_length() - 1
        forb = 0
        nbrs = adj[v] & colored
        while nbrs:
            u = nbrs & -nbrs
            nbrs ^= u
            forb |= 1 << color_of[u.bit_length() - 1]
        avail = lists[v] & ~forb
        cnt = avail.bit_count()
        if best_cnt < 0 or cnt < best_cnt:
            best_v, best_avail, best_cnt = v, avail, cnt
            if cnt == 0:
                return False
    bit = 1 << best_v
    while best_avail:
        low = best_avail & -best_avail
        best_avail ^= low
        color_of[best_v] = low.bit_length() - 1
        if _reference_solve_lists(adj, lists, todo ^ bit, colored | bit, color_of):
            return True
    return False


def _reference_repair(adj, lists, coloring, v):
    """The coloring (color bits) of the prefix before ``v`` with one earlier
    neighbour u of v moved off a color c of v's list, and v given c: the
    first c, ascending, held by u alone among v's earlier neighbours, with u
    on the lowest color of its list that is not c and not held by one of
    its neighbours in the prefix.  None if there is no such c."""
    earlier = [u for u in iter_bits(adj[v]) if u < v]
    for c in iter_bits(lists[v]):
        holders = [u for u in earlier if coloring[u] == 1 << c]
        if len(holders) != 1:
            continue
        u = holders[0]
        taken = [coloring[w] for w in iter_bits(adj[u]) if w < v]
        moves = [x for x in iter_bits(lists[u]) if x != c and 1 << x not in taken]
        if moves:
            moved = list(coloring)
            moved[u] = 1 << moves[0]
            return tuple(moved) + (1 << c,)
    return None


def _reference_neighborhood(adj, vertex_mask):
    nbr = 0
    for v in iter_bits(vertex_mask):
        nbr |= adj[v]
    return nbr


def _reference_class_masks(lists, upto, n_colors):
    classes = [0] * n_colors
    for v in range(upto + 1):
        for c in iter_bits(lists[v]):
            classes[c] |= 1 << v
    return classes


def _reference_classes_ok(adj, lists, level, u_after, future):
    for mask in _reference_class_masks(lists, level, u_after):
        remaining = mask
        ncomp = 0
        frozen = False
        while remaining:
            comp = remaining & -remaining
            while True:
                nbr = _reference_neighborhood(adj, comp)
                grown = comp | (nbr & mask)
                if grown == comp:
                    break
                comp = grown
            ncomp += 1
            if not nbr & future:
                frozen = True
            remaining ^= comp
        if frozen and (ncomp >= 2 or mask.bit_count() == 1):
            return False
    return True


def _reference_allowed_old_colors(adj, lists, level, u, future, conn_prune):
    if not conn_prune:
        return list(range(u))
    adj_i = adj[level]
    i_touches_future = bool(adj_i & future)
    return [x for x, mask in enumerate(_reference_class_masks(lists, level - 1, u))
            if adj_i & mask
            or (i_touches_future and _reference_neighborhood(adj, mask) & future)]


class ReferenceSweep:
    """counters: 0 nodes, cut ones included, 1 assignments, 2 solver calls,
    3 prefixes colored without the solver, 4 of them by a repair.  ``run``'s
    node budget counts only the nodes that survive the prune, as the
    kernel's does.  With ``conn_prune`` off it makes no cut and is the
    reference for the prune."""

    def __init__(self, adj, sizes, u_cap, conn_prune):
        m = len(sizes)
        self.m, self.adj, self.f = m, list(adj), list(sizes)
        self.u_cap = min(u_cap, sum(sizes))
        self.conn_prune = conn_prune
        self.lists = [0] * m
        self.color_of = [0] * m
        self.options = [iter(())] * m
        if m:
            self.options[0] = _options(self.f[0], 0, [], 0, self.u_cap)
        self.level = 0
        self.colorings = [()] * (m + 1)
        self.counters = [0, 0, 0, 0, 0]

    def run(self, node_budget):
        m, adj, f, lists = self.m, self.adj, self.f, self.lists
        counters = self.counters
        full = (1 << m) - 1
        level = self.level
        nodes_here = 0
        while True:
            if level < 0:
                self.level = level
                return SWEEP_DONE
            if nodes_here >= node_budget:
                self.level = level
                return SWEEP_PAUSED
            option = next(self.options[level], None)
            if option is None:
                level -= 1
                continue
            lists[level], u_after = option
            counters[0] += 1
            prefix = (1 << (level + 1)) - 1
            future = full ^ prefix
            if self.conn_prune and not _reference_classes_ok(adj, lists, level, u_after,
                                                             future):
                continue
            nodes_here += 1
            coloring = self.colorings[level]
            forb = 0
            for u in iter_bits(adj[level] & (prefix >> 1)):
                forb |= coloring[u]
            free = lists[level] & ~forb
            repaired = None if free else _reference_repair(adj, lists, coloring, level)
            if free:
                counters[3] += 1
                self.colorings[level + 1] = coloring + (free & -free,)
            elif repaired is not None:
                counters[3] += 1
                counters[4] += 1
                self.colorings[level + 1] = repaired
            else:
                counters[2] += 1
                if not _reference_solve_lists(adj, lists, prefix, 0, self.color_of):
                    for j in range(level + 1, m):
                        lists[j] = (1 << f[j]) - 1
                    self.level = level
                    return SWEEP_WITNESS
                self.colorings[level + 1] = tuple(1 << c for c in self.color_of[:level + 1])
            if level == m - 1:
                counters[1] += 1
                continue
            level += 1
            allowed = _reference_allowed_old_colors(adj, lists, level, u_after,
                                                    future ^ (1 << level), self.conn_prune)
            self.options[level] = _options(f[level], 0, allowed, u_after, self.u_cap)


def _sweep_input(g):
    order = _bfs_order(g, (1 << g.n) - 1)
    return _relabel_adj(g, order), order


def _caps(sizes):
    # the heuristic pass's small universe, when it is smaller, and the full one
    total = sum(sizes)
    return sorted({min(max(sizes) + 2, total), total})


def _observed(state, status):
    """Everything the search decides: its status and position, the prefix
    it is extending (all the lists, on a witness), the nodes that survive
    the prune, assignments, solver calls, prefixes settled without the
    solver, those settled by a repair, and the witness."""
    c = state.counters
    rows = state.lists if status == SWEEP_WITNESS else state.lists[:max(state.level, 0)]
    return (status, state.level, list(rows), c[2] + c[3], c[1], c[2], c[3], c[4],
            tuple(tuple(iter_bits(row)) for row in state.lists)
            if status == SWEEP_WITNESS else None)


def _assert_same_search(adj, sizes, cap, chunk, chunks):
    """Both run in the same chunks, pausing and resuming, until they stop.
    Returns whether they stopped within ``chunks`` chunks."""
    ref = ReferenceSweep(adj, sizes, cap, conn_prune=True)
    new = SweepState(adj, sizes, cap)
    for _ in range(chunks):
        expected = _observed(ref, ref.run(chunk))
        assert _observed(new, new.run(chunk)) == expected, (adj, sizes, cap)
        # the kernel's nodes are the reference's nodes minus its prune cuts
        ref_cuts = ref.counters[0] - ref.counters[2] - ref.counters[3]
        assert new.nodes == ref.counters[0] - ref_cuts
        if expected[0] == SWEEP_WITNESS:
            assert new.witness_lists() == expected[-1]
        if expected[0] != SWEEP_PAUSED:
            return True
    return False


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sweep_matches_reference_kernel(n):
    # of the 120 sweeps over orders 1-5, 115 end within 3000 surviving
    # nodes; the rest are compared in their paused state there
    for g in enumerate_connected_graphs(n):
        adj, _ = _sweep_input(g)
        degrees = [row.bit_count() for row in adj]
        for sizes in ([2] * n, [min(3, d + 1) for d in degrees]):
            for cap in _caps(sizes):
                _assert_same_search(adj, sizes, cap, 1000, 3)


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_tiny_chunks_pause_inside_the_last_level(chunk, monkeypatch):
    # chunks this small pause between the last vertex's options, which the
    # kernel probes in one inner loop; every sweep runs to its end
    pauses_at_last = witnesses_at_last = 0
    real_run = SweepState.run

    def spied(state, budget):
        nonlocal pauses_at_last, witnesses_at_last
        status = real_run(state, budget)
        if state.level == state.m - 1:
            pauses_at_last += status == SWEEP_PAUSED
            witnesses_at_last += status == SWEEP_WITNESS
        return status

    monkeypatch.setattr(SweepState, "run", spied)
    for n in range(1, 5):
        for g in enumerate_connected_graphs(n):
            adj, _ = _sweep_input(g)
            degrees = [row.bit_count() for row in adj]
            for sizes in ([2] * n, [min(3, d + 1) for d in degrees]):
                for cap in _caps(sizes):
                    assert _assert_same_search(adj, sizes, cap, chunk, 10_000)
    assert pauses_at_last > 0 and witnesses_at_last > 0


class _CoveredCount(SweepState):
    """A full pass with no skip that counts the nodes, and the leaves, whose
    options use at most ``hunted`` colors."""

    def __init__(self, adj, sizes, u_cap, hunted):
        self.hunted = hunted
        self.covered_nodes = self.covered_leaves = 0
        super().__init__(adj, sizes, u_cap)

    def _level_options(self, level):
        for row in super()._level_options(level):
            if row[1] <= self.hunted:
                self.covered_nodes += 1
                self.covered_leaves += level == self.m - 1
            yield row


def _run_to_end(state):
    status = SWEEP_PAUSED
    while status == SWEEP_PAUSED:
        status = state.run(1 << 20)
    return status


def _check_skip(adj, sizes, hunted):
    """After a hunt with cap ``hunted`` that ends SWEEP_DONE, the full pass
    that skips what it covered against one that does not: the two end
    alike, and when they end SWEEP_DONE the hunt's nodes and leaves are the
    ones using at most ``hunted`` colors.  Returns the full pass's status,
    None when the hunt found a witness."""
    hunt = SweepState(adj, sizes, hunted)
    if _run_to_end(hunt) != SWEEP_DONE:
        return None
    ref = _CoveredCount(adj, sizes, sum(sizes), hunted)
    new = SweepState(adj, sizes, sum(sizes), hunted=hunted)
    status = _run_to_end(ref)
    assert _run_to_end(new) == status, (adj, sizes)
    assert new.nodes <= ref.nodes
    if status == SWEEP_WITNESS:
        assert new.witness_lists() == ref.witness_lists()
    else:
        assert hunt.nodes == ref.covered_nodes, (adj, sizes)
        assert hunt.assignments_examined == ref.covered_leaves
        assert hunt.assignments_examined + new.assignments_examined \
            == ref.assignments_examined, (adj, sizes)
    return status


@pytest.mark.parametrize("n", [3, 4, 5])
def test_full_pass_skips_exactly_what_the_hunt_covered(n):
    # the hunt's tree is the full pass's tree cut at its cap, so after a
    # hunt that ends SWEEP_DONE the skipping pass's leaves are the rest
    hunts = 0
    for g in enumerate_connected_graphs(n):
        adj, _ = _sweep_input(g)
        degrees = [row.bit_count() for row in adj]
        for sizes, hunted in itertools.product(
                ([2] * n, [min(3, d + 1) for d in degrees]), range(2, 6)):
            if max(sizes) <= hunted < sum(sizes):
                hunts += _check_skip(adj, sizes, hunted) is not None
    assert hunts > 0


def test_full_pass_finds_the_witness_a_small_hunt_missed():
    # K2,4 is not 2-choosable, but each witness uses four colors
    adj, _ = _sweep_input(generate(CompleteBipartite(2, 4)))
    assert [_check_skip(adj, [2] * 6, hunted) for hunted in (2, 3, 4)] \
        == [SWEEP_WITNESS, SWEEP_WITNESS, None]


def _verdicts_without_the_skip(graphs_and_sizes, monkeypatch):
    """(verdict type, witness, assignments_examined) and nodes of each call,
    with and without the full pass's skip.  Without it the full pass alone
    counts the assignments, as the hunt's tree is part of its own."""
    real = choosability._run_sweep

    def no_skip(adj, sizes, u_cap, budget, context, hunted=0):
        out = real(adj, sizes, u_cap, budget, context)
        if u_cap < sum(sizes):
            out.assignments = 0
        return out

    runs = []
    for sweep in (real, no_skip):
        monkeypatch.setattr(choosability, "_run_sweep", sweep)
        runs.append([])
        for g, f in graphs_and_sizes:
            v = is_choosable(g, f)
            runs[-1].append(((type(v), getattr(v, "witness", None),
                              getattr(v, "assignments_examined", None)), v.nodes))
    return runs


def test_skip_keeps_every_verdict_on_graphs_up_to_order_5(monkeypatch):
    calls = [(g, f) for n in range(1, 6) for g in enumerate_connected_graphs(n)
             for f in itertools.product(*[range(1, g.degree(v) + 2) for v in range(n)])]
    skip, no_skip = _verdicts_without_the_skip(calls, monkeypatch)
    assert [out for out, _ in skip] == [out for out, _ in no_skip]
    assert all(a <= b for (_, a), (_, b) in zip(skip, no_skip))
    assert sum(nodes for _, nodes in skip) < sum(nodes for _, nodes in no_skip)


def test_skip_keeps_every_two_choosability_verdict_up_to_order_7(monkeypatch):
    calls = [(g, (2,) * n) for n in range(1, 8) for g in enumerate_connected_graphs(n)]
    skip, no_skip = _verdicts_without_the_skip(calls, monkeypatch)
    assert [out for out, _ in skip] == [out for out, _ in no_skip]
    assert sum(nodes for _, nodes in skip) < sum(nodes for _, nodes in no_skip)


def test_witness_found_at_the_last_level():
    # K3 with lists of two: the first two vertices always color, the third
    # is the first uncolorable prefix
    adj, _ = _sweep_input(generate(Complete(3)))
    for chunk in (1, 2, 1000):
        assert _assert_same_search(adj, [2, 2, 2], 6, chunk, 100)
    state = SweepState(adj, [2, 2, 2], 6)
    assert state.run(1000) == SWEEP_WITNESS and state.level == 2
    assert state.witness_lists() == ((0, 1), (0, 1), (0, 1))


def _drawn_sweep_input(data, max_n):
    n = data.draw(st.integers(min_value=2, max_value=max_n))
    pairs = vertex_pairs(n)
    g = graph_from_mask(n, data.draw(st.integers(0, (1 << len(pairs)) - 1)), pairs)
    assume(g.is_connected())
    adj, _ = _sweep_input(g)
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    return adj, sizes, data.draw(st.sampled_from(_caps(sizes)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_paused_sweep_matches_reference_kernel(data):
    _assert_same_search(*_drawn_sweep_input(data, 6), 700, 2)


def _fresh_options(adj, v, classes, size, u_cap):
    """v's options computed afresh, with no memo: the prune's test of each
    class, then ``_options`` over the classes that pass."""
    reach = sum(1 << u for u in range(v + 1) if adj[u] >> (v + 1))
    must, free = 0, []
    for x, mask in enumerate(classes):
        test = _class_test(adj, v, reach, mask)
        if test == _DEAD:
            return []
        if test == _MUST:
            must |= 1 << x
        elif test == _FREE:
            free.append(x)
    u = len(classes)
    return list(_options(size, must, free, u, u_cap if reach >> v & 1 else u))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_memoized_options_equal_fresh_ones(data):
    # one state answers every query through the process-wide caches, at
    # several vertices and in a drawn order; the reference computes each
    # with no memo.  The class indices are few, so one mask recurs at
    # different vertices.
    adj, sizes, cap = _drawn_sweep_input(data, 7)
    n = len(adj)
    state = SweepState(adj, sizes, cap)
    for _ in range(data.draw(st.integers(1, 12))):
        v = data.draw(st.integers(1, n - 1))
        n_classes = data.draw(st.integers(1, 3))
        classes = [0] * n_classes
        for u in range(v):
            x = data.draw(st.integers(-1, n_classes - 1))  # -1: in no class
            if x >= 0:
                classes[x] |= 1 << u
        state.classes[v] = classes
        expected = _fresh_options(adj, v, classes, sizes[v], min(cap, sum(sizes)))
        assert list(state._level_options(v)) == expected, (adj, v, classes)


def _clear_caches():
    _kernels._plan.cache_clear()
    _kernels._option_rows.cache_clear()


def _interleaved(adj, runs, chunk, limit):
    """The states of ``runs`` on one graph, run alternately in chunks from
    empty caches until each stops or reaches ``limit`` nodes."""
    _clear_caches()
    states = [SweepState(adj, sizes, cap) for sizes, cap in runs]
    status = [SWEEP_PAUSED] * len(states)
    while any(s == SWEEP_PAUSED and state.nodes < limit
              for s, state in zip(status, states)):
        for i, state in enumerate(states):
            if status[i] == SWEEP_PAUSED and state.nodes < limit:
                status[i] = state.run(min(chunk, limit - state.nodes))
    return [_observed(state, s) for state, s in zip(states, status)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_interleaved_sweeps_of_one_graph_match_each_alone(n):
    # two states on one graph share its plan and the option rows; paused
    # and resumed alternately in small chunks, each searches as it does
    # alone, from empty caches, up to a node limit.  The pairs are the hunt
    # and the full pass of f = 2, and the full passes of two size functions.
    limit = 1500
    for g in enumerate_connected_graphs(n):
        adj, _ = _sweep_input(g)
        mixed = [min(3, row.bit_count() + 1) for row in adj]
        for runs in ([([2] * n, 4), ([2] * n, 2 * n)],
                     [([2] * n, 2 * n), (mixed, sum(mixed))]):
            alone = [_interleaved(adj, [run], limit, limit)[0] for run in runs]
            for chunk in (1, 2, 3):
                assert _interleaved(adj, runs, chunk, limit) == alone, (adj, runs, chunk)


def _two_choosable_digest(monkeypatch):
    """Every is_choosable(G, 2) over the connected graphs of order <= 7:
    verdict, witness or assignments, nodes and each sweep's counters."""
    states = []

    class Recorded(SweepState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            states.append(self)

    monkeypatch.setattr(_kernels, "SweepState", Recorded)
    digest = hashlib.sha256()
    for n in range(1, 8):
        for g in enumerate_connected_graphs(n):
            states.clear()
            v = is_choosable(g, (2,) * n)
            digest.update(repr((g.adj, type(v).__name__, getattr(v, "witness", None),
                                getattr(v, "assignments_examined", None), v.nodes,
                                [state.counters for state in states])).encode())
    return digest.hexdigest()[:16]


def test_cold_and_warm_caches_search_alike(monkeypatch):
    # the digest from empty caches, then from the caches that run filled;
    # before the full pass skipped the subtrees the hunt covered it was
    # faef1d0201feff8b, as it was before the caches were shared
    _clear_caches()
    cold = _two_choosable_digest(monkeypatch)
    assert _kernels._plan.cache_info().currsize > 0
    assert cold == _two_choosable_digest(monkeypatch) == "1881960b9a9e335a"


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_forward_checking_solver_matches_reference_solver(data):
    # same verdict and same coloring, from scratch and from a partial
    # coloring, with colors that reach past bit 63
    n = data.draw(st.integers(min_value=1, max_value=8))
    pairs = vertex_pairs(n)
    g = graph_from_mask(n, data.draw(st.integers(0, (1 << len(pairs)) - 1)), pairs)
    adj = list(g.adj)
    palette = data.draw(st.lists(st.integers(0, 130), min_size=1, max_size=5,
                                 unique=True))
    lists = [sum(1 << c for c in data.draw(st.sets(st.sampled_from(palette))))
             for _ in range(n)]
    colored = 0
    ref_colors = [0] * n
    for v in range(n):
        pick = [c for c in iter_bits(lists[v])
                if all(ref_colors[u] != c for u in iter_bits(adj[v] & colored))]
        if pick and data.draw(st.booleans()):
            colored |= 1 << v
            ref_colors[v] = data.draw(st.sampled_from(pick))
    todo = ((1 << n) - 1) & ~colored
    avail = list(lists)  # minus the colors placed on each vertex's neighbours
    for v in range(n):
        for u in iter_bits(adj[v] & colored):
            avail[v] &= ~(1 << ref_colors[u])
    new_colors = [1 << c for c in ref_colors]
    expected = _reference_solve_lists(adj, lists, todo, colored, ref_colors)
    assert _solve_lists(adj, avail, todo, new_colors) == expected
    if expected:
        assert new_colors == [1 << c for c in ref_colors]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_every_kept_coloring_is_proper_at_every_step(data):
    # a repair that kept a bad coloring could let a later extension turn an
    # uncolorable prefix into an unsound Choosable, so each coloring the
    # sweep keeps is checked against the current lists after every node
    adj, sizes, cap = _drawn_sweep_input(data, 7)
    state = SweepState(adj, sizes, cap)
    for _ in range(400):
        status = state.run(1)
        for j in range(state.level + 1):
            coloring = state.colorings[j]
            assert len(coloring) == j
            for v in range(j):
                assert coloring[v].bit_count() == 1 and coloring[v] & state.lists[v]
                earlier = adj[v] & ((1 << v) - 1)
                assert all(coloring[u] != coloring[v] for u in iter_bits(earlier))
        if status != SWEEP_PAUSED:
            break
