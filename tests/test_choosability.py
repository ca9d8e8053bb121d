import hashlib
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from sumchoice import (
    Budget, Choosable, NotChoosable, UnknownVerdict, canonical_assignments,
    empty_graph, find_forcing_assignment, generate, graph_from_edges,
    is_choosable, is_list_colorable, reduce_size_function,
)
from sumchoice import choosability
from sumchoice.choosability import MAX_LIST_SIZE, all_proper_colorings
from sumchoice.families import Complete, CompleteBipartite, Cycle, Path, Wheel
from sumchoice.graphs import canonical_form, parse_graph6

from conftest import graph_from_mask, vertex_pairs


def k(n):
    return generate(Complete(n))


class TestListColorable:
    def test_triangle_two_colors(self):
        assert is_list_colorable(k(3), [(1, 2)] * 3) is None

    def test_p2_forced(self):
        assert is_list_colorable(generate(Path(2)), [(1,), (1, 2)]) == (1, 2)

    def test_even_cycle_two_colors(self):
        c4 = generate(Cycle(4))
        got = is_list_colorable(c4, [(1, 2)] * 4)
        assert got == (1, 2, 1, 2)

    def test_empty_list_blocks(self):
        assert is_list_colorable(generate(Path(2)), [(), (1,)]) is None

    def test_deterministic(self):
        g = generate(Wheel(4))
        lists = [(3, 7, 9, 11, 2), (1, 2), (2, 3), (1, 3), (5, 2)]
        assert is_list_colorable(g, lists) == is_list_colorable(g, lists)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_agrees_with_brute_force(self, data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        pairs = vertex_pairs(n)
        mask = data.draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
        g = graph_from_mask(n, mask, pairs)
        lists = [tuple(sorted(data.draw(st.sets(
            st.integers(min_value=0, max_value=5), min_size=0, max_size=3))))
            for _ in range(n)]
        got = is_list_colorable(g, lists)
        brute = next(all_proper_colorings(g, lists), None)
        assert (got is None) == (brute is None)
        if got is not None:
            assert all(got[v] in lists[v] for v in range(n))
            assert all(got[u] != got[v] for u, v in g.edges())


class TestReduce:
    def test_p2_unit_chain(self):
        red = reduce_size_function(generate(Path(2)), (1, 2))
        assert red.graph.n == 0 and not red.dead
        assert [s.kind for s in red.steps] == ["unit", "unit"]

    def test_p2_dies(self):
        red = reduce_size_function(generate(Path(2)), (1, 1))
        assert red.dead

    def test_pendant_then_surplus(self):
        # triangle with size 3 everywhere plus a size-2 pendant vertex
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
        red = reduce_size_function(g, (3, 3, 3, 2))
        assert red.graph.n == 0 and not red.dead
        kinds = [s.kind for s in red.steps]
        assert "surplus" in kinds
        verdict = is_choosable(g, (3, 3, 3, 2))
        assert isinstance(verdict, Choosable)

    def test_irreducible_fixed_point(self):
        red = reduce_size_function(generate(Cycle(4)), (2, 2, 2, 2))
        assert red.graph.n == 4 and red.sizes == (2, 2, 2, 2)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_lift_matches_a_rescan_at_every_step(self, data):
        n = data.draw(st.integers(min_value=1, max_value=7))
        pairs = vertex_pairs(n)
        g = graph_from_mask(n, data.draw(st.integers(0, (1 << len(pairs)) - 1)), pairs)
        f = [data.draw(st.integers(1, g.degree(v) + 2)) for v in range(n)]
        red = reduce_size_function(g, f)
        start = {v: tuple(sorted(data.draw(st.sets(
            st.integers(0, 9), min_size=s, max_size=s))))
            for v, s in zip(red.vertex_map, red.sizes)}
        reference = dict(start)
        for step in reversed(red.steps):  # the fresh base rescanned each step
            base = 1 + max((c for row in reference.values() for c in row),
                           default=-1)
            if step.kind == "unit":
                reference[step.vertex] = (base,)
                for u in step.neighbors:
                    reference[u] = tuple(sorted(reference[u] + (base,)))
            else:
                reference[step.vertex] = tuple(range(base, base + step.size))
        lifted = dict(start)
        choosability._lift_witness(red.steps, lifted)
        assert lifted == reference


def _reference_reduce(g, f):
    """The plain reduction the worklist one must match: after every step,
    rescan the live vertices from the lowest label for the first reducible
    one, counting live neighbours afresh each time."""
    alive = list(range(g.n))
    sizes = {v: int(f[v]) for v in alive}
    steps = []

    def alive_neighbors(v):
        return [u for u in range(g.n) if g.adj[v] >> u & 1 and u in sizes]

    dead = any(s <= 0 for s in sizes.values())
    while not dead:
        pick = None
        for v in alive:
            if v in sizes and (sizes[v] == 1 or sizes[v] > len(alive_neighbors(v))):
                pick = v
                break
        if pick is None:
            break
        nbrs = alive_neighbors(pick)
        if sizes[pick] == 1:
            steps.append(choosability.ReductionStep("unit", pick, tuple(nbrs)))
            del sizes[pick]
            for u in nbrs:
                sizes[u] -= 1
                if sizes[u] <= 0:
                    dead = True
        else:
            steps.append(choosability.ReductionStep("surplus", pick, size=sizes[pick]))
            del sizes[pick]
    remaining = sorted(sizes)
    rows = tuple(sum(1 << i for i, u in enumerate(remaining) if g.adj[v] >> u & 1)
                 for v in remaining)
    return steps, tuple(sizes[v] for v in remaining), tuple(remaining), dead, rows


def _assert_reduce_matches_rescan(g, f):
    red = reduce_size_function(g, f)
    got = (red.steps, red.sizes, red.vertex_map, red.dead, red.graph.adj)
    assert got == _reference_reduce(g, f), (g.adj, f)
    assert red.graph.n == len(red.vertex_map)


class TestReduceMatchesRescan:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_drawn_graphs_and_sizes(self, data):
        # sizes from 0 to deg + 2, so dead instances come up too
        n = data.draw(st.integers(min_value=0, max_value=7))
        pairs = vertex_pairs(n)
        g = graph_from_mask(n, data.draw(st.integers(0, (1 << len(pairs)) - 1)), pairs)
        _assert_reduce_matches_rescan(g, [data.draw(st.integers(0, g.degree(v) + 2))
                                          for v in range(n)])

    def test_every_small_case_with_sizes_one_to_three(self):
        # exhaustive on orders <= 4 with f in 1..3: many chains of unit steps
        for n in range(1, 5):
            pairs = vertex_pairs(n)
            for mask in range(1 << len(pairs)):
                g = graph_from_mask(n, mask, pairs)
                for f in itertools.product((1, 2, 3), repeat=n):
                    _assert_reduce_matches_rescan(g, f)

    def test_nothing_stripped_returns_the_graph_itself(self):
        g = generate(Cycle(4))
        assert reduce_size_function(g, (2, 2, 2, 2)).graph is g
        assert reduce_size_function(g, (0, 2, 2, 2)).graph is g
        assert reduce_size_function(g, (1, 2, 2, 2)).graph is not g


class TestIsChoosable:
    def test_triangle_pairs_not_choosable(self):
        verdict = is_choosable(k(3), (2, 2, 2))
        assert isinstance(verdict, NotChoosable)
        assert len(set(verdict.witness)) == 1  # identical lists suffice

    def test_c4_pairs_choosable(self):
        verdict = is_choosable(generate(Cycle(4)), (2, 2, 2, 2))
        assert isinstance(verdict, Choosable)
        assert verdict.assignments_examined > 0

    def test_c4_pairs_naive_crosscheck(self):
        g = generate(Cycle(4))
        total = 4 * 2
        for lists in itertools.product(
                *[itertools.combinations(range(total), 2)] * 4):
            assert next(all_proper_colorings(g, lists), None) is not None

    def test_k23_has_size_ten_choice_function(self):
        g = generate(CompleteBipartite(2, 3))
        assert isinstance(is_choosable(g, (2, 2, 2, 2, 2)), Choosable)
        assert isinstance(is_choosable(g, (2, 2, 2, 2, 1)), NotChoosable)

    def test_zero_size_immediate(self):
        verdict = is_choosable(generate(Path(2)), (0, 3))
        assert isinstance(verdict, NotChoosable)
        assert verdict.witness[0] == ()

    def test_negative_size_is_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            is_choosable(generate(Path(2)), (-1, 2))

    def test_size_above_the_bound_is_rejected(self):
        with pytest.raises(ValueError, match="above"):
            is_choosable(generate(Path(2)), (MAX_LIST_SIZE + 1, 1))
        verdict = is_choosable(generate(Path(2)), (MAX_LIST_SIZE, 1))
        assert isinstance(verdict, Choosable)

    @pytest.mark.parametrize("f", [(2.7, 2, 2, 2), (1.9, 2, 2, 2), ("2", 2, 2, 2),
                                   (2, 2, 2, 2.0)])
    def test_a_size_that_is_not_an_integer_is_rejected(self, f):
        # truncated to int, 2.7 gave Choosable, 1.9 a witness with a 1-list,
        # and "2" passed as a 2
        g = generate(Cycle(4))
        with pytest.raises(ValueError, match="integers"):
            is_choosable(g, f)
        with pytest.raises(ValueError, match="integers"):
            reduce_size_function(g, f)
        with pytest.raises(ValueError, match="integers"):
            find_forcing_assignment(g, f, 0, [9])

    def test_integer_types_are_accepted(self):
        class Two:
            def __index__(self):
                return 2

        g = generate(Cycle(4))
        assert is_choosable(g, (Two(), 2, 2, True + 1)) == is_choosable(g, (2, 2, 2, 2))
        assert reduce_size_function(g, (Two(), 1, 2, 2)).sizes == \
            reduce_size_function(g, (2, 1, 2, 2)).sizes

    def test_witnesses_are_sound(self):
        rng = random.Random(99)
        found = 0
        while found < 30:
            n = rng.randint(2, 5)
            pairs = vertex_pairs(n)
            g = graph_from_mask(n, rng.getrandbits(len(pairs)), pairs)
            f = tuple(rng.randint(1, max(1, g.degree(v))) for v in range(n))
            verdict = is_choosable(g, f)
            if not isinstance(verdict, NotChoosable):
                continue
            w = verdict.witness
            assert tuple(len(row) for row in w) == f
            assert is_list_colorable(g, w) is None
            # injective recoloring keeps the witness uncolorable
            renamed = [tuple(sorted(3 * c + 1 for c in row)) for row in w]
            assert is_list_colorable(g, renamed) is None
            found += 1

    def test_reduction_equivalence_seeded(self):
        rng = random.Random(4242)
        for _ in range(60):
            n = rng.randint(2, 5)
            pairs = vertex_pairs(n)
            g = graph_from_mask(n, rng.getrandbits(len(pairs)), pairs)
            f = tuple(rng.randint(1, min(g.degree(v) + 2, 4)) for v in range(n))
            plain = is_choosable(g, f)
            raw = is_choosable(g, f, reduce_first=False)
            assert isinstance(plain, Choosable) == isinstance(raw, Choosable)

    def test_isomorphism_invariance(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(2, 5)
            pairs = vertex_pairs(n)
            g = graph_from_mask(n, rng.getrandbits(len(pairs)), pairs)
            f = tuple(rng.randint(1, 3) for _ in range(n))
            perm = list(range(n))
            rng.shuffle(perm)
            h = g.relabel(perm)
            fh = [0] * n
            for v in range(n):
                fh[perm[v]] = f[v]
            a = is_choosable(g, f)
            b = is_choosable(h, tuple(fh))
            assert isinstance(a, Choosable) == isinstance(b, Choosable)

    def test_monotone_in_f(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(2, 5)
            pairs = vertex_pairs(n)
            g = graph_from_mask(n, rng.getrandbits(len(pairs)), pairs)
            f = tuple(rng.randint(1, 3) for _ in range(n))
            bigger = tuple(x + rng.randint(0, 1) for x in f)
            if isinstance(is_choosable(g, f), Choosable):
                assert isinstance(is_choosable(g, bigger), Choosable)

    def test_budget_returns_unknown(self):
        g = generate(CompleteBipartite(3, 3))
        verdict = is_choosable(g, (3, 3, 3, 3, 3, 3),
                               Budget(node_limit=200))
        assert isinstance(verdict, UnknownVerdict)
        assert verdict.progress

    def test_deadline_is_checked_within_a_sweep(self):
        # the deadline falls inside the sweep of K3,4 with f = 3, which runs
        # for over 20 s and 20 million nodes; one chunk of kernel work must
        # not carry the run far past it
        g = generate(CompleteBipartite(3, 4))
        t0 = time.monotonic()
        verdict = is_choosable(g, (3,) * 7, Budget.of(seconds=0.2))
        elapsed = time.monotonic() - t0
        assert isinstance(verdict, UnknownVerdict)
        assert elapsed < 0.2 + 0.5

    def test_empty_graph(self):
        assert isinstance(is_choosable(empty_graph(0), ()), Choosable)


class TestAssertWitness:
    def test_accepts_a_witness_and_rejects_wrong_sizes_and_colorable_lists(self):
        g = k(3)
        choosability._assert_witness(g, (2, 2, 2), ((0, 1),) * 3)
        with pytest.raises(AssertionError, match=r"sizes wrong at \[1\]"):
            choosability._assert_witness(g, (2, 2, 2), ((0, 1), (0,), (0, 1)))
        # a repeated color is one color: the list is too short
        with pytest.raises(AssertionError, match=r"sizes wrong at \[2\]"):
            choosability._assert_witness(g, (2, 2, 2), ((0, 1), (0, 1), (1, 1)))
        with pytest.raises(AssertionError, match="colorable"):
            choosability._assert_witness(g, (2, 2, 2), ((0, 1), (0, 1), (0, 2)))

    def test_long_lists_agree_with_is_list_colorable(self):
        # a list above 64 colors takes the bytearray path: K4 with pairs on
        # a triangle and a long list at the fourth vertex, colorable iff
        # the triangle's pairs are not all the same
        rng = random.Random(7)
        g = k(4)
        seen = set()
        for _ in range(20):
            base = rng.choice([0, 1000, 70000])
            size = rng.choice([65, 200])
            a, b, c = rng.sample(range(base, base + size), 3)
            rows = ((a, b), (a, b), rng.choice([(a, b), (a, c)]),
                    tuple(range(base, base + size)))
            f = tuple(len(row) for row in rows)
            colorable = is_list_colorable(g, rows) is not None
            seen.add(colorable)
            if colorable:
                with pytest.raises(AssertionError, match="colorable"):
                    choosability._assert_witness(g, f, rows)
            else:
                choosability._assert_witness(g, f, rows)
            with pytest.raises(AssertionError, match=r"sizes wrong at \[3\]"):
                choosability._assert_witness(g, f[:3] + (size + 1,), rows)
        assert seen == {True, False}

    def test_witness_of_lists_at_the_size_bound(self):
        # 30 lists of MAX_LIST_SIZE fresh colors each, lifted from a dead
        # reduction of K32: the check stays linear in the colors
        sizes = (MAX_LIST_SIZE,) * 30 + (1, 1)
        verdict = is_choosable(k(32), sizes)
        assert isinstance(verdict, NotChoosable)
        assert tuple(len(row) for row in verdict.witness) == sizes


class TestVertexDeletionChecks:
    """The sweep skips assignments with a private color; the G - v checks
    must cover them."""

    @staticmethod
    def spy_sweeps(monkeypatch, blind_order=None):
        """Record (component order, nodes) of every sweep; sweeps over
        ``blind_order`` vertices report no witness."""
        seen = []
        real = choosability._run_sweep

        def sweep(adj, sizes, *args, **kwargs):
            out = real(adj, sizes, *args, **kwargs)
            seen.append((len(sizes), out.nodes))
            if len(sizes) == blind_order:
                out.witness = None
            return out

        monkeypatch.setattr(choosability, "_run_sweep", sweep)
        return seen

    def test_witness_found_through_g_minus_v(self, monkeypatch):
        # K2,5 - v is K2,4, K2,3 plus one vertex joined to both degree-3
        # vertices, which is not 2-choosable.  With every sweep over all
        # seven vertices blind, only a G - v check can find the witness.
        g = generate(CompleteBipartite(2, 5))
        self.spy_sweeps(monkeypatch, blind_order=7)
        verdict = is_choosable(g, (2,) * 7)
        assert isinstance(verdict, NotChoosable)
        assert tuple(len(row) for row in verdict.witness) == (2,) * 7
        assert is_list_colorable(g, verdict.witness) is None

    def test_budget_is_checked_between_g_minus_v_calls(self, monkeypatch):
        g = generate(CompleteBipartite(2, 3))
        seen = self.spy_sweeps(monkeypatch)
        assert isinstance(is_choosable(g, (2,) * 5), Choosable)
        own = sum(nodes for order, nodes in seen if order == 5)
        assert own < sum(nodes for _, nodes in seen)
        # the limit lets the sweeps of K2,3 itself finish, not the G - v calls
        budget = Budget(node_limit=own)
        verdict = is_choosable(g, (2,) * 5, budget)
        assert isinstance(verdict, UnknownVerdict)
        assert verdict.nodes == budget.nodes > own

    def test_budget_runs_out_inside_a_g_minus_v_sweep(self, monkeypatch):
        # K2,3's own two sweeps finish within the limit; the first G - v
        # check, a 4-cycle, runs out in its cap-4 sweep
        g = parse_graph6("DFw")
        assert canonical_form(generate(CompleteBipartite(2, 3))) == "DFw"
        started = []
        real = choosability._run_sweep

        def sweep(adj, sizes, *args, **kwargs):
            started.append(len(sizes))
            return real(adj, sizes, *args, **kwargs)

        monkeypatch.setattr(choosability, "_run_sweep", sweep)
        monkeypatch.setattr(choosability, "CHUNK_NODES", 1)
        budget = Budget(node_limit=368)
        verdict = is_choosable(g, (2,) * 5, budget)
        assert verdict == UnknownVerdict(
            nodes=369, progress="node limit 368 exceeded in choosability sweep (cap 4)")
        assert verdict.nodes == budget.nodes
        assert started == [5, 5, 4]


class TestEveryWitnessIsChecked:
    """Each NotChoosable that is_choosable returns has passed _assert_witness
    once, whichever path found it."""

    @pytest.mark.parametrize("g, f, reduce_first, blind_order", [
        pytest.param(generate(Path(3)), (2, 0, 2), True, None, id="size 0"),
        pytest.param(generate(Path(3)), (2, 0, 2), False, None, id="size 0 unreduced"),
        pytest.param(k(3), (1, 1, 2), True, None, id="dead reduction"),
        pytest.param(k(3), (2, 2, 2), True, None, id="sweep"),
        # every sweep of K2,5 itself is blind, as in test_witness_found_through_g_minus_v
        pytest.param(generate(CompleteBipartite(2, 5)), (2,) * 7, True, 7, id="G - v")])
    def test_each_path_checks_its_witness_once(self, g, f, reduce_first, blind_order,
                                               monkeypatch):
        TestVertexDeletionChecks.spy_sweeps(monkeypatch, blind_order)
        checked = []
        real = choosability._assert_witness

        def spy(h, sizes, witness):
            checked.append((h, witness))
            real(h, sizes, witness)

        monkeypatch.setattr(choosability, "_assert_witness", spy)
        verdict = is_choosable(g, f, reduce_first=reduce_first)
        assert isinstance(verdict, NotChoosable)
        # a G - v witness is lifted to G before its one check, like the others
        assert [w for h, w in checked if h == g] == [verdict.witness]

    def test_every_witness_path_searches_as_pinned(self, monkeypatch):
        # verdicts, witnesses, counts and budget nodes of drawn calls on both
        # reduce_first paths, and of the G - v witness of K2,5 with f = 2; the
        # pinned value is that of the search when each G - v check was an
        # is_choosable call of its own
        digest = hashlib.sha256()

        def record(g, f, reduce_first):
            budget = Budget(node_limit=20000)
            v = is_choosable(g, f, budget, reduce_first=reduce_first)
            digest.update(repr((g.adj, f, reduce_first, type(v).__name__,
                                getattr(v, "witness", None),
                                getattr(v, "assignments_examined", None), v.nodes,
                                getattr(v, "progress", None), budget.nodes)).encode())

        rng = random.Random(3241)
        for _ in range(400):
            n = rng.randint(0, 6)
            pairs = vertex_pairs(n)
            g = graph_from_mask(n, rng.getrandbits(len(pairs)), pairs)
            f = tuple(rng.randint(0, 4) for _ in range(n))
            for reduce_first in (True, False):
                record(g, f, reduce_first)
        TestVertexDeletionChecks.spy_sweeps(monkeypatch, blind_order=7)
        record(generate(CompleteBipartite(2, 5)), (2,) * 7, True)
        assert digest.hexdigest()[:16] == "c3263833187265a3"


class TestCanonicalAssignments:
    def test_single_vertex(self):
        assert list(canonical_assignments(empty_graph(1), (1,))) == [((0,),)]

    def test_p2_unit_pair(self):
        got = list(canonical_assignments(generate(Path(2)), (1, 1)))
        assert got == [((0,), (0,)), ((0,), (1,))]

    def test_p2_pairs_count_matches_naive_classes(self):
        g = generate(Path(2))
        stream = list(canonical_assignments(g, (2, 2)))
        # oracle: canonicalize every assignment over four colors by renaming
        reps = set()
        for a in itertools.combinations(range(4), 2):
            for b in itertools.combinations(range(4), 2):
                ranks = {}
                for c in a + b:
                    ranks.setdefault(c, len(ranks))
                reps.add((tuple(sorted(ranks[c] for c in a)),
                          tuple(sorted(ranks[c] for c in b))))
        assert len(stream) == len(reps)
        assert set(stream) == reps

    def test_every_assignment_reachable_by_recoloring(self):
        g = k(3)
        f = (1, 2, 1)
        stream = set(canonical_assignments(g, f))
        for lists in itertools.product(
                itertools.combinations(range(4), 1),
                itertools.combinations(range(4), 2),
                itertools.combinations(range(4), 1)):
            ranks = {}
            for row in lists:
                for c in sorted(row):
                    ranks.setdefault(c, len(ranks))
            rep = tuple(tuple(sorted(ranks[c] for c in row)) for row in lists)
            assert rep in stream

    def test_any_order_still_covers_every_class(self):
        g = generate(Path(2))
        default = list(canonical_assignments(g, (1, 2)))
        flipped = list(canonical_assignments(g, (1, 2), order=(1, 0)))
        assert default != flipped
        # both streams cover every renaming class of ({a}, {b, c}) assignments
        for stream in (default, flipped):
            shapes = {(len(set(a) & set(b))) for (a, b) in stream}
            assert shapes == {0, 1}


class TestForcing:
    def test_p2_pins_second_vertex(self):
        got = find_forcing_assignment(generate(Path(2)), (1, 2), 1, [9])
        assert got is not None
        a = got[0][0]
        assert got == ((a,), tuple(sorted((a, 9))))

    def test_k1_singleton(self):
        assert find_forcing_assignment(empty_graph(1), (1,), 0, [5]) == ((5,),)

    def test_k1_pair_cannot_force(self):
        assert find_forcing_assignment(empty_graph(1), (2,), 0, [5]) is None

    def test_budget_counts_every_node(self):
        # both searches stop well inside one 4096-node block
        budget = Budget()
        assert find_forcing_assignment(generate(Cycle(4)), (1, 2, 2, 3), 0, [3], budget)
        assert budget.nodes == 4  # one option per vertex: the first one forces
        assert find_forcing_assignment(empty_graph(1), (2,), 0, [5], budget) is None
        assert budget.nodes == 4 + 1  # only {0, 5}: a list without 5 is skipped

    def test_c4_greedy_function_forces_everywhere(self):
        g = generate(Cycle(4))
        f = (1, 2, 2, 3)
        for v in range(4):
            got = find_forcing_assignment(g, f, v, [6])
            assert got is not None
            colorings = list(all_proper_colorings(g, got))
            assert colorings
            assert all(c[v] == 6 for c in colorings)
