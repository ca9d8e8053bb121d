import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from sumchoice import (
    CapacityError, GraphFormatError, blocks, canonical_form, cartesian_product,
    empty_graph, encode_graph6, enumerate_connected_graphs, generate,
    graph_from_edges, graph_power, induced_subgraph, parse_graph6,
)
from sumchoice.families import (
    BrokenWheel, Complete, CompleteBipartite, Cycle, Path, Wheel,
)
from sumchoice.graphs import Graph, canonical_labeling, distances_from, induced_rows

from conftest import graph_from_mask, twin_rich_graph, vertex_pairs


def k(n):
    return generate(Complete(n))


def random_graph_strategy(max_n=10):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = vertex_pairs(n)
        mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
        return graph_from_mask(n, mask, pairs)
    return build()


class TestGraphBasics:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))  # asymmetric
        with pytest.raises(ValueError):
            Graph(1, (0b1,))  # self loop
        with pytest.raises(CapacityError):
            Graph(40, (0,) * 40)
        with pytest.raises(ValueError, match="bits outside"):
            Graph(2, (0b110, 0b001))  # a neighbour 2 in a graph of order 2
        with pytest.raises(ValueError, match="rows for order"):
            Graph(3, (0b10, 0b01))  # two rows for three vertices

    def test_edge_count_is_half_bit_total(self):
        g = k(4)
        assert g.edge_count == 6
        assert sum(row.bit_count() for row in g.adj) == 12

    def test_relabel_roundtrip(self):
        g = generate(Wheel(4))
        perm = [4, 2, 0, 1, 3]
        inverse = [perm.index(i) for i in range(5)]
        assert g.relabel(perm).relabel(inverse).adj == g.adj


class TestGraph6:
    def test_k2(self):
        assert encode_graph6(k(2)) == "A_"
        assert parse_graph6("A_").adj == k(2).adj

    def test_k3(self):
        assert encode_graph6(k(3)) == "Bw"
        assert parse_graph6("Bw").adj == k(3).adj

    def test_single_vertex(self):
        assert encode_graph6(empty_graph(1)) == "@"
        assert parse_graph6("@").n == 1

    def test_five_vertex_length(self):
        # header plus ceil(10 / 6) = 2 body characters
        for g in enumerate_connected_graphs(5):
            assert len(encode_graph6(g)) == 3

    def test_roundtrip_all_small(self):
        for n in range(6):
            pairs = vertex_pairs(n)
            for mask in range(1 << len(pairs)):
                g = graph_from_mask(n, mask, pairs)
                assert parse_graph6(encode_graph6(g)).adj == g.adj

    @settings(max_examples=60, deadline=None)
    @given(random_graph_strategy(10))
    def test_roundtrip_random(self, g):
        assert parse_graph6(encode_graph6(g)).adj == g.adj

    def test_malformed(self):
        with pytest.raises(GraphFormatError):
            parse_graph6("")
        with pytest.raises(GraphFormatError):
            parse_graph6("\x1f")  # header below the printable range
        with pytest.raises(GraphFormatError):
            parse_graph6("D")  # truncated body for n=5
        with pytest.raises(GraphFormatError):
            parse_graph6("A_x")  # trailing junk
        with pytest.raises(CapacityError):
            parse_graph6("~??")  # multi-byte order form
        with pytest.raises(CapacityError):
            parse_graph6(chr(63 + 40))  # order 40 > 32


class TestInducedSubgraph:
    def test_k5_triple_is_k3(self):
        assert induced_subgraph(k(5), [0, 2, 4]).adj == k(3).adj

    def test_c5_prefix_is_p3(self):
        got = induced_subgraph(generate(Cycle(5)), {0, 1, 2})
        assert got.adj == generate(Path(3)).adj

    def test_k23_drops_to_star(self):
        # keep the 3-side plus one hub: a claw
        g = generate(CompleteBipartite(2, 3))
        got = induced_subgraph(g, [0, 2, 3, 4])
        assert canonical_form(got) == canonical_form(generate(CompleteBipartite(1, 3)))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            induced_subgraph(k(3), [0, 3])

    @settings(max_examples=200, deadline=None)
    @given(random_graph_strategy(max_n=7), st.data())
    def test_matches_a_dict_relabeling(self, g, data):
        vertices = data.draw(st.lists(st.integers(0, g.n - 1), max_size=9)
                             if g.n else st.just([]))
        vs = sorted(set(vertices))
        index = {v: i for i, v in enumerate(vs)}
        rows = [0] * len(vs)
        for i, v in enumerate(vs):
            for u in range(g.n):
                if g.adj[v] >> u & 1 and u in index:
                    rows[i] |= 1 << index[u]
        got = induced_subgraph(g, vertices)
        assert got.n == len(vs) and got.adj == tuple(rows)

    @settings(max_examples=200, deadline=None)
    @given(random_graph_strategy(max_n=8), st.data())
    def test_induced_rows_match_a_brute_force_relabeling(self, g, data):
        # any distinct vertices in any order: order[i] becomes vertex i
        order = data.draw(st.lists(st.integers(0, g.n - 1), unique=True, max_size=g.n)
                          if g.n else st.just([]))
        want = tuple(sum(1 << j for j, w in enumerate(order) if g.has_edge(v, w))
                     for v in order)
        assert induced_rows(g.adj, order) == want

    def test_out_of_range_error_names_the_lowest_bad_vertex(self):
        with pytest.raises(ValueError, match="vertex -1 outside 0..2"):
            induced_subgraph(k(3), [2, -1, 5])
        with pytest.raises(ValueError, match="vertex 5 outside 0..2"):
            induced_subgraph(k(3), [2, 5, 1])


class TestBlocks:
    def test_two_triangles(self):
        g = graph_from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        found, cuts = blocks(g)
        assert len(found) == 2 and cuts == (2,)

    def test_cycle_single_block(self):
        found, cuts = blocks(generate(Cycle(5)))
        assert found == [(0, 1, 2, 3, 4)] and cuts == ()

    def test_path_blocks_are_edges(self):
        found, cuts = blocks(generate(Path(4)))
        assert sorted(found) == [(0, 1), (1, 2), (2, 3)]
        assert cuts == (1, 2)

    def test_isolated_vertices(self):
        found, cuts = blocks(empty_graph(3))
        assert sorted(found) == [(0,), (1,), (2,)] and cuts == ()

    @settings(max_examples=60, deadline=None)
    @given(random_graph_strategy(8))
    def test_edge_partition_and_biconnectivity(self, g):
        found, cuts = blocks(g)
        # every edge in exactly one block
        edge_lists = []
        for blk in found:
            sub = set(blk)
            edge_lists += [(u, v) for u, v in g.edges() if u in sub and v in sub]
        assert sorted(edge_lists) == sorted(g.edges())
        # cut vertices are exactly the vertices on two or more blocks
        count = {v: 0 for v in range(g.n)}
        for blk in found:
            for v in blk:
                count[v] += 1
        assert set(cuts) == {v for v, c in count.items() if c >= 2}
        # blocks on three or more vertices stay connected under any deletion
        for blk in found:
            if len(blk) < 3:
                continue
            sub = induced_subgraph(g, blk)
            assert sub.is_connected()
            for v in range(sub.n):
                assert sub.delete_vertex(v).is_connected()


class TestProductsAndPowers:
    def test_p2_times_p2_is_c4(self):
        got = cartesian_product(generate(Path(2)), generate(Path(2)))
        assert canonical_form(got) == canonical_form(generate(Cycle(4)))

    def test_k2_times_k3_is_prism(self):
        got = cartesian_product(k(2), k(3))
        assert (got.n, got.edge_count) == (6, 9)
        # the triangular prism: 3-regular on six vertices with two triangles
        assert got.degree_sequence() == (3,) * 6

    def test_p2_times_p3_counts(self):
        got = cartesian_product(generate(Path(2)), generate(Path(3)))
        assert (got.n, got.edge_count) == (6, 7)

    def test_product_capacity(self):
        with pytest.raises(CapacityError):
            cartesian_product(k(6), k(6))

    def test_power_identity(self):
        g = generate(Wheel(5))
        assert graph_power(g, 1).adj == g.adj

    def test_p5_squared_is_bw4(self):
        got = graph_power(generate(Path(5)), 2)
        assert (got.n, got.edge_count) == (5, 7)
        assert canonical_form(got) == canonical_form(generate(BrokenWheel(4)))

    def test_c5_squared_is_k5(self):
        assert graph_power(generate(Cycle(5)), 2).adj == k(5).adj

    @settings(max_examples=30, deadline=None)
    @given(random_graph_strategy(7), st.integers(min_value=1, max_value=4))
    def test_power_of_power_one(self, g, p):
        assert graph_power(graph_power(g, 1), p).adj == graph_power(g, p).adj

    def test_distances(self):
        g = generate(Path(4))
        assert distances_from(g, 0) == [0, 1, 2, 3]
        assert distances_from(empty_graph(2), 0) == [0, -1]


def automorphism_count(g: Graph, limit: float = math.inf) -> int:
    """|Aut(G)| by exhaustive search: vertex v's image ranges over every
    unused vertex whose adjacencies to the images of 0..v-1 match v's. Once
    the count passes ``limit`` the search stops with a count above it."""
    image = [0] * g.n

    def extend(v: int, used: int) -> int:
        if v == g.n:
            return 1
        count = 0
        for w in range(g.n):
            if not used >> w & 1 and all(
                    g.adj[v] >> u & 1 == g.adj[w] >> image[u] & 1 for u in range(v)):
                image[v] = w
                count += extend(v + 1, used | 1 << w)
                if count > limit:
                    break
        return count

    return extend(0, 0)


def generated_group_order(n: int, maps: list[list[int]], limit: float = math.inf) -> int:
    """Order of the permutation group that ``maps`` generate, or a number
    above ``limit`` once the group is seen to pass it."""
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier and len(group) <= limit:
        grown = []
        for p in frontier:
            for gamma in maps:
                q = tuple([gamma[p[v]] for v in range(n)])
                if q not in group:
                    group.add(q)
                    grown.append(q)
        frontier = grown
    return len(group)


def check_automorphism_generators(g: Graph, limit: float = math.inf) -> None:
    """The maps are automorphisms, none the identity, and generate Aut(G);
    the last is checked only when they generate at most ``limit`` maps."""
    maps = canonical_labeling(g)[2]
    for gamma in maps:
        assert sorted(gamma) == list(range(g.n))
        assert gamma != list(range(g.n))
        for u, v in g.edges():
            assert g.has_edge(gamma[u], gamma[v]), (g.adj, gamma)
    order = generated_group_order(g.n, maps, limit)
    if order <= limit:
        assert automorphism_count(g, order) == order, g.adj


def circulant(n: int, gaps: tuple[int, ...]) -> Graph:
    return graph_from_edges(n, [(v, (v + d) % n) for v in range(n) for d in gaps])


def petersen() -> Graph:
    """The Kneser graph K(5, 2): 2-subsets of range(5), adjacent when
    disjoint."""
    pairs = list(itertools.combinations(range(5), 2))
    return graph_from_edges(10, [(i, j) for i, j in itertools.combinations(range(10), 2)
                                 if not set(pairs[i]) & set(pairs[j])])


class TestAutomorphismGenerators:
    def test_every_connected_graph_up_to_order_6(self):
        for n in range(1, 7):
            for g in enumerate_connected_graphs(n):
                check_automorphism_generators(g)

    @pytest.mark.extended
    def test_every_connected_graph_of_order_7(self):
        graphs = list(enumerate_connected_graphs(7))
        assert len(graphs) == 853
        for g in graphs:
            check_automorphism_generators(g)

    @settings(max_examples=60, deadline=None)
    @given(random_graph_strategy(7))
    def test_drawn_graphs_disconnected_ones_included(self, g):
        check_automorphism_generators(g)

    @pytest.mark.parametrize("g, order", [
        (k(6), 720), (generate(Cycle(8)), 16), (generate(Wheel(6)), 12),
        (generate(CompleteBipartite(3, 4)), 144), (empty_graph(5), 120),
        (empty_graph(0), 1),
        # Vertex-transitive graphs of order 8-10, where refinement splits
        # nothing at the root: Petersen, Q3, K3 x K3 (Paley(9)), K5,5 minus
        # a perfect matching (C10(1,3)), C10(1,4) and C9(1,3).
        (petersen(), 120),
        (cartesian_product(cartesian_product(k(2), k(2)), k(2)), 48),
        (cartesian_product(k(3), k(3)), 72),
        (graph_from_edges(10, [(i, 5 + j) for i in range(5) for j in range(5) if i != j]), 240),
        (circulant(10, (1, 4)), 320), (circulant(9, (1, 3)), 18),
        # Made of twins: K3,3, the octahedron K2,2,2 and the star K1,5.
        (generate(CompleteBipartite(3, 3)), 72),
        (graph_from_edges(6, [(u, v) for u, v in itertools.combinations(range(6), 2)
                              if u // 2 != v // 2]), 48),
        (generate(CompleteBipartite(1, 5)), 120)])
    def test_known_group_orders(self, g, order):
        assert automorphism_count(g) == order
        check_automorphism_generators(g)
        key = canonical_form(g)
        rng = random.Random(order)
        for _ in range(4):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = g.relabel(perm)
            assert canonical_form(h) == key
            check_automorphism_generators(h)

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_twin_rich_graphs(self, rng):
        check_automorphism_generators(twin_rich_graph(rng), limit=2000)
