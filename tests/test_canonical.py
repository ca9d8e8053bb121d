import hashlib
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from sumchoice import (
    CapacityError, canonical_form, canonical_form_and_permutation, cartesian_product,
    empty_graph, encode_graph6, enumerate_connected_graphs, generate, parse_graph6,
)
from sumchoice import graphs
from sumchoice.families import Complete, CompleteBipartite, Cycle, Path, Wheel
from sumchoice.graphs import Graph, graph_from_edges, iter_bits

from conftest import graph_from_mask, perm_orbit_min, twin_rich_graph, vertex_pairs


def _reference_refine(g: Graph, colors: list[int]) -> list[int]:
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


def reference_canonical(g: Graph) -> tuple[str, tuple[int, ...]]:
    """The search with no automorphism pruning: one leaf per automorphism,
    first smallest leaf in depth-first order wins. Returns (key, perm)."""
    n = g.n
    best: tuple[int, ...] | None = None
    best_perm: tuple[int, ...] = ()

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

    def search(colors: list[int]) -> None:
        colors = _reference_refine(g, colors)
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
        for v in target:
            branched = [2 * c for c in colors]
            branched[v] -= 1
            search(branched)

    if n == 0:
        return encode_graph6(g), ()
    search([0] * n)
    return encode_graph6(Graph(n, best)), best_perm


def _reference_canonical_rows(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The pruned search on integer colors, kept as it was before the
    search moved to cell masks. Unlike :func:`reference_canonical` it skips
    children that a found automorphism maps from an explored sibling, so it
    takes symmetric graphs of order 10. Returns (rows, perm)."""
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
        colors = _reference_refine(g, colors)
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


def pruned_reference_canonical(g: Graph) -> tuple[str, tuple[int, ...]]:
    rows, perm = _reference_canonical_rows(g)
    return encode_graph6(Graph(g.n, rows)), perm


def assert_matches_reference(g: Graph) -> None:
    key, perm = canonical_form_and_permutation(g)
    assert (key, perm) == reference_canonical(g)
    assert parse_graph6(key).adj == g.relabel(perm).adj


def test_isomorphic_labelings_share_keys():
    c5 = generate(Cycle(5))
    assert canonical_form(c5) == canonical_form(c5.relabel([2, 4, 1, 3, 0]))


def test_different_graphs_differ():
    assert canonical_form(generate(Cycle(5))) != canonical_form(generate(Path(5)))


def test_key_is_valid_graph6_of_a_relabeling():
    g = generate(Cycle(6)).add_edge(0, 3)
    key, perm = canonical_form_and_permutation(g)
    assert parse_graph6(key).adj == g.relabel(perm).adj


def test_capacity_limit():
    with pytest.raises(CapacityError):
        canonical_form(empty_graph(11))


def test_empty_graph_key():
    assert canonical_form(empty_graph(0)) == "?"


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_invariance_under_permutation(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    pairs = vertex_pairs(n)
    mask = data.draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    g = graph_from_mask(n, mask, pairs)
    perm = data.draw(st.permutations(range(n)))
    assert canonical_form(g) == canonical_form(g.relabel(perm))


def test_five_vertex_graphs_have_34_classes():
    # oracle: orbit minima under all 120 relabelings, no canonical code involved
    pairs = vertex_pairs(5)
    orbit_reps = set()
    keys = set()
    for mask in range(1 << len(pairs)):
        orbit_reps.add(perm_orbit_min(5, mask, pairs))
        keys.add(canonical_form(graph_from_mask(5, mask, pairs)))
    assert len(orbit_reps) == 34
    assert len(keys) == 34


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21)])
def test_connected_class_counts(n, count):
    reps = list(enumerate_connected_graphs(n))
    assert len(reps) == count
    assert len({canonical_form(g) for g in reps}) == count
    assert all(g.is_connected() for g in reps)
    # oracle: orbit dedup over connected labeled graphs
    pairs = vertex_pairs(n)
    orbit_reps = set()
    for mask in range(1 << len(pairs)):
        g = graph_from_mask(n, mask, pairs)
        if g.is_connected():
            orbit_reps.add(perm_orbit_min(n, mask, pairs))
    assert len(orbit_reps) == count


def test_enumeration_matches_known_six_vertex_count():
    assert len(list(enumerate_connected_graphs(6))) == 112


def test_enumeration_capacity():
    with pytest.raises(CapacityError):
        list(enumerate_connected_graphs(8))


@pytest.mark.parametrize("n", range(6))
def test_every_labeled_graph_matches_reference(n):
    pairs = vertex_pairs(n)
    for mask in range(1 << len(pairs)):
        assert_matches_reference(graph_from_mask(n, mask, pairs))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_drawn_graphs_match_reference(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    pairs = vertex_pairs(n)
    mask = data.draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    assert_matches_reference(graph_from_mask(n, mask, pairs))


@pytest.mark.parametrize("spec", [
    Cycle(8), CompleteBipartite(2, 4), CompleteBipartite(3, 3),
    CompleteBipartite(1, 6), Wheel(5),
], ids=str)
def test_symmetric_relabelings_match_reference(spec):
    g = generate(spec)
    rng = random.Random(g.n)
    for _ in range(4):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert_matches_reference(g.relabel(perm))


def test_representatives_are_reference_canonical_forms():
    # A list with one representative per class, each its own canonical form,
    # in key order, is exactly the list the unpruned search builds.
    for n in range(1, 8):
        reps = list(enumerate_connected_graphs(n))
        keys = [reference_canonical(g)[0] for g in reps]
        assert [parse_graph6(k).adj for k in keys] == [g.adj for g in reps]
        assert keys == sorted(set(keys))
    assert len(reps) == 853


def test_symmetry_does_not_cost():
    # Without pruning these take about 70 s: one leaf per automorphism
    # (9! for K1,9, 2 * 5!^2 for K5,5, 8! for K8).
    rng = random.Random(1)
    elapsed = 0.0
    for spec in (CompleteBipartite(1, 9), CompleteBipartite(5, 5), Complete(8)):
        g = generate(spec)
        perm = list(range(g.n))
        rng.shuffle(perm)
        start = time.perf_counter()
        keys = canonical_form(g), canonical_form(g.relabel(perm))
        elapsed += time.perf_counter() - start
        assert keys[0] == keys[1]
    assert elapsed < 1.0


@st.composite
def graphs_of_order_8_to_10(draw) -> Graph:
    """Dense and sparse random graphs, circulants, which are symmetric
    enough that the search finds automorphisms and prunes, and twin-rich
    graphs, whose cells of twins the search individualizes in one step."""
    n = draw(st.integers(min_value=8, max_value=10))
    pairs = vertex_pairs(n)
    kind = draw(st.sampled_from(["random", "sparse", "circulant", "twins"]))
    if kind == "twins":
        return twin_rich_graph(draw(st.randoms(use_true_random=False)))
    if kind == "random":
        mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    elif kind == "sparse":
        picks = draw(st.lists(st.integers(min_value=0, max_value=len(pairs) - 1),
                              max_size=n))
        mask = sum(1 << i for i in set(picks))
    else:
        gaps = draw(st.sets(st.integers(min_value=1, max_value=n // 2)))
        mask = sum(1 << i for i, (u, v) in enumerate(pairs)
                   if min(v - u, n - v + u) in gaps)
    return graph_from_mask(n, mask, pairs)


@settings(max_examples=100, deadline=None)
@given(graphs_of_order_8_to_10(), st.randoms(use_true_random=False))
@example(empty_graph(8), random.Random(0))
@example(empty_graph(10), random.Random(0))
@example(generate(Complete(9)), random.Random(0))
@example(generate(Complete(10)), random.Random(0))
def test_drawn_graphs_of_order_8_to_10_match_pruned_reference(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    for h in (g, g.relabel(perm)):
        key, p = canonical_form_and_permutation(h)
        assert (key, p) == pruned_reference_canonical(h)
        assert parse_graph6(key).adj == h.relabel(p).adj


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph_from_edges(10, outer + spokes + inner)


# Memo files on disk are keyed by these strings: a change to the labeling
# that alters any of them orphans the memo records written before it.
PINNED_KEYS = [
    ("P10", lambda: generate(Path(10)), "IQGOOGA?W"),
    ("C10", lambda: generate(Cycle(10)), "IqGOOGA?W"),
    ("Petersen", _petersen, "IsP@PGXD_"),
    ("K2,8", lambda: generate(CompleteBipartite(2, 8)), "I????B~~o"),
]


@pytest.mark.parametrize("name,build,key", PINNED_KEYS, ids=[p[0] for p in PINNED_KEYS])
def test_keys_of_order_10_are_pinned(name, build, key):
    g = build()
    assert canonical_form(g) == key
    perm = list(range(g.n))
    random.Random(name).shuffle(perm)
    assert canonical_form(g.relabel(perm)) == key


def test_keys_of_connected_graphs_up_to_order_7_are_pinned():
    keys = [canonical_form(g) for n in range(1, 8) for g in enumerate_connected_graphs(n)]
    assert len(keys) == 996
    digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()[:16]
    assert digest == "4f1294e607f26a19"


def _refinements(monkeypatch, named: list[tuple[str, Graph]]) -> dict[str, int]:
    """``_refine`` calls that one labeling of each graph makes."""
    calls = 0
    refine = graphs._refine

    def counting_refine(*args):
        nonlocal calls
        calls += 1
        return refine(*args)

    monkeypatch.setattr(graphs, "_refine", counting_refine)
    counts = {}
    for name, g in named:
        calls = 0
        canonical_form(g)
        counts[name] = calls
    return counts


def test_an_automorphism_returns_the_search_to_the_common_ancestor(monkeypatch):
    # Refinements per labeling, on vertex-transitive graphs without twins. A
    # search that walks the rest of a subtree after one of its leaves yields
    # an automorphism makes 22, 14 and 17. Keys cannot show this.
    k2, k3 = generate(Complete(2)), generate(Complete(3))
    counts = _refinements(monkeypatch, [
        ("Petersen", _petersen()),
        ("Q3", cartesian_product(cartesian_product(k2, k2), k2)),
        ("K3xK3", cartesian_product(k3, k3))])
    assert counts == {"Petersen": 15, "Q3": 10, "K3xK3": 12}


def test_a_cell_of_twins_is_individualized_in_one_step(monkeypatch):
    # Refinements per labeling. A search that branches on each twin in turn
    # finds every transposition of two twins by its own descent, and makes
    # 45, 55, 53 and 10.
    counts = _refinements(monkeypatch, [
        ("K1,9", generate(CompleteBipartite(1, 9))),
        ("K10", generate(Complete(10))),
        ("K5,5", generate(CompleteBipartite(5, 5))),
        ("K2,3", generate(CompleteBipartite(2, 3)))])
    assert counts == {"K1,9": 2, "K10": 2, "K5,5": 10, "K2,3": 3}


def test_twins_whose_first_child_misses_the_best_leaf_add_no_map():
    # K3,4 plus a perfect matching on its side of 4. Vertices 0 and 3 are
    # matched twins, and with this labeling the search reaches their cell
    # below a child of the root whose leaves are all larger than the best
    # one. No leaf there ties the best, so the search finds no map there,
    # and (0 3) is not among the maps.
    g = Graph(7, (90, 45, 114, 83, 45, 86, 45))
    assert graphs.canonical_labeling(g)[2] == [
        [0, 1, 5, 3, 4, 2, 6], [0, 1, 2, 3, 6, 5, 4],
        [0, 4, 2, 3, 1, 5, 6], [2, 1, 0, 5, 4, 3, 6]]


def _labeling_sample() -> list[Graph]:
    """Every connected graph of order <= 7 under two random relabelings, and
    1,500 twin-rich graphs of order 8-10."""
    rng = random.Random(29)
    sample = []
    for n in range(1, 8):
        for g in enumerate_connected_graphs(n):
            for _ in range(2):
                perm = list(range(n))
                rng.shuffle(perm)
                sample.append(g.relabel(perm))
    return sample + [twin_rich_graph(rng) for _ in range(1500)]


def test_no_map_is_returned_twice():
    # A map that the search already holds is never found again: the orbit
    # test skips the child it would come from. The twin-rich graphs hold a
    # few where an automorphism known before a cell of twins already swaps
    # two of them.
    for g in _labeling_sample():
        maps = graphs.canonical_labeling(g)[2]
        assert len({tuple(gamma) for gamma in maps}) == len(maps), (g.adj, maps)


def test_automorphism_lists_are_pinned():
    # tau skips a size function by the maps a labeling returns, so these
    # lists decide which size functions it checks. The search without the
    # twin step gives the same lists. Without the return to the common
    # ancestor, or with a transposition of twins recorded where a known map
    # already swaps them, the digest changes.
    lists = [graphs.canonical_labeling(g)[2] for g in _labeling_sample()]
    assert sum(map(len, lists)) == 10927
    digest = hashlib.sha256(repr(lists).encode()).hexdigest()[:16]
    assert digest == "ccab81137d8d782c"
