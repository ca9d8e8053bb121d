import pytest

from sumchoice import (
    FamilySpecError, canonical_form, format_family, generate, greedy_bound,
    parse_family,
)
from sumchoice.families import (
    BrokenWheel, CartesianProduct, CompleteBipartite, Cycle, GeneralizedTheta,
    Path, PathOfCycles, Power, Theta, TreeOfCycles, Wheel,
    path_of_cycles_attachments,
)


class TestGenerators:
    def test_wheel4(self):
        g = generate(Wheel(4))
        assert (g.n, g.edge_count, greedy_bound(g)) == (5, 8, 13)
        assert g.degree(0) == 4  # hub first

    def test_theta_012(self):
        g = generate(Theta((0, 1, 2)))
        assert (g.n, g.edge_count, greedy_bound(g)) == (5, 6, 11)
        assert g.has_edge(0, 1)  # the zero-length path is a direct edge

    def test_broken_wheel_drops_one_rim_edge(self):
        w = generate(Wheel(5))
        bw = generate(BrokenWheel(5))
        assert w.edge_count - bw.edge_count == 1
        assert not bw.has_edge(1, 5)

    def test_path_of_cycles_44(self):
        g = generate(PathOfCycles((4, 4)))
        assert (g.n, g.edge_count, greedy_bound(g)) == (6, 7, 13)

    def test_path_of_cycles_counts(self):
        # |V| = sum - 2(k-1), |E| = sum - (k-1), so gb = 2*sum - 3(k-1)
        for lengths in [(4,), (5, 4), (4, 4, 4), (6, 4, 5, 7)]:
            g = generate(PathOfCycles(lengths))
            k = len(lengths)
            total = sum(lengths)
            assert g.n == total - 2 * (k - 1)
            assert g.edge_count == total - (k - 1)
            assert greedy_bound(g) == 2 * total - 3 * (k - 1)

    def test_tree_of_cycles_central_six(self):
        spec = TreeOfCycles(6, ((1, 0, 4), (1, 2, 4), (1, 4, 4)))
        g = generate(spec)
        assert greedy_bound(g) == 2 * (6 + 4 + 4 + 4) - 3 * 3

    def test_tree_of_cycles_rejects_shared_edge_reuse(self):
        with pytest.raises(FamilySpecError):
            generate(TreeOfCycles(4, ((1, 0, 4), (1, 0, 4))))
        # adjacent edges of the parent share a vertex, also invalid
        with pytest.raises(FamilySpecError):
            generate(TreeOfCycles(6, ((1, 0, 4), (1, 1, 4))))

    def test_tree_of_cycles_nested(self):
        # attach a cycle to a cycle that itself was attached
        spec = TreeOfCycles(4, ((1, 1, 4), (2, 1, 5)))
        g = generate(spec)
        assert g.n == 4 + 2 + 3 and g.edge_count == 4 + 3 + 4

    def test_short_cycles_rejected(self):
        with pytest.raises(FamilySpecError):
            generate(PathOfCycles((4, 3)))
        with pytest.raises(FamilySpecError):
            generate(Wheel(2))
        with pytest.raises(FamilySpecError):
            generate(Theta((0, 0, 2)))

    def test_path_of_cycles_is_a_tree_of_cycles(self):
        lengths = (4, 5, 4)
        a = generate(PathOfCycles(lengths))
        b = generate(TreeOfCycles(4, path_of_cycles_attachments(lengths)))
        assert a.adj == b.adj


class TestTextForm:
    @pytest.mark.parametrize("text,spec", [
        ("wheel:4", Wheel(4)),
        ("theta:1,1,2", Theta((1, 1, 2))),
        ("pathcycles:4,5,4", PathOfCycles((4, 5, 4))),
        ("product:path:2,path:3", CartesianProduct(Path(2), Path(3))),
        ("power:path:5,2", Power(Path(5), 2)),
        ("bipartite:2,3", CompleteBipartite(2, 3)),
        ("gentheta:1,2,2,3", GeneralizedTheta((1, 2, 2, 3))),
        ("treecycles:6/1.0.4/1.2.4", TreeOfCycles(6, ((1, 0, 4), (1, 2, 4)))),
        ("product:(pathcycles:4,4),path:2",
         CartesianProduct(PathOfCycles((4, 4)), Path(2))),
        ("product:theta:1,1,2,cycle:3",
         CartesianProduct(Theta((1, 1, 2)), Cycle(3))),
    ])
    def test_parse(self, text, spec):
        assert parse_family(text) == spec

    def test_format_roundtrip(self):
        for text in ["wheel:4", "theta:0,1,2", "pathcycles:4,5",
                     "product:complete:2,complete:3", "power:path:5,2",
                     "treecycles:6/1.0.4/1.2.4",
                     "product:(pathcycles:4,4),path:2"]:
            spec = parse_family(text)
            assert parse_family(format_family(spec)) == spec

    def test_power_of_path_matches_brokenwheel(self):
        a = generate(parse_family("power:path:5,2"))
        b = generate(parse_family("brokenwheel:4"))
        assert canonical_form(a) == canonical_form(b)

    def test_power_with_exponent_zero_is_a_spec_error(self):
        # parsing accepts the exponent; generating rejects it as a bad spec
        spec = parse_family("power:path:5,0")
        assert spec == Power(Path(5), 0)
        with pytest.raises(FamilySpecError, match="exponent"):
            generate(spec)

    @pytest.mark.parametrize("bad", [
        "nosuch:3", "wheel:", "wheel:x", "theta:1,2", "product:path:2",
        "pathcycles:", "wheel:4,5", "product:pathcycles:4,4,path:2",
        "treecycles:6/1.0", "(wheel:4", "",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(FamilySpecError):
            parse_family(bad)
