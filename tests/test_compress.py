import random

import pytest
from hypothesis import example, given, settings

import oracles
import strategies
from geneasm import compress, iso, pointers, reduction, sampling
from geneasm.compress import LabelledGraph


def cps_of(text):
    return compress.cps(reduction.ReductionGraph(pointers.parse_pointer_string(text)))


class TestCps:
    def test_realistic_example_collapses_to_two_hexagons(self):
        g = cps_of("72673456-3-245")
        assert len(g.labels) == 12
        assert iso.canonical_labelled(g) == "c[2,3,4,5,6,7]|c[2,4,5,7,3,6]"

    def test_shortest_string_collapses_to_isolated_vertices(self):
        g = cps_of("22")
        assert len(g.labels) == 2
        assert g.edges == frozenset()
        assert sorted(g.labels.values()) == [2, 2]

    def test_empty_graph(self):
        g = compress.cps(reduction.ReductionGraph(()))
        assert g.labels == {} and g.edges == frozenset()

    def test_vertex_count_and_degree_bound(self):
        rng = random.Random(61)
        for _ in range(100):
            u = sampling.random_legal_string(rng, gaps=False)
            g = cps_of(pointers.format_pointer_string(u))
            assert len(g.labels) == len(u)
            assert oracles.max_degree(g) <= 2

    def test_component_count_is_preserved(self):
        rng = random.Random(62)
        for _ in range(100):
            u = sampling.random_legal_string(rng, gaps=False)
            rg = reduction.ReductionGraph(u)
            assert compress.cps(rg).component_count() == rg.component_count()

    def test_rejects_mismatched_desire_labels(self):
        g = oracles.ColouredGraph(
            _labels={"a": 2, "b": 3},
            reality_edges=(),
            desire_edges=(frozenset({"a", "b"}),),
        )
        with pytest.raises(ValueError):
            oracles.cps_edge_set(g)

    def test_general_carrier_with_shared_vertices(self):
        # vertices may sit on several desire edges outside reduction graphs
        g = oracles.ColouredGraph(
            _labels={"a": 2, "b": 2, "c": 2, "d": 3},
            reality_edges=(frozenset({"b", "d"}),),
            desire_edges=(frozenset({"a", "b"}), frozenset({"b", "c"})),
        )
        labels, edges = oracles.cps_edge_set(g)
        assert set(labels) == {("a", "b"), ("b", "c")}
        assert edges == frozenset()

    def test_rejects_graphs_other_than_reduction_graphs(self):
        rg = reduction.ReductionGraph((2, 2))
        carrier = oracles.ColouredGraph(
            _labels={v: rg.label(v) for v in rg.vertices},
            reality_edges=rg.reality_edges,
            desire_edges=rg.desire_edges,
        )
        with pytest.raises(TypeError):
            compress.cps(carrier)
        with pytest.raises(TypeError):
            compress.cps((2, 2))

    def test_matches_the_edge_set_construction(self):
        rng = random.Random(64)
        for _ in range(150):
            graph = reduction.ReductionGraph(sampling.random_legal_string(rng, 7, gaps=False))
            out = compress.cps(graph)
            labels, edges = oracles.cps_edge_set(graph)
            assert out.labels == labels and list(out.labels) == list(labels)
            assert out.edges == edges
            assert out == LabelledGraph(labels, edges)
        # a carrier with a vertex on two desire edges, which no reduction graph has
        carrier = oracles.ColouredGraph(
            _labels={"a": 2, "b": 2, "c": 2, "d": 3, "e": 3},
            reality_edges=(frozenset({"b", "d"}), frozenset({"c", "e"})),
            desire_edges=(frozenset({"a", "b"}), frozenset({"b", "c"}), frozenset({"d", "e"})),
        )
        labels, edges = oracles.cps_edge_set(carrier)
        assert list(labels.items()) == [(("a", "b"), 2), (("b", "c"), 2), (("d", "e"), 3)]
        assert edges == {frozenset({("a", "b"), ("d", "e")}), frozenset({("b", "c"), ("d", "e")})}
        assert LabelledGraph(labels, edges).edges == edges

    @settings(max_examples=500, deadline=None)
    @given(strategies.legal_strings())
    @example(pointers.parse_pointer_string("22"))  # a 1-cycle: a self-loop, dropped
    @example(pointers.parse_pointer_string("2-2"))  # a 2-cycle: one edge, met twice
    @example(pointers.parse_pointer_string("2323"))
    def test_matches_the_first_array_compression(self, u):
        rg = reduction.ReductionGraph(u)
        got, want = compress.cps(rg), oracles.pairs_cps(rg)
        assert (got.first, got.second, got.index_labels) == (want.first, want.second,
                                                             want.index_labels)
        assert got.walks == want.walks
        assert rg.component_count() == len(got.walks)

    def test_compression_preserves_isomorphism_class(self):
        rng = random.Random(63)
        strings = [sampling.random_legal_string(rng, 2, gaps=False) for _ in range(40)]
        for u in strings:
            for v in strings:
                rg_u = reduction.ReductionGraph(u)
                rg_v = reduction.ReductionGraph(v)
                two_edge = oracles.brute_force_isomorphic_2edge(rg_u, rg_v)
                collapsed = oracles.brute_force_isomorphic(
                    compress.cps(rg_u), compress.cps(rg_v)
                )
                assert two_edge == collapsed


class TestLabelledGraph:
    def test_constructor_checks_every_edge(self):
        labels = {"a": 2, "b": 3, "c": 3}
        for bad in (
            [frozenset({"a"})],
            [("a", "a")],
            [("a", "b", "c")],
            [("a", "z")],
            [frozenset({"z", "b"})],
        ):
            with pytest.raises(ValueError):
                LabelledGraph(labels, bad)

    def test_a_third_edge_is_named_at_either_end_of_a_pair(self):
        labels = {"a": 2, "b": 3, "c": 3, "d": 2}
        for edges in ([("a", "b"), ("a", "c"), ("a", "d")],   # a is the pair's first end
                      [("a", "b"), ("a", "c"), ("d", "a")]):  # a is its second
            with pytest.raises(ValueError,
                               match=r"^vertex 'a' would get a third edge \(maximum degree 2\)$"):
                LabelledGraph(labels, edges)

    def test_walks_read_each_component_once(self):
        rng = random.Random(65)
        for _ in range(300):
            g = oracles.random_degree2_graph(rng, max_vertices=12)
            ids = list(g.labels)
            walks = list(g.walks)
            assert sorted(v for walk in walks for v in walk) == list(range(len(ids)))
            walked = 0
            for walk in walks:
                closed = g.second[walk[0]] >= 0  # a cycle; otherwise read from an end
                steps = list(zip(walk, walk[1:])) + ([(walk[-1], walk[0])] if closed else [])
                assert all(frozenset((ids[a], ids[b])) in g.edges for a, b in steps)
                assert not closed or len(walk) >= 3
                walked += len(steps)
            assert walked == len(g.edges)  # so no edge joins two walks
            assert g.component_count() == len(walks)

    def test_one_walk_serves_the_canonical_form_and_the_count(self, monkeypatch):
        """cps hands over its walks at build; the canonical form and both counts reuse them."""
        rg = reduction.ReductionGraph(pointers.parse_pointer_string("72673456-3-245"))
        g = compress.cps(rg)
        walks, entries = vars(g)["walks"], vars(rg)["cycle_entries"]
        # with the walks gone from both classes, only the kept values can answer
        monkeypatch.delattr(LabelledGraph, "walks")
        monkeypatch.delattr(reduction.ReductionGraph, "cycle_entries")
        code = iso.canonical_labelled(g)
        assert iso.canonical_2edge(rg) == code
        assert g.component_count() == rg.component_count() == 2
        assert g.walks is walks and rg.cycle_entries is entries

    def test_repeated_edges_are_skipped(self):
        g = LabelledGraph.from_index_pairs((2, 3), [(0, 1), (1, 0), (0, 1)], (tuple, ("a", "b")))
        assert (g.first, g.second) == ([1, 0], [-1, -1])
        assert g.edges == {frozenset("ab")}

    def test_a_self_loop_is_refused(self):
        with pytest.raises(ValueError, match="^vertex 'a' would get a self-loop$"):
            LabelledGraph.from_index_pairs((2, 3), [(0, 0)], (tuple, ("a", "b")))
        with pytest.raises(ValueError, match="^vertex 'b' would get a self-loop$"):
            LabelledGraph.from_index_pairs((2, 3), [(0, 1), (1, 1)], (tuple, ("a", "b")))

    def test_equality_uses_labels_and_adjacency(self):
        g = LabelledGraph({"a": 2, "b": 3, "c": 3}, [("a", "b"), ["b", "c"], ("b", "a")])
        assert g.edges == {frozenset("ab"), frozenset("bc")}
        assert (g.first, g.second) == ([1, 0, 1], [-1, 2, -1])
        assert g == LabelledGraph({"c": 3, "b": 3, "a": 2}, g.edges)
        assert g != LabelledGraph({"a": 2, "b": 3, "c": 3}, [("a", "b")])
        assert g != LabelledGraph({"a": 2, "b": 3, "c": 2}, g.edges)
        with pytest.raises(TypeError):
            hash(g)
        with pytest.raises(AttributeError):
            g.labels = {}
