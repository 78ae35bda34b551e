import random

import pytest

from geneasm import compress, iso, pointers, reduction


def cps_of(text):
    return compress.cps(reduction.ReductionGraph(pointers.parse_pointer_string(text)))


def _random_legal(rng, max_domain=5):
    size = rng.randint(1, max_domain)
    letters = []
    for m in range(2, size + 2):
        letters.append(-m if rng.random() < 0.5 else m)
        letters.append(-m if rng.random() < 0.5 else m)
    rng.shuffle(letters)
    return tuple(letters)


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
            u = _random_legal(rng)
            g = cps_of(pointers.format_pointer_string(u))
            assert len(g.labels) == len(u)
            assert all(g.degree(v) <= 2 for v in g.labels)

    def test_component_count_is_preserved(self):
        rng = random.Random(62)
        for _ in range(100):
            u = _random_legal(rng)
            rg = reduction.ReductionGraph(u)
            assert compress.cps(rg).component_count() == rg.component_count()

    def test_rejects_mismatched_desire_labels(self):
        g = compress.ColouredGraph(
            _labels={"a": 2, "b": 3},
            reality_edges=(),
            desire_edges=(frozenset({"a", "b"}),),
        )
        with pytest.raises(ValueError):
            compress.cps(g)

    def test_general_carrier_with_shared_vertices(self):
        # vertices may sit on several desire edges outside reduction graphs
        g = compress.ColouredGraph(
            _labels={"a": 2, "b": 2, "c": 2, "d": 3},
            reality_edges=(frozenset({"b", "d"}),),
            desire_edges=(frozenset({"a", "b"}), frozenset({"b", "c"})),
        )
        out = compress.cps(g)
        assert set(out.labels) == {("a", "b"), ("b", "c")}
        assert out.edges == frozenset()

    def test_compression_preserves_isomorphism_class(self):
        rng = random.Random(63)
        strings = [_random_legal(rng, max_domain=2) for _ in range(40)]
        for u in strings:
            for v in strings:
                rg_u = reduction.ReductionGraph(u)
                rg_v = reduction.ReductionGraph(v)
                two_edge = iso.brute_force_isomorphic_2edge(rg_u, rg_v)
                collapsed = iso.brute_force_isomorphic(
                    compress.cps(rg_u), compress.cps(rg_v)
                )
                assert two_edge == collapsed
