import random

import pytest

from geneasm import compress, iso, pointers, reduction, sampling
from geneasm.compress import LabelledGraph
from geneasm.errors import CapError


def lg(labels, edges):
    return LabelledGraph(
        labels=dict(labels), edges=frozenset(frozenset(e) for e in edges)
    )


def cycle_graph(labels):
    n = len(labels)
    return lg(
        {i: lab for i, lab in enumerate(labels)},
        [(i, (i + 1) % n) for i in range(n)],
    )


class TestCanonicalLabelled:
    def test_single_vertices(self):
        assert iso.canonical_labelled(lg({0: 2}, [])) == "v[2]"
        assert iso.canonical_labelled(lg({0: 2}, [])) != iso.canonical_labelled(
            lg({0: 3}, [])
        )

    def test_cycle_rotation_reflection(self):
        a = cycle_graph((3, 6, 2, 4, 5, 7))
        b = cycle_graph((7, 5, 4, 2, 6, 3))
        assert iso.canonical_labelled(a) == iso.canonical_labelled(b)
        assert iso.brute_force_isomorphic(a, b)

    def test_path_direction(self):
        a = lg({0: 2, 1: 3, 2: 4}, [(0, 1), (1, 2)])
        b = lg({"x": 4, "y": 3, "z": 2}, [("x", "y"), ("y", "z")])
        assert iso.canonical_labelled(a) == iso.canonical_labelled(b)

    def test_path_vs_cycle_differ(self):
        a = lg({0: 2, 1: 2, 2: 2}, [(0, 1), (1, 2)])
        b = cycle_graph((2, 2, 2))
        assert iso.canonical_labelled(a) != iso.canonical_labelled(b)

    def test_rejects_high_degree(self):
        star = lg({0: 2, 1: 2, 2: 2, 3: 2}, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(ValueError):
            iso.canonical_labelled(star)

    def test_deterministic_bytes(self):
        g = cycle_graph((2, 3, 2, 3))
        assert iso.canonical_labelled(g) == iso.canonical_labelled(
            cycle_graph((2, 3, 2, 3))
        ) == "c[2,3,2,3]"

    def test_path_read_from_either_end(self):
        # in path order the ids are 9, 8, 11, 10; by str the end 10 comes
        # first, but the code reads from the end whose reading is smaller
        g = lg({9: 3, 8: 2, 11: 2, 10: 4}, [(9, 8), (8, 11), (11, 10)])
        assert iso.canonical_labelled(g) == "p[3,2,2,4]"

    def test_isolated_vertex_path_and_cycle_in_one_graph(self):
        g = lg(
            {"z": 5, "a": 3, "b": 2, 0: 2, 1: 4, 2: 3, 3: 3},
            [("a", "b"), (0, 1), (1, 2), (2, 3), (3, 0)],
        )
        # the cycle reads 2,4,3,3 one way; its least rotation runs the other way
        assert iso.canonical_labelled(g) == "c[2,3,3,4]|p[2,3]|v[5]"

    def test_agreement_with_brute_force(self):
        rng = random.Random(71)
        checked_iso = 0
        for _ in range(500):
            g1 = sampling.random_degree2_graph(rng, max_vertices=8)
            if rng.random() < 0.5:
                g2 = sampling.shuffled_copy(rng, g1)
            else:
                g2 = sampling.random_degree2_graph(rng, max_vertices=8)
            want = iso.brute_force_isomorphic(g1, g2)
            got = iso.canonical_labelled(g1) == iso.canonical_labelled(g2)
            assert got == want
            checked_iso += want
        assert checked_iso > 150  # mix of isomorphic and non-isomorphic pairs


class TestCanonical2Edge:
    def test_legal_pair_with_equal_overlap_graphs_differs(self):
        u = pointers.parse_pointer_string("2653562434")
        v = pointers.parse_pointer_string("2563652434")
        from geneasm import overlap

        assert overlap.overlap_graph(u) == overlap.overlap_graph(v)
        assert iso.canonical_2edge(reduction.ReductionGraph(u)) != iso.canonical_2edge(
            reduction.ReductionGraph(v)
        )

    def test_second_negative_pair(self):
        u = pointers.parse_pointer_string("223344")
        v = pointers.parse_pointer_string("234432")
        from geneasm import overlap

        assert overlap.overlap_graph(u) == overlap.overlap_graph(v)
        ru, rv = reduction.ReductionGraph(u), reduction.ReductionGraph(v)
        assert iso.canonical_2edge(ru) != iso.canonical_2edge(rv)
        assert max(len(c) for c in ru.components()) == 6
        assert max(len(c) for c in rv.components()) < 6

    def test_golden_codes(self):
        golden = {
            "223344": "C[2,2]|C[2,2,3,3,4,4]|C[3,3]|C[4,4]",
            "234432": "C[2,2]|C[2,2,3,3]|C[3,3,4,4]|C[4,4]",
            "2653562434": "C[2,2,4,4]|C[2,2,6,6]|C[3,3,4,4,3,3,5,5]|C[5,5,6,6]",
        }
        for text, code in golden.items():
            rg = reduction.ReductionGraph(pointers.parse_pointer_string(text))
            assert iso.canonical_2edge(rg) == code

    def test_conjugation_invariance(self):
        rng = random.Random(72)
        for _ in range(60):
            u = _random_legal(rng)
            code = iso.canonical_2edge(reduction.ReductionGraph(u))
            for v in pointers.conjugates(u):
                assert iso.canonical_2edge(reduction.ReductionGraph(v)) == code

    def test_agreement_with_brute_force(self):
        rng = random.Random(73)
        pairs = 0
        for _ in range(200):
            u = _random_legal(rng, max_domain=2)
            v = _random_legal(rng, max_domain=2)
            gu = reduction.ReductionGraph(u)
            gv = reduction.ReductionGraph(v)
            want = iso.brute_force_isomorphic_2edge(gu, gv)
            got = iso.canonical_2edge(gu) == iso.canonical_2edge(gv)
            assert got == want
            pairs += want
        assert pairs > 20

    def test_colour_swap_breaks_equality(self):
        # desire edges of 2 -2 sit on the same pairs as reality edges, in
        # the opposite roles; swapping colours must still be detected
        u = (2, 3, -2, 3)
        rg = reduction.ReductionGraph(u)
        swapped = compress.swap_colours(rg)
        assert iso.canonical_2edge(rg) != iso.canonical_2edge(swapped)

    def test_colour_swap_on_symmetric_graph(self):
        rg = reduction.ReductionGraph((2, 2))
        swapped = compress.swap_colours(rg)
        assert iso.canonical_2edge(rg) == iso.canonical_2edge(swapped)


class TestBruteForce:
    def test_reflexive(self):
        g = cycle_graph((2, 3, 4))
        assert iso.brute_force_isomorphic(g, g)

    def test_label_multiset_mismatch(self):
        assert not iso.brute_force_isomorphic(lg({0: 2}, []), lg({0: 3}, []))

    def test_size_cap(self):
        big = lg({i: 2 for i in range(11)}, [])
        with pytest.raises(CapError):
            iso.brute_force_isomorphic(big, big)


def _random_legal(rng, max_domain=5):
    size = rng.randint(1, max_domain)
    letters = []
    for m in range(2, size + 2):
        letters.append(-m if rng.random() < 0.5 else m)
        letters.append(-m if rng.random() < 0.5 else m)
    rng.shuffle(letters)
    return tuple(letters)
