import random
from functools import partial
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
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


def assert_same_partition(graphs):
    """The package's code and the generic oracle's split these reduction graphs alike."""
    pairs = {(iso.canonical_2edge(rg), oracles.canonical_2edge(rg)) for rg in graphs}
    assert len({ours for ours, _ in pairs}) == len({theirs for _, theirs in pairs}) == len(pairs)


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
        assert oracles.brute_force_isomorphic(a, b)

    def test_path_direction(self):
        a = lg({0: 2, 1: 3, 2: 4}, [(0, 1), (1, 2)])
        b = lg({"x": 4, "y": 3, "z": 2}, [("x", "y"), ("y", "z")])
        assert iso.canonical_labelled(a) == iso.canonical_labelled(b)

    def test_path_vs_cycle_differ(self):
        a = lg({0: 2, 1: 2, 2: 2}, [(0, 1), (1, 2)])
        b = cycle_graph((2, 2, 2))
        assert iso.canonical_labelled(a) != iso.canonical_labelled(b)

    def test_rejects_high_degree(self):
        with pytest.raises(ValueError, match="maximum degree 2"):
            lg({0: 2, 1: 2, 2: 2, 3: 2}, [(0, 1), (0, 2), (0, 3)])

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
            g1 = oracles.random_degree2_graph(rng, max_vertices=8)
            if rng.random() < 0.5:
                g2 = oracles.shuffled_copy(rng, g1)
            else:
                g2 = oracles.random_degree2_graph(rng, max_vertices=8)
            want = oracles.brute_force_isomorphic(g1, g2)
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
        # each the code of the compression, as canonical_labelled(cps(rg)) writes it
        golden = {
            "223344": "c[2,3,4]|v[2]|v[3]|v[4]",
            "234432": "p[2,3]|p[3,4]|v[2]|v[4]",
            "2653562434": "c[3,4,3,5]|p[2,4]|p[2,6]|p[5,6]",
        }
        for text, code in golden.items():
            rg = reduction.ReductionGraph(pointers.parse_pointer_string(text))
            assert iso.canonical_2edge(rg) == code

    def test_conjugation_invariance(self):
        rng = random.Random(72)
        for _ in range(60):
            u = sampling.random_legal_string(rng, gaps=False)
            code = iso.canonical_2edge(reduction.ReductionGraph(u))
            for r in range(len(u)):
                assert iso.canonical_2edge(reduction.ReductionGraph(u[r:] + u[:r])) == code

    def test_agreement_with_brute_force(self):
        rng = random.Random(73)
        pairs = 0
        for _ in range(200):
            u = sampling.random_legal_string(rng, 2, gaps=False)
            v = sampling.random_legal_string(rng, 2, gaps=False)
            gu = reduction.ReductionGraph(u)
            gv = reduction.ReductionGraph(v)
            want = oracles.brute_force_isomorphic_2edge(gu, gv)
            got = iso.canonical_2edge(gu) == iso.canonical_2edge(gv)
            assert got == want
            pairs += want
        assert pairs > 20

    def test_matches_the_generic_oracle(self):
        # the cycle code against the frozenset walk over any carrier, with
        # every even rotation compared: one partition of many strings and
        # all their conjugates, so it spans many classes
        rng = random.Random(77)
        samples = [sampling.random_legal_string(rng, 7, gaps=False) for _ in range(150)]
        strings = {u[r:] + u[:r] for u in samples for r in range(len(u))}
        assert_same_partition(map(reduction.ReductionGraph, strings))
        assert iso.canonical_2edge(reduction.ReductionGraph(())) == ""
        assert oracles.canonical_2edge(reduction.ReductionGraph(())) == ""

    def test_same_partition_as_the_generic_oracle_on_small_domains(self):
        strings = [u for size in (1, 2, 3) for dom in combinations((2, 3, 4), size)
                   for u in oracles.legal_strings_on(dom)]
        assert len(strings) == 6060
        assert_same_partition(map(reduction.ReductionGraph, strings))

    @settings(max_examples=300, deadline=None)
    @given(strategies.legal_strings() | st.just(()))
    def test_is_the_code_of_the_compression(self, u):
        rg = reduction.ReductionGraph(u)
        assert iso.canonical_2edge(rg) == iso.canonical_labelled(compress.cps(rg))

    def test_colour_swap_breaks_equality(self):
        # desire edges of 2 -2 sit on the same pairs as reality edges, in
        # the opposite roles; swapping colours must still be detected
        u = (2, 3, -2, 3)
        rg = reduction.ReductionGraph(u)
        swapped = oracles.swap_colours(rg)
        assert oracles.canonical_2edge(rg) != oracles.canonical_2edge(swapped)

    def test_colour_swap_on_symmetric_graph(self):
        rg = reduction.ReductionGraph((2, 2))
        swapped = oracles.swap_colours(rg)
        assert oracles.canonical_2edge(rg) == oracles.canonical_2edge(swapped)


class TestLeastRotation:
    """The linear least rotation against comparing every rotation (``oracles.least_rotation``)."""

    @staticmethod
    def _sequences(rng):
        for _ in range(1500):
            length = rng.randint(1, 30)
            alphabet = rng.randint(1, 4)
            kind = rng.random()
            if kind < 0.3:  # periodic: a random period repeated
                period = tuple(rng.randint(1, alphabet) for _ in range(rng.randint(1, 3)))
                yield period * length
            elif kind < 0.4:  # constant
                yield (rng.randint(1, alphabet),) * length
            else:
                yield tuple(rng.randint(1, alphabet) for _ in range(length))

    def test_matches_every_rotation_compared(self):
        rng = random.Random(75)
        for seq in self._sequences(rng):
            assert iso._least_rotation(seq) == oracles.least_rotation(seq, 1)

    def test_long_cycle(self):
        rng = random.Random(76)
        seq = tuple(rng.randint(2, 5) for _ in range(2000))
        assert iso._least_rotation(seq) == oracles.least_rotation(seq, 1)

    @settings(max_examples=1000, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda letters: st.lists(st.integers(1, letters), min_size=2, max_size=24)))
    def test_anchored_scan_matches_every_rotation_compared(self, seq):
        # few letters give many occurrences of the least label: the hard case
        seq = tuple(seq)
        least = oracles.least_rotation(seq, 1)
        assert iso._least_rotation(seq) == least
        assert oracles.two_candidate_least_rotation(seq, 1) == least

    @settings(max_examples=300, deadline=None)
    @given(strategies.legal_strings())
    def test_codes_match_the_first_scan(self, u):
        rg = reduction.ReductionGraph(u)
        codes = iso.canonical_labelled(compress.cps(rg)), iso.canonical_2edge(rg)
        first_scan = partial(oracles.two_candidate_least_rotation, step=1)
        with mock.patch.object(iso, "_least_rotation", first_scan):
            assert (iso.canonical_labelled(compress.cps(rg)), iso.canonical_2edge(rg)) == codes


class TestLinearBound:
    """One cycle of 2^17 vertices: linear scans take milliseconds, quadratic ones never end."""

    SIZE = 1 << 17

    @staticmethod
    def _cycle(labels):
        size = len(labels)
        return LabelledGraph.from_index_pairs(
            labels, [(v, (v + 1) % size) for v in range(size)], (range, size))

    def test_one_label(self):
        code = iso.canonical_labelled(self._cycle((2,) * self.SIZE))
        assert code == "c[" + ",".join(["2"] * self.SIZE) + "]"

    def test_two_labels_alternating(self):
        code = iso.canonical_labelled(self._cycle((2, 3) * (self.SIZE // 2)))
        assert code == "c[" + ",".join(["2,3"] * (self.SIZE // 2)) + "]"


class TestBruteForce:
    def test_reflexive(self):
        g = cycle_graph((2, 3, 4))
        assert oracles.brute_force_isomorphic(g, g)

    def test_label_multiset_mismatch(self):
        assert not oracles.brute_force_isomorphic(lg({0: 2}, []), lg({0: 3}, []))

    def test_size_cap(self):
        big = lg({i: 2 for i in range(11)}, [])
        with pytest.raises(CapError):
            oracles.brute_force_isomorphic(big, big)
