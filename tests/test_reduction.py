import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from geneasm import compress, pointers, reduction, sampling
from geneasm.errors import LegalityError


def rg_of(text):
    return reduction.ReductionGraph(pointers.parse_pointer_string(text))


def _outcome(f, *args):
    try:
        return "value", f(*args)
    except (KeyError, ValueError) as exc:
        return "raises", type(exc)


def assert_matches_edge_sets(u):
    """The index-array graph against the frozenset-edge construction it replaced."""
    rg = reduction.ReductionGraph(u)
    old = oracles.EdgeSetReductionGraph(u)
    assert rg.vertices == old.vertices
    assert rg.reality_edges == old.reality_edges
    assert rg.desire_edges == old.desire_edges
    assert rg.components() == old.components()
    assert rg.component_count() == len(old.components())
    walks = [list(map(reduction.vertex, cycle)) for cycle in rg.cycles()]
    assert walks == oracles.alternating_cycles(old)
    chains = reduction.find_root_subgraphs(rg)
    assert chains == oracles.edge_set_root_subgraphs(old)
    assert reduction.is_rooted(rg) == bool(chains)
    for chain in chains:
        for k in range(1, len(chain.desire_chain) + 2):
            assert reduction.rspos(rg, chain, k) == reduction.rspos(old, chain, k)
    foreign = [frozenset({(0, 1), (1, 0)}), frozenset({(rg.n, 1), (rg.n + 1, 0)}),
               frozenset({(1, 1)}), frozenset(), frozenset({(1, 2), (2, 0)})]
    for e in old.reality_edges + old.desire_edges + tuple(foreign):
        assert _outcome(rg.posn_edge, e) == _outcome(old.posn_edge, e)
    for v in old.vertices + ((0, 1), (rg.n + 1, 0), (1, 2)):
        assert _outcome(rg.desire_edge_of, v) == _outcome(old.desire_edge_of, v)
        assert _outcome(rg.reality_edge_of, v) == _outcome(old.reality_edge_of, v)
    out = compress.cps(rg)
    labels, edges = oracles.cps_edge_set(old)
    assert list(out.labels.items()) == list(labels.items())
    assert out.edges == edges


class TestConstruction:
    def test_rejects_illegal_strings(self):
        with pytest.raises(LegalityError, match=r"^not a legal string: '2 3 2'$"):
            reduction.ReductionGraph((2, 3, 2))

    def test_mixed_polarity_example(self):
        rg = rg_of("32-43-24")
        assert len(rg.vertices) == 12
        assert len(rg.reality_edges) == 6
        assert len(rg.desire_edges) == 6
        assert sorted(len(c) for c in rg.components()) == [4, 8]

    def test_realistic_example(self):
        rg = rg_of("72673456-3-245")
        assert len(rg.vertices) == 24
        assert rg.component_count() == 2

    def test_three_component_example(self):
        assert rg_of("453475623267").component_count() == 3

    def test_shortest_string(self):
        # both reality edges double up with a desire edge on the same pair
        rg = rg_of("22")
        assert len(rg.vertices) == 4
        assert set(rg.reality_edges) == {
            frozenset({(1, 1), (2, 0)}),
            frozenset({(2, 1), (1, 0)}),
        }
        assert set(rg.desire_edges) == {
            frozenset({(1, 1), (2, 0)}),
            frozenset({(1, 0), (2, 1)}),
        }
        assert sorted(len(c) for c in rg.components()) == [2, 2]

    def test_empty_string(self):
        rg = reduction.ReductionGraph(())
        assert rg.component_count() == 0
        assert rg.vertices == ()

    def test_matches_definition_oracle(self):
        rng = random.Random(41)
        samples = [sampling.random_legal_string(rng, gaps=False) for _ in range(150)]
        samples += [sampling.random_realistic_string(rng, rng.randint(6, 8)) for _ in range(30)]
        # random_legal_string leaves gaps in the domain of about a third of these
        samples += [sampling.random_legal_string(rng, max_domain=9) for _ in range(150)]
        assert sum(pointers.domain(u) != set(range(2, len(u) // 2 + 2)) for u in samples) > 30
        for u in samples:
            rg = reduction.ReductionGraph(u)
            reality, desire = oracles.reduction_edges(u)
            assert set(rg.reality_edges) == set(reality)
            assert set(rg.desire_edges) == set(desire)
            assert rg.component_count() == oracles.component_count(
                len(u), [reality, desire]
            )
            assert rg.components() == oracles.components(len(u), [reality, desire])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_occurrence_index_matches_definition_oracle(self, data):
        """Magnitudes up to 40 with gaps; desire edges come in pairs by magnitude."""
        mags = data.draw(st.lists(st.integers(2, 40), min_size=1, max_size=12, unique=True))
        order = data.draw(st.permutations([m for m in mags for _ in range(2)]))
        barred = data.draw(st.lists(st.booleans(), min_size=len(order), max_size=len(order)))
        u = tuple(-m if bar else m for m, bar in zip(order, barred))
        rg = reduction.ReductionGraph(u)
        reality, desire = oracles.reduction_edges(u)
        assert list(rg.reality_edges) == reality
        assert set(rg.desire_edges) == set(desire) and len(rg.desire_edges) == len(desire)
        labels = [rg.label(min(e)) for e in rg.desire_edges]
        assert labels == sorted(m for m in mags for _ in range(2))

    def test_matches_the_edge_set_construction(self):
        rng = random.Random(59)
        samples = [(), (2, 2), (-2, -2), (-2, 2), (10**6, -10**6), (2, 10**6, -2, 10**6)]
        # magnitudes below 2, which the parser refuses and the graph accepts
        samples += [(1, 3, 1, -3), (1, 1), (0, 2, 0, 2)]
        # random_legal_string leaves gaps in the domain of about a third of these
        samples += [sampling.random_legal_string(rng, max_domain=12) for _ in range(300)]
        samples += [sampling.random_realistic_string(rng, rng.randint(2, 40)) for _ in range(100)]
        # strings that start with a barred pointer
        samples += [pointers.complement(u) for u in samples if u and u[0] > 0][:100]
        # the largest magnitude 10**6 in place of one magnitude
        for u in samples[9:60]:
            top = max(map(abs, u))
            samples.append(tuple(x if abs(x) != top else x // top * 10**6 for x in u))
        assert sum(u[0] < 0 for u in samples if u) > 100
        for u in samples:
            assert_matches_edge_sets(u)

    @settings(max_examples=300, deadline=None)
    @given(strategies.legal_strings())
    def test_matches_the_edge_set_construction_on_generated_strings(self, u):
        assert_matches_edge_sets(u)

    def test_every_vertex_on_one_edge_of_each_colour(self):
        rng = random.Random(42)
        for _ in range(50):
            u = sampling.random_legal_string(rng, gaps=False)
            rg = reduction.ReductionGraph(u)
            for colour in (rg.reality_edges, rg.desire_edges):
                cover = [v for e in colour for v in e]
                assert sorted(cover) == sorted(rg.vertices)

    def test_desire_edges_join_equal_labels(self):
        rng = random.Random(43)
        for _ in range(50):
            rg = reduction.ReductionGraph(sampling.random_legal_string(rng, gaps=False))
            for e in rg.desire_edges:
                a, b = tuple(e)
                assert rg.label(a) == rg.label(b)


class TestPositions:
    def test_position_values(self):
        rg = rg_of("32-43-24")
        assert rg.posn_edge(frozenset({(2, 1), (3, 0)})) == 2
        assert rg.posn((1, 0)) == rg.n
        assert rg.posn((5, 1)) == 5
        assert rg.posn((5, 0)) == 4

    def test_position_only_for_reality_edges(self):
        rg = rg_of("2323")
        with pytest.raises(ValueError):
            rg.posn_edge(frozenset({(1, 1), (3, 0)}))  # desire-only pair
        # for 2 2 the desire pair {I_1, I'_2} doubles as reality edge e_2
        assert rg_of("22").posn_edge(frozenset({(1, 0), (2, 1)})) == 2

    def test_positions_match_the_set_lookup(self):
        """posn_edge, position and rspos against looking e up in the set of reality edges."""

        def set_posn_edge(rg, e):
            if e not in set(rg.reality_edges):
                raise ValueError("not a reality edge")
            (posn,) = {rg.posn(v) for v in e}
            return posn

        rng = random.Random(58)
        for trial in range(80):
            kappa = rng.randint(2, 9)
            if trial % 2:
                u = sampling.random_realistic_string(rng, kappa)
            else:
                u = sampling.random_legal_string(rng, gaps=False)
            rg = reduction.ReductionGraph(u)
            for e in rg.reality_edges:
                assert rg.posn_edge(e) == reduction.position(rg, e) == set_posn_edge(rg, e)
            foreign = [frozenset({(0, 1), (1, 0)}), frozenset({(rg.n, 1), (rg.n + 1, 0)}),
                       frozenset({(1, 1)}), frozenset()]
            for e in list(rg.desire_edges) + foreign:
                if e in rg.reality_edges:  # a desire pair that doubles as a reality edge
                    continue
                with pytest.raises(ValueError):
                    set_posn_edge(rg, e)
                with pytest.raises(ValueError):
                    rg.posn_edge(e)
            for chain in reduction.find_root_subgraphs(rg):
                for k in range(2, len(chain.desire_chain) + 1):
                    want = set_posn_edge(rg, chain.reality_links[k - 2])
                    assert reduction.rspos(rg, chain, k) == want

    def test_position_helper_dispatch(self):
        rg = rg_of("2323")
        assert reduction.position(rg, (2, 1)) == 2
        assert reduction.position(rg, rg.reality_edge_at(3)) == 3


class TestOverlapWindowValues:
    def test_desire_edge_window(self):
        # windows spanned by a desire edge reduce to the overlap set of its
        # label, shifted by the label itself when the pointer is positive
        rng = random.Random(44)
        for _ in range(150):
            u = sampling.random_legal_string(rng, gaps=False)
            rg = reduction.ReductionGraph(u)
            pos = pointers.positive_set(u)
            for e in rg.desire_edges:
                v1, v2 = tuple(e)
                p = rg.label(v1)
                window = pointers.positional_overlap(u, rg.posn(v1), rg.posn(v2))
                expected = pointers.overlap_set(u, p)
                if p in pos:
                    expected = expected ^ {p}
                assert window == expected

    def test_vertex_pair_window_is_singleton(self):
        rng = random.Random(45)
        for _ in range(150):
            u = sampling.random_legal_string(rng, gaps=False)
            rg = reduction.ReductionGraph(u)
            for i in range(1, len(u) + 1):
                window = pointers.positional_overlap(u, rg.posn((i, 0)), rg.posn((i, 1)))
                assert window == {pointers.magnitude(u[i - 1])}

    def test_alternating_path_window_formula(self):
        # walk reality-first paths; when the interior desire labels are
        # pairwise distinct the window equals
        # (positives among P) xor (xor of the overlap sets over P)
        rng = random.Random(46)
        checked = 0
        for _ in range(60):
            u = sampling.random_legal_string(rng, gaps=False)
            rg = reduction.ReductionGraph(u)
            pos = pointers.positive_set(u)
            for start in rg.vertices:
                e1 = rg.reality_edge_of(start)
                labels = []
                cursor = start
                while True:
                    d = rg.desire_edge_of(cursor)
                    labels.append(rg.label(cursor))
                    far = next(v for v in d if v != cursor)
                    e2 = rg.reality_edge_of(far)
                    window = pointers.positional_overlap(
                        u, rg.posn_edge(e1), rg.posn_edge(e2)
                    )
                    if len(set(labels)) == len(labels):
                        expected = frozenset(pos & set(labels))
                        for t in labels:
                            expected = expected ^ pointers.overlap_set(u, t)
                        assert window == expected
                        checked += 1
                    else:
                        break
                    cursor = next(v for v in e2 if v != far)
                    if rg.posn_edge(e2) == rg.posn_edge(e1) or len(labels) > len(u):
                        break
        assert checked > 100


class TestRootChains:
    def test_realistic_worked_example_is_rooted(self):
        assert reduction.is_rooted(rg_of("72673456-3-245"))

    def test_double_occurrence_pattern_has_two_chains(self):
        assert len(reduction.find_root_subgraphs(rg_of("234234"))) == 2

    def test_chain_count_matches_exhaustive_oracle(self):
        rng = random.Random(47)
        for _ in range(200):
            u = sampling.random_legal_string(rng, 4, gaps=False)
            if pointers.domain(u) != frozenset(
                range(2, len(pointers.domain(u)) + 2)
            ):
                continue
            rg = reduction.ReductionGraph(u)
            assert len(reduction.find_root_subgraphs(rg)) == oracles.root_chain_count(u)

    def test_gapped_domain_has_no_chains(self):
        assert reduction.find_root_subgraphs(rg_of("2244")) == []
        assert reduction.find_root_subgraphs(reduction.ReductionGraph(())) == []

    def test_chain_vertices(self):
        chains = reduction.find_root_subgraphs(rg_of("234234"))
        assert [sorted(chain.vertices) for chain in chains] == [
            [(1, 0), (2, 1), (3, 0), (4, 1), (5, 0), (6, 1)],
            [(1, 1), (2, 0), (3, 1), (4, 0), (5, 1), (6, 0)],
        ]
        assert all(set(chain.free_ends) <= chain.vertices for chain in chains)

    def test_every_realistic_string_is_rooted(self):
        rng = random.Random(48)
        for _ in range(200):
            u = sampling.random_realistic_string(rng, rng.randint(2, 8))
            assert reduction.is_rooted(reduction.ReductionGraph(u))

    @settings(max_examples=200, deadline=None)
    @given(strategies.arrangements(max_kappa=12))
    def test_every_encoded_arrangement_is_rooted(self, arr):
        rg = reduction.ReductionGraph(pointers.encode_arrangement(arr))
        assert reduction.is_rooted(rg)
        chains = reduction.find_root_subgraphs(rg)
        assert chains
        for chain in chains:
            assert [rg.label(min(e)) for e in chain.desire_chain] == list(range(2, len(arr) + 1))
            for idx, link in enumerate(chain.reality_links):
                assert link & chain.desire_chain[idx] and link & chain.desire_chain[idx + 1]

    def test_chain_structure(self):
        rg = rg_of("72673456-3-245")
        for chain in reduction.find_root_subgraphs(rg):
            labels = [rg.label(min(e)) for e in chain.desire_chain]
            assert labels == list(range(2, 8))
            for idx, link in enumerate(chain.reality_links):
                assert link & chain.desire_chain[idx]
                assert link & chain.desire_chain[idx + 1]

    def test_exactly_one_side_of_each_pair_on_chain(self):
        rng = random.Random(49)
        for _ in range(100):
            u = sampling.random_realistic_string(rng, rng.randint(2, 7))
            rg = reduction.ReductionGraph(u)
            for chain in reduction.find_root_subgraphs(rg):
                for i in range(1, len(u) + 1):
                    members = chain.contains_vertex((i, 0)) + chain.contains_vertex((i, 1))
                    assert members == 1

    def test_off_chain_windows_vanish_only_on_equal_positions(self):
        rng = random.Random(50)
        for _ in range(100):
            u = sampling.random_realistic_string(rng, rng.randint(2, 6))
            rg = reduction.ReductionGraph(u)
            for chain in reduction.find_root_subgraphs(rg):
                off = [
                    rg.posn_edge(e)
                    for e in rg.reality_edges
                    if e not in chain.reality_links
                ]
                for i in off:
                    for j in off:
                        empty = pointers.positional_overlap(u, i, j) == frozenset()
                        assert empty == (i == j)


class TestOffChainEdgeCharacterization:
    def _check(self, u):
        rg = reduction.ReductionGraph(u)
        dom = sorted(pointers.domain(u))
        pos = pointers.positive_set(u)
        for chain in reduction.find_root_subgraphs(rg):
            for a in range(len(dom)):
                for b in range(a + 1, len(dom)):
                    p, q = dom[a], dom[b]
                    exists = any(
                        not (chain.contains_vertex(v1) or chain.contains_vertex(v2))
                        and {rg.label(v1), rg.label(v2)} == {p, q}
                        for v1, v2 in map(tuple, rg.reality_edges)
                    )
                    holds = False
                    core = set(range(p + 1, q))
                    for extra in (set(), {p}, {q}, {p, q}):
                        P = core | extra
                        value = frozenset()
                        for t in P:
                            value = value ^ pointers.overlap_set(u, t)
                        if value == (pos & P) ^ {p, q}:
                            holds = True
                            break
                    assert exists == holds, (u, chain, p, q)

    def test_exhaustive_small_kappa(self):
        for kappa in (2, 3, 4):
            for entries in permutations(range(1, kappa + 1)):
                for signs in product((1, -1), repeat=kappa):
                    arr = tuple(k * s for k, s in zip(entries, signs))
                    self._check(pointers.encode_arrangement(arr))

    def test_random_medium_kappa(self):
        rng = random.Random(51)
        for _ in range(60):
            self._check(sampling.random_realistic_string(rng, rng.randint(5, 6)))


class TestChainPositions:
    def test_positions_of_double_occurrence_pattern(self):
        u = pointers.parse_pointer_string("234234")
        rg = reduction.ReductionGraph(u)
        chains = reduction.find_root_subgraphs(rg)
        assert len(chains) == 2
        for chain in chains:
            values = [reduction.rspos(rg, chain, k) for k in range(1, 5)]
            # internal link positions are the positions of reality edges
            # joining the label-k and label-(k+1) desire edges
            assert values[1] == rg.posn_edge(chain.reality_links[0])
            assert values[2] == rg.posn_edge(chain.reality_links[1])
        # each chain of this string closes through a single external reality
        # edge, so its two boundary positions coincide (worked out by hand)
        assert [
            tuple(reduction.rspos(rg, chain, k) for k in range(1, 5))
            for chain in chains
        ] == [(6, 4, 2, 6), (3, 1, 5, 3)]

    def test_two_segment_strings_order_external_positions(self):
        u = (-2, 2)
        rg = reduction.ReductionGraph(u)
        chains = reduction.find_root_subgraphs(rg)
        assert len(chains) == 2
        seen = set()
        for chain in chains:
            lo = reduction.rspos(rg, chain, 1)
            hi = reduction.rspos(rg, chain, 2)
            assert lo <= hi
            seen.add((lo, hi))
        assert (1, 2) in seen

    def test_degenerate_two_segment_chain(self):
        # for 2 2 each chain touches a single reality edge at both ends,
        # so the two external positions coincide
        rg = reduction.ReductionGraph((2, 2))
        chains = reduction.find_root_subgraphs(rg)
        values = sorted(
            (reduction.rspos(rg, c, 1), reduction.rspos(rg, c, 2)) for c in chains
        )
        assert values == [(1, 1), (2, 2)]

    def test_out_of_range(self):
        rg = reduction.ReductionGraph((2, 2))
        chain = reduction.find_root_subgraphs(rg)[0]
        with pytest.raises(ValueError):
            reduction.rspos(rg, chain, 0)
        with pytest.raises(ValueError):
            reduction.rspos(rg, chain, 3)


class TestInvariance:
    def test_reduction_graph_invariant_under_symmetries(self):
        from geneasm import iso

        rng = random.Random(52)
        for _ in range(60):
            u = sampling.random_legal_string(rng, gaps=False)
            rg = reduction.ReductionGraph(u)
            code = iso.canonical_2edge(rg)
            variants = [pointers.reversal(u), pointers.complement(u), pointers.inverse(u)]
            variants.extend(pointers.conjugates(u))
            for v in variants:
                assert iso.canonical_2edge(reduction.ReductionGraph(v)) == code

    def test_equal_overlap_graphs_of_realistic_strings_give_isomorphic_graphs(self):
        from geneasm import iso, overlap

        rng = random.Random(53)
        by_graph = {}
        for _ in range(300):
            u = sampling.random_realistic_string(rng, rng.randint(2, 5))
            g = overlap.overlap_graph(u)
            key = overlap.emit_overlap_json(g)
            code = iso.canonical_2edge(reduction.ReductionGraph(u))
            if key in by_graph:
                assert by_graph[key] == code
            else:
                by_graph[key] = code
