import copy
import pickle
import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings

import oracles
import strategies
from builders import edge, gamma, shuffled_string
from geneasm import compress, direct, iso, overlap, pointers, reduction, sampling
from geneasm.compress import LabelledGraph
from geneasm.errors import CapError, ParseError, RealismError


ROOT_CHAIN_7 = {edge(f"Jp{p}", f"Jp{p + 1}") for p in range(2, 7)}


class TestWorkedExamples:
    def test_all_negative_example(self):
        built = direct.direct_reduction_graph(gamma("453475623267"))
        assert set(built.labels.values()) == {2, 3, 4, 5, 6, 7}
        assert len(built.labels) == 12
        extras = built.edges - ROOT_CHAIN_7
        assert extras == {
            edge("J2", "J6"),
            edge("J4", "J7"),
            edge("J3", "J5"),
            edge("J5", "Jp7"),
            edge("Jp2", "J3"),
        }

    def test_all_negative_witnesses(self):
        g = gamma("453475623267")
        subsets = {w.subset for w in direct.condition_witnesses(g, ("J2", "J6"))}
        assert subsets == {frozenset({3, 4, 5}), frozenset({2, 3, 4, 5, 6})}
        values = {w.value for w in direct.condition_witnesses(g, ("J2", "J6"))}
        assert values == {frozenset({2, 6})}
        assert {w.subset for w in direct.condition_witnesses(g, ("J4", "J7"))} == {
            frozenset({5, 6}),
            frozenset({4, 5, 6, 7}),
        }
        assert {w.subset for w in direct.condition_witnesses(g, ("J3", "J5"))} == {
            frozenset({4})
        }
        assert {w.subset for w in direct.condition_witnesses(g, ("J5", "Jp7"))} == {
            frozenset({6, 7})
        }
        assert {w.subset for w in direct.condition_witnesses(g, ("Jp2", "J3"))} == {
            frozenset({2})
        }
        assert direct.condition_witnesses(g, ("J2", "J3")) == []
        assert direct.condition_witnesses(g, ("Jp2", "Jp7")) == []

    def test_signed_example(self):
        built = direct.direct_reduction_graph(gamma("72673456-3-245"))
        extras = built.edges - ROOT_CHAIN_7
        assert extras == {
            edge("J3", "J7"),
            edge("J3", "J6"),
            edge("J2", "J6"),
            edge("J2", "J4"),
            edge("J4", "J5"),
            edge("J5", "J7"),
            edge("Jp2", "Jp7"),
        }

    def test_signed_example_witnesses(self):
        g = gamma("72673456-3-245")
        closing = direct.condition_witnesses(g, ("Jp2", "Jp7"))
        assert [sorted(w.subset) for w in closing] == [[2, 3, 4, 5, 6, 7]]
        # positives inside the window cancel against the target exactly
        assert closing[0].value == g.positive
        assert {w.subset for w in direct.condition_witnesses(g, ("J5", "J7"))} == {
            frozenset({5, 6, 7})
        }

    def test_smallest_graph(self):
        built = direct.direct_reduction_graph(gamma("22"))
        assert set(built.labels) == {"J2", "Jp2"}
        assert built.edges == frozenset()

    def test_root_chain_edges_always_present(self):
        rng = random.Random(81)
        for _ in range(50):
            kappa = rng.randint(2, 8)
            entries = list(range(1, kappa + 1))
            rng.shuffle(entries)
            arr = tuple(-k if rng.random() < 0.5 else k for k in entries)
            g = overlap.overlap_graph(pointers.encode_arrangement(arr))
            built = direct.direct_reduction_graph(g)
            for p in range(2, kappa):
                assert edge(f"Jp{p}", f"Jp{p + 1}") in built.edges

    def test_rejects_gapped_domains(self):
        with pytest.raises(ValueError):
            direct.direct_reduction_graph(gamma("2244"))
        with pytest.raises(ValueError):
            direct.direct_reduction_graph(
                overlap.OverlapGraph(frozenset(), frozenset(), frozenset())
            )

    def test_witness_vertex_validation(self):
        g = gamma("22")
        for pair in (("J2", "J9"), ("Q2", "J2"), ("J1", "Jp2"), ("Jp02", "J2")):
            with pytest.raises(ValueError, match="is not one of J2..J2, Jp2..Jp2$"):
                direct.condition_witnesses(g, pair)
        with pytest.raises(RealismError):
            direct.condition_witnesses(gamma("2244"), ("J2", "J4"))

    def test_witnesses_are_built_only_for_the_asked_pair(self, monkeypatch):
        g = overlap.overlap_graph(sampling.random_realistic_string(random.Random(114), 8))
        witness, built = direct.Witness, []
        monkeypatch.setattr(direct, "Witness",
                            lambda subset, value: built.append(subset) or witness(subset, value))
        windows = len(list(direct.explain_lines(g)))
        assert len(built) == windows > 1
        found = 0
        for a in _names(8):
            for b in _names(8):
                built.clear()
                got = direct.condition_witnesses(g, (a, b))
                assert len(built) == len(got), (a, b)
                found += len(got)
        # each pair asked in both orders; the six root-chain edges hold one empty witness each
        assert found == 2 * (windows + 6)


def assert_root_chain_maps_exactly(u):
    """φ of every root walk sends the edges of direct(γ_u) exactly onto those of cps(R_u)."""
    rg = reduction.ReductionGraph(u)
    walks = list(reduction._root_walks(rg))
    assert walks, u
    want = oracles.index_edges(compress.cps(rg))
    built = oracles.index_edges(direct.direct_reduction_graph(overlap.overlap_graph(u)))
    for walk in walks:
        phi = oracles.root_chain_map(rg, walk)
        assert {frozenset(phi[v] for v in e) for e in built} == want, (u, walk)


class TestRootChainMap:
    @settings(max_examples=200, deadline=None)
    @given(strategies.arrangements(max_kappa=12))
    def test_maps_every_encoded_arrangement_exactly(self, arr):
        assert_root_chain_maps_exactly(pointers.encode_arrangement(arr))

    def test_maps_rooted_strings_that_are_not_realistic(self):
        # the proof in the direct docstring reads only the root chain
        rng = random.Random(84)
        checked = 0
        while checked < 300:
            kappa = rng.randint(2, 7)
            u = tuple(shuffled_string(rng, kappa))
            if pointers.is_realistic(u) or not reduction.is_rooted(reduction.ReductionGraph(u)):
                continue
            assert_root_chain_maps_exactly(u)
            checked += 1

    def test_examples(self):
        # 234234 encodes M1 M3 M2 M4 and has two root chains, one through the gaps
        # inside M2 and M3 and one through gaps between segments
        rg = reduction.ReductionGraph((2, 3, 4, 2, 3, 4))
        walks = list(reduction._root_walks(rg))
        assert [oracles.root_chain_map(rg, walk) for walk in walks] == [
            [1, 0, 2, 3, 5, 4], [0, 1, 3, 2, 4, 5]]
        for u in ((2, 3, 4, 2, 3, 4), (2, 2), (2, -2), (7, 2, 6, 7, 3, 4, 5, 6, -3, -2, 4, 5)):
            assert_root_chain_maps_exactly(u)


class TestMainEquivalence:
    def _check(self, u):
        rg = reduction.ReductionGraph(u)
        g = overlap.overlap_graph(u)
        built = direct.direct_reduction_graph(g)
        assert all(built.degree(v) <= 2 for v in built.labels)
        assert iso.canonical_labelled(compress.cps(rg)) == iso.canonical_labelled(built)

    @settings(max_examples=200, deadline=None)
    @given(strategies.arrangements(max_kappa=12))
    def test_cps_is_direct_on_every_arrangement(self, arr):
        # the paper's main result as a property: cps(R_u) and direct(gamma_u) are isomorphic
        u = pointers.encode_arrangement(arr)
        rg = reduction.ReductionGraph(u)
        g = overlap.overlap_graph(u)
        compressed, built = compress.cps(rg), direct.direct_reduction_graph(g)
        # neither has named its vertices yet, and each survives pickle and copy so
        rebuilt = ((compressed, compress.cps(rg)), (built, direct.direct_reduction_graph(g)))
        for graph, again in rebuilt:
            assert not {"ids", "labels", "edges"} & set(vars(graph))
            for twin in (pickle.loads(pickle.dumps(graph)), copy.copy(graph), copy.deepcopy(graph)):
                assert type(twin) is LabelledGraph and twin == again
        assert iso.canonical_labelled(compressed) == iso.canonical_labelled(built)
        assert compressed.component_count() == built.component_count() == rg.component_count()
        # both equal their definition-level edge sets, ids and labels included
        labels, edges = oracles.cps_edge_set(rg)
        assert list(compressed.labels.items()) == list(labels.items())
        assert compressed.edges == edges
        kappa = len(arr)
        assert list(built.labels.items()) == [(name, p) for p in range(2, kappa + 1)
                                              for name in (f"J{p}", f"Jp{p}")]
        assert built.edges == oracles.per_candidate_direct_edges(g)

    def test_exhaustive_tiny_kappa(self):
        for kappa in (2, 3, 4):
            for entries in permutations(range(1, kappa + 1)):
                for signs in product((1, -1), repeat=kappa):
                    arr = tuple(k * s for k, s in zip(entries, signs))
                    self._check(pointers.encode_arrangement(arr))

    def test_once_per_realistic_graph_to_kappa_6(self):
        # segment 1 first and not inverted: (kappa - 1)! * 2^(kappa - 1) arrangements,
        # each giving a different realistic graph (the count in the kernels docstring)
        graphs = set()
        for kappa in range(2, 7):
            for rest in permutations(range(2, kappa + 1)):
                for signs in product((1, -1), repeat=kappa - 1):
                    arr = (1,) + tuple(k * s for k, s in zip(rest, signs))
                    u = pointers.encode_arrangement(arr)
                    g = overlap.overlap_graph(u)
                    graphs.add(g)
                    compressed = compress.cps(reduction.ReductionGraph(u))
                    assert iso.canonical_labelled(compressed) == iso.canonical_labelled(
                        direct.direct_reduction_graph(g)), u
                    assert_root_chain_maps_exactly(u)
        assert len(graphs) == 2 + 8 + 48 + 384 + 3840

    def test_random_up_to_cap(self):
        rng = random.Random(82)
        for _ in range(150):
            kappa = rng.randint(2, 8)
            entries = list(range(1, kappa + 1))
            rng.shuffle(entries)
            arr = tuple(-k if rng.random() < 0.5 else k for k in entries)
            self._check(pointers.encode_arrangement(arr))

    def test_reinflation_round_trip(self):
        # replacing every vertex by a desire edge and every edge by a reality
        # edge recovers the two-colour structure of the source graph
        rng = random.Random(83)
        for _ in range(60):
            kappa = rng.randint(2, 7)
            entries = list(range(1, kappa + 1))
            rng.shuffle(entries)
            arr = tuple(-k if rng.random() < 0.5 else k for k in entries)
            u = pointers.encode_arrangement(arr)
            built = direct.direct_reduction_graph(overlap.overlap_graph(u))
            inflated = _inflate(built)
            rg = reduction.ReductionGraph(u)
            assert oracles.canonical_2edge(inflated) == oracles.canonical_2edge(rg)


class TestDegreeBound:
    def test_every_signed_graph_up_to_kappa_5(self):
        # realism is not needed for degree 2: all 1,098 signed graphs on
        # {2..kappa}, kappa <= 5, realistic or not (a third edge would raise)
        count = 0
        for kappa in range(2, 6):
            for edges, positive in oracles.signed_graphs(kappa):
                g = overlap.OverlapGraph(frozenset(range(2, kappa + 1)), positive, edges)
                built = direct.direct_reduction_graph(g)
                assert all(built.degree(v) <= 2 for v in built.labels)
                count += 1
        assert count == 1098


def _build(build, g):
    """The partner arrays and labels ``build`` gives on g, or the text of its ``ValueError``."""
    try:
        out = build(g)
    except ValueError as exc:
        return str(exc)
    return out.first, out.second, out.index_labels


class TestOnePassBuild:
    """The one-pass build against the pair list it replaced, ``oracles.pairs_direct``."""

    @settings(max_examples=300, deadline=None)
    @given(strategies.signed_graphs(max_kappa=9))
    def test_signed_graphs(self, g):
        assert _build(direct.direct_reduction_graph, g) == _build(oracles.pairs_direct, g)

    @settings(max_examples=200, deadline=None)
    @given(strategies.arrangements(max_kappa=12))
    def test_encoded_arrangements(self, arr):
        g = overlap.overlap_graph(pointers.encode_arrangement(arr))
        assert _build(direct.direct_reduction_graph, g) == _build(oracles.pairs_direct, g)

    def test_every_signed_graph_up_to_kappa_6(self):
        count = 0
        for kappa in range(2, 7):
            for edges, positive in oracles.signed_graphs(kappa):
                g = overlap.OverlapGraph(frozenset(range(2, kappa + 1)), positive, edges)
                assert _build(direct.direct_reduction_graph, g) == _build(oracles.pairs_direct, g)
                count += 1
        assert count == 1098 + 2**10 * 2**5

    @pytest.mark.parametrize("matches, want", [
        # J2 - J3 twice, either way round, then J2 - J4 twice: each repeat skipped, the
        # second where J2 holds J4 as its second partner
        ([(0, 2), (2, 0), (0, 4), (0, 4)], ([2, 3, 0, 1, 0, 3], [4, -1, -1, 5, -1, -1])),
        # J2 - J3, J2 - J4, J2 - Jp4: a third edge at J2
        ([(0, 2), (0, 4), (0, 5)], "vertex 'J2' would get a third edge (maximum degree 2)"),
        # J2 - Jp2, then J3 - Jp2: a third edge at the second end, Jp2 (Jp3, J2, J3)
        ([(0, 1), (2, 1)], "vertex 'Jp2' would get a third edge (maximum degree 2)"),
    ])
    def test_repeated_pairs_and_third_edges(self, monkeypatch, matches, want):
        # no signed graph gives a third edge, so the matches are stubbed
        monkeypatch.setattr(direct, "_matches",
                            lambda g, kappa: [(v, w, 0, 0) for v, w in matches])
        g = overlap.OverlapGraph(frozenset({2, 3, 4}), frozenset(), frozenset())
        got = _build(direct.direct_reduction_graph, g)
        assert got == _build(oracles.pairs_direct, g)
        assert got[:2] == want if isinstance(want, tuple) else got == want


class TestDefinitionReference:
    """The prefix-XOR evaluation against the definition in tests/oracles.py."""

    def _graphs(self):
        rng = random.Random(84)
        for kappa in range(2, 11):
            for _ in range(6):
                yield overlap.overlap_graph(sampling.random_realistic_string(rng, kappa))
                # a random signed graph, realistic or not
                vertices = frozenset(range(2, kappa + 1))
                yield overlap.OverlapGraph(
                    vertices=vertices,
                    positive=frozenset(p for p in vertices if rng.random() < 0.5),
                    edges=frozenset(
                        (p, q)
                        for p in vertices
                        for q in vertices
                        if p < q and rng.random() < 0.4
                    ),
                )

    def test_edges_and_witnesses_match_definition(self):
        for g in self._graphs():
            kappa = len(g.vertices) + 1
            names = [f"J{p}" for p in range(2, kappa + 1)]
            names += [f"Jp{p}" for p in range(2, kappa + 1)]
            want_edges = set()
            for a in names:
                for b in names:
                    want = oracles.direct_witnesses(g, a, b)
                    got = direct.condition_witnesses(g, (a, b))
                    assert [(w.subset, w.value) for w in got] == want, (g, a, b)
                    if want and a != b:
                        want_edges.add(edge(a, b))
            assert direct.direct_reduction_graph(g).edges == want_edges

    def test_explain_lists_witnesses_in_candidate_order(self):
        # the CLI checks the same strings; here the graphs that are not realistic count too
        rng = random.Random(12)
        not_realistic = 0
        for kappa in range(2, 13):
            strings = [sampling.random_realistic_string(rng, kappa) for _ in range(4)]
            strings += [shuffled_string(rng, kappa) for _ in range(4)]
            for u in strings:
                g = overlap.overlap_graph(u)
                assert list(direct.explain_lines(g)) == oracles.direct_explain_lines(g), u
                not_realistic += overlap.is_realistic_overlap(g) is None
        assert not_realistic > 0


def _names(kappa):
    return [f"J{p}" for p in range(2, kappa + 1)] + [f"Jp{p}" for p in range(2, kappa + 1)]


class TestHashJoin:
    """The hash join against the per-candidate loop it replaced and the definition."""

    @settings(max_examples=150, deadline=None)
    @given(strategies.graphs_on_domain())
    def test_matches_per_candidate_loop_and_definition(self, g):
        graph = direct.direct_reduction_graph(g)
        built = graph.edges
        assert built == oracles.per_candidate_direct_edges(g)
        kappa = len(g.vertices) + 1
        assert graph == LabelledGraph(graph.labels, oracles.per_candidate_direct_edges(g))
        assert built == {
            edge(a, b)
            for a, b in combinations(_names(kappa), 2)
            if oracles.direct_witnesses(g, a, b)
        }

    @pytest.mark.parametrize("kappa", [64, 100, 128, 200, 256])
    def test_large_realistic_strings(self, kappa):
        rng = random.Random(kappa)
        g = overlap.overlap_graph(sampling.random_realistic_string(rng, kappa))
        built = direct.direct_reduction_graph(g)
        assert built.edges == oracles.per_candidate_direct_edges(g)
        assert all(built.degree(v) <= 2 for v in built.labels)
        # the definition is too slow for every pair here: sample edges and pairs
        for e in rng.sample(sorted(map(sorted, built.edges)), 20):
            assert oracles.direct_witnesses(g, *e)
        for _ in range(20):
            a, b = rng.sample(_names(kappa), 2)
            assert bool(oracles.direct_witnesses(g, a, b)) == (edge(a, b) in built.edges)

    def test_cps_matches_direct_at_kappa_1024(self):
        u = sampling.random_realistic_string(random.Random(1024), 1024)
        built = direct.direct_reduction_graph(overlap.overlap_graph(u))
        rg = reduction.ReductionGraph(u)
        assert iso.canonical_labelled(compress.cps(rg)) == iso.canonical_labelled(built)
        assert built.component_count() == rg.component_count()


def _inflate(g):
    """Expand a degree <= 2 labelled graph back into a 2-edge-coloured graph.

    Each vertex becomes a desire edge over a fresh pair; each original edge
    becomes a reality edge between free slots of the two pairs.  Leftover
    slots are closed with extra reality edges: an isolated vertex closes on
    itself (a collapsed two-cycle) and the two ends of a single-edge
    component close against each other (a collapsed four-cycle whose two
    parallel reality edges merged into one collapsed edge).
    """
    labels = {}
    slots = {}
    for v in sorted(g.labels, key=str):
        a, b = (v, 0), (v, 1)
        labels[a] = g.labels[v]
        labels[b] = g.labels[v]
        slots[v] = [a, b]
    desire = [frozenset(((v, 0), (v, 1))) for v in sorted(g.labels, key=str)]
    reality = []
    for e in sorted(g.edges, key=lambda e: sorted(map(str, e))):
        x, y = sorted(e, key=str)
        reality.append(frozenset((slots[x].pop(), slots[y].pop())))
    for v in sorted(g.labels, key=str):
        if len(slots[v]) == 2:
            reality.append(frozenset((slots[v].pop(), slots[v].pop())))
    for v in sorted(g.labels, key=str):
        if slots[v]:
            (w,) = g.neighbors(v)
            if slots[w]:
                reality.append(frozenset((slots[v].pop(), slots[w].pop())))
    assert all(not rest for rest in slots.values())
    return oracles.ColouredGraph(
        _labels=labels, reality_edges=tuple(reality), desire_edges=tuple(desire)
    )


class TestJson:
    def test_ids_come_in_label_then_root_order(self):
        """J2, Jp2, J3, Jp3, ...: the order of the number, then J before Jp, of each id."""

        def key(name):
            return int(name.lstrip("Jp")), name.startswith("Jp")

        rng = random.Random(17)
        for kappa in (2, 3, 5, 12, 40):
            built = direct.direct_reduction_graph(
                overlap.overlap_graph(sampling.random_realistic_string(rng, kappa)))
            for graph in (built, direct.parse_direct_json(direct.emit_direct_json(built))):
                names, pairs = direct.sorted_ids(graph)
                assert names == sorted(graph.labels, key=key)
                assert pairs == sorted((tuple(sorted(e, key=key)) for e in graph.edges),
                                       key=lambda pair: tuple(map(key, pair)))

    def test_golden_edges(self):
        built = direct.direct_reduction_graph(gamma("453475623267"))
        text = direct.emit_direct_json(built)
        assert text == (
            '{"kappa":7,"edges":[["J2","J6"],["Jp2","J3"],["Jp2","Jp3"],'
            '["J3","J5"],["Jp3","Jp4"],["J4","J7"],["Jp4","Jp5"],["J5","Jp7"],'
            '["Jp5","Jp6"],["Jp6","Jp7"]]}'
        )

    def test_round_trip(self):
        built = direct.direct_reduction_graph(gamma("72673456-3-245"))
        text = direct.emit_direct_json(built)
        back = direct.parse_direct_json(text)
        assert back.labels == built.labels
        assert back.edges == built.edges
        assert back == built
        assert direct.emit_direct_json(back) == text

    @pytest.mark.parametrize(
        "bad",
        [
            "nope",
            '{"kappa":1,"edges":[]}',
            '{"edges":[]}',
            '{"kappa":3,"edges":[["J2","J9"]]}',
            '{"kappa":3,"edges":[["J2","J2"]]}',
            '{"kappa":3,"edges":["J2"]}',
            '{"kappa":3,"edges":{}}',
            '{"kappa":3,"edges":"J2J3"}',
            '{"kappa":3,"edges":[[["J2"],"J3"]]}',
            '{"kappa":3,"edges":[["J2",{"J3":1}]]}',
            '{"kappa":3,"edges":[[2,"J3"]]}',
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            direct.parse_direct_json(bad)

    def test_third_edge_names_its_vertex(self):
        text = '{"kappa":4,"edges":[["J2","J3"],["Jp4","J3"],["J4","J2"],["J3","J4"]]}'
        with pytest.raises(ParseError, match="vertex 'J3' would get a third edge"):
            direct.parse_direct_json(text)
        # an edge listed twice, in either order, is one edge
        graph = direct.parse_direct_json('{"kappa":3,"edges":[["J2","J3"],["J3","J2"]]}')
        assert graph.edges == {edge("J2", "J3")}
        assert graph.degree("J2") == 1

    def test_kappa_bound(self):
        assert direct.MAX_DIRECT_KAPPA >= 8 * 8192
        graph = direct.parse_direct_json('{"kappa":8192,"edges":[["Jp8192","J2"]]}')
        assert len(graph.labels) == 2 * 8191 and len(graph.edges) == 1
        with pytest.raises(CapError):
            direct.parse_direct_json('{"kappa":%d,"edges":[]}' % (direct.MAX_DIRECT_KAPPA + 1))
        with pytest.raises(CapError):
            direct.parse_direct_json('{"kappa":200000,"edges":[]}')
