import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from geneasm import compress, direct, iso, overlap, pointers, reduction, sampling
from geneasm.compress import LabelledGraph
from geneasm.errors import ParseError


def gamma(text):
    return overlap.overlap_graph(pointers.parse_pointer_string(text))


def edge(a, b):
    return frozenset({a, b})


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
        with pytest.raises(ValueError):
            direct.condition_witnesses(g, ("J2", "J9"))
        with pytest.raises(ValueError):
            direct.condition_witnesses(g, ("Q2", "J2"))


class TestMainEquivalence:
    def _check(self, u):
        rg = reduction.ReductionGraph(u)
        g = overlap.overlap_graph(u)
        built = direct.direct_reduction_graph(g)
        assert all(built.degree(v) <= 2 for v in built.labels)
        assert iso.canonical_labelled(compress.cps(rg)) == iso.canonical_labelled(built)

    def test_exhaustive_tiny_kappa(self):
        for kappa in (2, 3, 4):
            for entries in permutations(range(1, kappa + 1)):
                for signs in product((1, -1), repeat=kappa):
                    arr = tuple(k * s for k, s in zip(entries, signs))
                    self._check(pointers.encode_arrangement(arr))

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
            assert iso.canonical_2edge(inflated) == iso.canonical_2edge(rg)


class TestDefinitionReference:
    """The prefix-XOR evaluation against the definition in tests/oracles.py."""

    def _graphs(self):
        rng = random.Random(84)
        for kappa in range(2, 11):
            for _ in range(6):
                entries = list(range(1, kappa + 1))
                rng.shuffle(entries)
                arr = tuple(-k if rng.random() < 0.5 else k for k in entries)
                yield overlap.overlap_graph(pointers.encode_arrangement(arr))
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


@st.composite
def graphs_on_domain(draw, max_kappa=14):
    """Signed graphs on {2..kappa}: half encode an arrangement, half are random."""
    kappa = draw(st.integers(2, max_kappa))
    if draw(st.booleans()):
        order = draw(st.permutations(range(1, kappa + 1)))
        inverted = draw(st.lists(st.booleans(), min_size=kappa, max_size=kappa))
        arr = tuple(-k if inv else k for k, inv in zip(order, inverted))
        return overlap.overlap_graph(pointers.encode_arrangement(arr))
    vertices = range(2, kappa + 1)
    pairs = list(combinations(vertices, 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return overlap.OverlapGraph(
        vertices=frozenset(vertices),
        positive=frozenset(draw(st.sets(st.sampled_from(vertices)))),
        edges=frozenset(pq for pq, keep in zip(pairs, chosen) if keep),
    )


def _names(kappa):
    return [f"J{p}" for p in range(2, kappa + 1)] + [f"Jp{p}" for p in range(2, kappa + 1)]


class TestHashJoin:
    """The hash join against the per-candidate loop it replaced and the definition."""

    @settings(max_examples=150, deadline=None)
    @given(graphs_on_domain())
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
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            direct.parse_direct_json(bad)
