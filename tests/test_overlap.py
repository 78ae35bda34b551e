import json
import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
import strategies
from builders import gamma
from geneasm import overlap, pointers, reduction, rewriting, sampling
from geneasm.errors import ParseError, RealismError


STAR_JSON = (
    '{"vertices":[{"p":2,"sign":"-"},{"p":3,"sign":"-"},'
    '{"p":4,"sign":"-"},{"p":5,"sign":"-"}],"edges":[[2,3],[3,4],[3,5]]}'
)


class TestConstruction:
    def test_star_graph(self):
        g = gamma("24535423")
        assert g.vertices == {2, 3, 4, 5}
        assert g.positive == frozenset()
        assert g.edges == {(2, 3), (3, 4), (3, 5)}

    def test_signed_graph(self):
        g = gamma("72673456-3-245")
        assert g.positive == {2, 3}
        assert g.vertices - g.positive == {4, 5, 6, 7}
        assert g.edges == {
            (2, 4), (2, 5), (2, 7), (3, 4), (3, 5), (3, 6),
            (4, 5), (4, 6), (5, 6), (6, 7),
        }
        # neighbor sets drive the direct construction; freeze them all
        assert g.neighbors(2) == {4, 5, 7}
        assert g.neighbors(3) == {4, 5, 6}
        assert g.neighbors(4) == {2, 3, 5, 6}
        assert g.neighbors(5) == {2, 3, 4, 6}
        assert g.neighbors(6) == {3, 4, 5, 7}
        assert g.neighbors(7) == {2, 6}

    def test_second_worked_example(self):
        g = gamma("453475623267")
        assert g.positive == frozenset()
        assert g.neighbors(4) == {3, 5}
        assert g.neighbors(3) == {2, 4, 5, 6, 7}
        assert g.neighbors(2) == {3}

    def test_single_pointer(self):
        g = gamma("22")
        assert g.vertices == {2}
        assert g.edges == frozenset()
        assert g.sign(2) == "-"

    def test_matches_interleaving_oracle(self):
        rng = random.Random(21)
        for _ in range(150):
            u = sampling.random_legal_string(rng, gaps=False)
            g = overlap.overlap_graph(u)
            assert set(g.edges) == oracles.overlap_pairs(u)
            assert g.positive == pointers.positive_set(u)

    def test_string_graph_accessor_agreement(self):
        rng = random.Random(22)
        for _ in range(100):
            u = sampling.random_legal_string(rng, gaps=False)
            g = overlap.overlap_graph(u)
            for p in pointers.domain(u):
                assert g.neighbors(p) == oracles.overlap_set(u, p)

    def test_invariance_under_string_symmetries(self):
        rng = random.Random(23)
        for _ in range(100):
            u = sampling.random_legal_string(rng, gaps=False)
            g = overlap.overlap_graph(u)
            assert overlap.overlap_graph(pointers.reversal(u)) == g
            assert overlap.overlap_graph(pointers.complement(u)) == g
            for v in pointers.conjugates(u):
                assert overlap.overlap_graph(v) == g

    def test_neighbor_masks(self):
        g = gamma("72673456-3-245")
        assert g.neighbor_masks[:2] == (0, 0)
        assert len(g.neighbor_masks) == 8
        assert g.neighbor_masks[2] == (1 << 4) | (1 << 5) | (1 << 7)
        assert gamma("").neighbor_masks == (0,)

    def test_neighbor_masks_match_the_interleaving_oracle(self):
        # overlap_graph fills the masks in as it scans; a graph built from
        # the same fields derives them from the edges.  Masks are indexed by
        # slot, 2 + the vertex's rank, which is the magnitude on {2..kappa}.
        rng = random.Random(24)
        for _ in range(200):
            u = sampling.random_legal_string(rng, max_domain=8, gaps=True)
            g = overlap.overlap_graph(u)
            rebuilt = overlap.OverlapGraph(g.vertices, g.positive, g.edges)
            slot = {p: s for s, p in enumerate(sorted(g.vertices), 2)}
            want = [0] * (len(slot) + 2)
            for p, q in oracles.overlap_pairs(u):
                want[slot[p]] |= 1 << slot[q]
                want[slot[q]] |= 1 << slot[p]
            assert g.neighbor_masks == rebuilt.neighbor_masks == tuple(want)
            assert g == rebuilt and hash(g) == hash(rebuilt)
        # views computed on one graph only do not enter the comparison
        g.components(), g.edges
        fresh = overlap.OverlapGraph(g.vertices, g.positive, g.edges)
        assert "edges" in vars(g) and "edges" not in vars(fresh)
        assert g == fresh and hash(g) == hash(fresh)

    def test_one_edge_or_one_sign_apart_is_unequal(self):
        rng = random.Random(26)
        for _ in range(100):
            u = sampling.random_legal_string(rng, max_domain=6, gaps=True)
            g = overlap.overlap_graph(u)
            order = sorted(g.vertices)
            p = rng.choice(order)
            flipped = overlap.OverlapGraph(g.vertices, g.positive ^ {p}, g.edges)
            assert flipped != g and flipped.positive ^ g.positive == {p}
            if len(order) > 1:
                a, b = sorted(rng.sample(order, 2))
                toggled = overlap.OverlapGraph(g.vertices, g.positive, g.edges ^ {(a, b)})
                assert toggled != g and toggled.edges ^ g.edges == {(a, b)}

    def test_graphs_are_immutable(self):
        g = gamma("2323")
        with pytest.raises(AttributeError):
            g.neighbor_masks = (0,)
        with pytest.raises(AttributeError):
            del g.positive_mask

    def test_neighbor_errors(self):
        g = gamma("22")
        with pytest.raises(ValueError):
            g.neighbors(3)

    @pytest.mark.parametrize(
        "positive, edges, message",
        [
            ({2, 9}, [], "positive vertices must be vertices"),
            (set(), [(3, 3)], "self-loops are not allowed"),
            (set(), [(4, 2)], r"edge pairs must be stored \(min, max\)"),
            (set(), [(2, 9)], r"edge \(2, 9\) leaves the vertex set"),
        ],
        ids=["positive", "self-loop", "order", "endpoint"],
    )
    def test_constructor_names_each_malformed_input(self, positive, edges, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            overlap.OverlapGraph({2, 3, 4}, positive, edges)

    def test_components(self):
        g = gamma("22334455")
        assert g.components() == [frozenset({p}) for p in (2, 3, 4, 5)]
        assert len(gamma("24535423").components()) == 1


def _oracle_components(vertices, pairs):
    """Connected components by smallest vertex, by repeated edge scans."""
    comps = []
    left = set(vertices)
    while left:
        comp = {min(left)}
        grown = True
        while grown:
            grown = False
            for p, q in pairs:
                if (p in comp) != (q in comp):
                    comp |= {p, q}
                    grown = True
        comps.append(frozenset(comp))
        left -= comp
    return comps


def _with_isolated_pointer(rng, u):
    """(w, v, m): w is u with every magnitude >= m raised by one, and v is w
    with the pair m m inserted, so v's overlap graph is w's plus the
    isolated negative vertex m, in a slot that may lie among the others."""
    m = rng.randint(2, max(map(pointers.magnitude, u)) + 1)
    w = [x + (1 if x >= m else -1 if x <= -m else 0) for x in u]
    at = rng.randint(0, len(w))
    return tuple(w), tuple(w[:at] + [m, m] + w[at:]), m


class TestRepresentation:
    def test_every_construction_path_agrees_with_the_oracle(self):
        # overlap_graph, parse_overlap_json, the public constructor and
        # apply_graph_rule, on legal strings with and without domain gaps
        rng = random.Random(27)
        for _ in range(300):
            u = sampling.random_legal_string(rng, max_domain=7, gaps=True)
            w, v, m = _with_isolated_pointer(rng, u)
            pairs, positive = oracles.signed_overlap(w)
            vertices = pointers.domain(w)
            shuffled = sorted(pairs)
            rng.shuffle(shuffled)
            text = json.dumps({
                "vertices": [{"p": p, "sign": "+" if p in positive else "-"}
                             for p in rng.sample(sorted(vertices), len(vertices))],
                "edges": [list(pq) if rng.random() < 0.5 else list(pq)[::-1]
                          for pq in shuffled],
            })
            graphs = [
                overlap.overlap_graph(w),
                overlap.parse_overlap_json(text),
                overlap.OverlapGraph(vertices, positive, pairs),
                rewriting.apply_graph_rule(overlap.overlap_graph(v),
                                           rewriting.Rule("gnr", (m,))),
            ]
            for g in graphs:
                assert g.vertices == vertices
                assert g.positive == positive
                assert g.edges == pairs
                walked = [(p, q) for p, above in g.neighbors_above() for q in above]
                assert walked == sorted(pairs)
                assert g.components() == _oracle_components(vertices, pairs)
                for p in vertices:
                    assert g.neighbors(p) == {q for pq in pairs if p in pq for q in pq} - {p}
                assert g == graphs[0] and hash(g) == hash(graphs[0])


class TestMemory:
    def test_sparse_magnitudes_cost_no_memory(self):
        # masks are indexed by rank, so a magnitude of 10**7 costs no 10**7-bit int
        u = (10**7, 10**7)
        text = '{"vertices":[{"p":10000000,"sign":"-"}],"edges":[]}'
        for build, arg in ((overlap.overlap_graph, u), (overlap.parse_overlap_json, text)):
            tracemalloc.start()
            try:
                g = build(arg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
            assert g.vertices == {10**7} and overlap.emit_overlap_json(g) == text


class TestJson:
    def test_golden_emit(self):
        assert overlap.emit_overlap_json(gamma("24535423")) == STAR_JSON

    def test_empty(self):
        g = overlap.OverlapGraph(frozenset(), frozenset(), frozenset())
        assert overlap.emit_overlap_json(g) == '{"vertices":[],"edges":[]}'
        assert overlap.parse_overlap_json('{"vertices":[],"edges":[]}') == g

    def test_round_trip_identity(self):
        rng = random.Random(24)
        for _ in range(100):
            g = overlap.overlap_graph(sampling.random_legal_string(rng, gaps=False))
            text = overlap.emit_overlap_json(g)
            assert overlap.parse_overlap_json(text) == g
            assert overlap.emit_overlap_json(overlap.parse_overlap_json(text)) == text

    @pytest.mark.parametrize(
        "bad",
        [
            "not json",
            '{"vertices":[]}',
            '{"vertices":[{"p":2,"sign":"-"},{"p":2,"sign":"-"}],"edges":[]}',
            '{"vertices":[{"p":2,"sign":"-"}],"edges":[[2,3]]}',
            '{"vertices":[{"p":2,"sign":"x"}],"edges":[]}',
            '{"vertices":[{"p":1,"sign":"-"}],"edges":[]}',
            '{"vertices":[{"p":2,"sign":"-"}],"edges":[[2,2]]}',
            '{"vertices":[],"edges":{}}',
            '{"vertices":{},"edges":[]}',
            '{"vertices":"22","edges":[]}',
            '{"vertices":[],"edges":7}',
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            overlap.parse_overlap_json(bad)

    @pytest.mark.parametrize(
        "vertices, edges, message",
        [
            ('[{"p":2}]', "[]", "malformed vertex entry {'p': 2}"),
            ('[[2,"+"]]', "[]", "malformed vertex entry [2, '+']"),
            ('[{"p":true,"sign":"+"}]', "[]",
             "vertex magnitude must be an integer >= 2, got True"),
            ('[{"p":2.0,"sign":"+"}]', "[]",
             "vertex magnitude must be an integer >= 2, got 2.0"),
            ('[{"p":2,"sign":"+"},{"p":2,"sign":"-"}]', "[]", "duplicate vertex 2"),
            ('[{"p":2,"sign":["+"]}]', "[]", "vertex sign must be '+' or '-', got ['+']"),
            ("[]", "[[2]]", "malformed edge [2]"),
            ("[]", "[[2,3,4]]", "malformed edge [2, 3, 4]"),
            ('[{"p":2,"sign":"+"},{"p":3,"sign":"+"}]', "[[2.0,3]]", "malformed edge [2.0, 3]"),
            ('[{"p":2,"sign":"+"}]', "[[[2],2]]", "malformed edge [[2], 2]"),
            ('[{"p":2,"sign":"+"}]', "[[2,2]]", "self-loop on 2"),
            ("[]", "[[9,9]]", "self-loop on 9"),
            ("[]", "[[true,1]]", "self-loop on True"),
            ('[{"p":2,"sign":"+"}]', "[[true,2]]", "edge (True, 2) references a missing vertex"),
            ('[{"p":2,"sign":"+"}]', "[[3,2]]", "edge (3, 2) references a missing vertex"),
        ],
    )
    def test_parse_error_messages(self, vertices, edges, message):
        text = f'{{"vertices":{vertices},"edges":{edges}}}'
        with pytest.raises(ParseError) as info:
            overlap.parse_overlap_json(text)
        assert str(info.value) == message

    def test_parse_error_messages_on_the_payload(self):
        for text, message in (
            ("[]", "overlap graph JSON needs exactly 'vertices' and 'edges'"),
            ('{"vertices":[],"edges":[],"x":1}',
             "overlap graph JSON needs exactly 'vertices' and 'edges'"),
            ('{"vertices":{},"edges":7}', "overlap graph JSON 'vertices' must be a list, got dict"),
            ('{"vertices":[],"edges":7}', "overlap graph JSON 'edges' must be a list, got int"),
        ):
            with pytest.raises(ParseError) as info:
                overlap.parse_overlap_json(text)
            assert str(info.value) == message
        with pytest.raises(ParseError, match="^invalid JSON: "):
            overlap.parse_overlap_json("not json")
        # an edge may name its ends in either order
        g = overlap.parse_overlap_json(
            '{"vertices":[{"p":2,"sign":"+"},{"p":3,"sign":"-"}],"edges":[[3,2]]}')
        assert g.edges == {(2, 3)} and g.positive == {2}


class TestRealismOracle:
    def test_star_graph_is_not_realistic(self):
        assert overlap.is_realistic_overlap(gamma("24535423")) is None

    def test_single_negative_vertex(self):
        g = gamma("22")
        arr = overlap.is_realistic_overlap(g)
        assert arr == (1, 2)

    def test_witness_reencodes_to_the_same_graph(self):
        g = gamma("72673456-3-245")
        arr = overlap.is_realistic_overlap(g)
        assert arr is not None
        assert overlap.overlap_graph(pointers.encode_arrangement(arr)) == g

    def test_encoded_graphs_are_recognized(self):
        rng = random.Random(25)
        for _ in range(25):
            g = overlap.overlap_graph(sampling.random_realistic_string(rng, rng.randint(2, 6)))
            witness = overlap.is_realistic_overlap(g)
            assert witness is not None
            assert overlap.overlap_graph(pointers.encode_arrangement(witness)) == g

    @settings(max_examples=200, deadline=None)
    @given(strategies.arrangements(max_kappa=12), st.data())
    def test_witnesses_are_sound_one_toggle_from_an_encoded_graph(self, arr, data):
        g = overlap.overlap_graph(pointers.encode_arrangement(arr))
        witness = overlap.is_realistic_overlap(g)
        assert witness is not None
        assert overlap.overlap_graph(pointers.encode_arrangement(witness)) == g
        # a toggle: p == q flips the sign of p, p < q the edge p-q
        p, q = sorted(data.draw(st.lists(st.sampled_from(g.vertex_order), min_size=2,
                                         max_size=2)))
        if p == q:
            toggled = overlap.OverlapGraph(g.vertices, g.positive ^ {p}, g.edges)
        else:
            toggled = overlap.OverlapGraph(g.vertices, g.positive, g.edges ^ {(p, q)})
        witness = overlap.is_realistic_overlap(toggled)
        if witness is not None:
            assert overlap.overlap_graph(pointers.encode_arrangement(witness)) == toggled

    def test_gapped_domain_rejected(self):
        g = gamma("2244")
        assert overlap.is_realistic_overlap(g) is None
        assert overlap.is_realistic_overlap(
            overlap.OverlapGraph(frozenset(), frozenset(), frozenset())
        ) is None

    def test_large_kappa_is_decided(self, monkeypatch):
        # no cap on kappa, and no environment variable sets one
        monkeypatch.setenv("GENEASM_MAX_KAPPA", "4")
        rng = random.Random(2048)
        for kappa in (13, 100, 2048):
            g = overlap.overlap_graph(sampling.random_realistic_string(rng, kappa))
            witness = overlap.require_realistic(g)
            assert abs(witness[0]) == 1
            assert overlap.overlap_graph(pointers.encode_arrangement(witness)) == g

    @pytest.mark.parametrize("kappa", [12, 16])
    def test_structured_worst_cases_are_decided(self, kappa):
        # the pruned search's slowest shapes: about 2 s each at kappa 16
        domain = frozenset(range(2, kappa + 1))
        complete = overlap.OverlapGraph(domain, domain, frozenset(
            (p, q) for p in domain for q in domain if p < q))
        star = overlap.OverlapGraph(domain, frozenset(), frozenset(
            (2, q) for q in range(3, kappa + 1)))
        for g in (complete, star):
            assert overlap.is_realistic_overlap(g) is None
            with pytest.raises(RealismError, match="^overlap graph is not realistic$"):
                overlap.require_realistic(g)
            if kappa <= 12:
                assert oracles.search_witness(g.neighbor_masks, g.positive_mask, kappa) is None


class TestKappa:
    """``kappa()`` is the {2..kappa} check; any other vertex set raises ``RealismError``."""

    @pytest.mark.parametrize("text, kappa", [("22", 2), ("2-2", 2), ("2332", 3),
                                             ("453475623267", 7)])
    def test_contiguous(self, text, kappa):
        g = gamma(text)
        assert g.contiguous_domain()
        assert g.kappa() == kappa

    @pytest.mark.parametrize("vertices", [(), (3,), (2, 4), (3, 4, 5), (2, 3, 5), (2, 10**6)])
    def test_empty_and_gapped(self, vertices):
        g = overlap.OverlapGraph(vertices, (), ())
        assert not g.contiguous_domain()
        with pytest.raises(RealismError, match="^overlap graph is not realistic: "):
            g.kappa()

    def test_matches_the_vertex_set(self):
        rng = random.Random(31)
        for _ in range(200):
            vertices = rng.sample(range(2, 12), rng.randint(0, 6))
            g = overlap.OverlapGraph(vertices, (), ())
            contiguous = sorted(vertices) == list(range(2, len(vertices) + 2)) and vertices
            assert g.contiguous_domain() == bool(contiguous)
            if contiguous:
                assert g.kappa() == len(vertices) + 1


class TestNullity:
    """``nullity()``: the GF(2) nullity of the adjacency matrix with a 1 at each positive vertex."""

    @pytest.mark.parametrize("text, nullity", [("", 0), ("22", 1), ("2-2", 0), ("2233", 2),
                                               ("2323", 0), ("453475623267", 2),
                                               ("72673456-3-245", 1)])
    def test_worked_examples(self, text, nullity):
        assert gamma(text).nullity() == nullity

    def test_matches_the_kernel_count(self):
        rng = random.Random(41)
        graphs = [overlap.OverlapGraph(range(2, kappa + 1), positive, edges)
                  for kappa in range(2, 5) for edges, positive in oracles.signed_graphs(kappa)]
        for _ in range(150):
            vertices = rng.sample(range(2, 40), rng.randint(0, 9))
            graphs.append(overlap.OverlapGraph(
                vertices, {v for v in vertices if rng.random() < 0.5},
                {pq for pq in combinations(sorted(vertices), 2) if rng.random() < 0.4}))
        for g in graphs:
            assert g.nullity() == oracles.gf2_nullity(g)

    def test_not_computed_when_the_graph_is_built(self):
        g = gamma("453475623267")
        assert set(vars(g)) == {"vertex_order", "vertex_mask", "positive_mask", "neighbor_masks"}
        assert g.nullity() == 2
        assert set(vars(g)) == {"vertex_order", "vertex_mask", "positive_mask", "neighbor_masks"}

    @settings(max_examples=300, deadline=None)
    @given(strategies.legal_strings())
    def test_is_the_reduction_graph_component_count_minus_one(self, u):
        # every non-empty legal string, realistic or not, gaps in its domain included;
        # the empty string's reduction graph has no vertices and no component
        assume(u)
        assert overlap.overlap_graph(u).nullity() + 1 == (
            reduction.ReductionGraph(u).component_count()
        )

    @settings(max_examples=200, deadline=None)
    @given(strategies.arrangements(max_kappa=12))
    def test_is_the_direct_component_count_minus_one(self, arr):
        from geneasm import direct

        g = overlap.overlap_graph(pointers.encode_arrangement(arr))
        assert g.nullity() + 1 == direct.direct_reduction_graph(g).component_count()
