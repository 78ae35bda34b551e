"""The realism reconstruction against the full scan, the pruned search and its first
version (tests/oracles.py)."""

import random
from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from geneasm import kernels, overlap, pointers, sampling


def _adjacency_inputs(g):
    kappa = len(g.vertices) + 1
    adjacency = {p: 0 for p in range(2, kappa + 1)}
    for p, q in g.edges:
        adjacency[p] |= 1 << q
        adjacency[q] |= 1 << p
    positive_mask = 0
    for p in g.positive:
        positive_mask |= 1 << p
    return adjacency, positive_mask, kappa


def _scan(edges, positive, kappa):
    g = overlap.OverlapGraph(frozenset(range(2, kappa + 1)), positive, edges)
    return kernels.scan_for_arrangement(*_adjacency_inputs(g))


def _toggles(edges, positive, kappa):
    """Every graph one edge or one vertex sign away."""
    for p in range(2, kappa + 1):
        yield edges, positive ^ {p}
        for q in range(p + 1, kappa + 1):
            yield edges ^ {(p, q)}, positive


def _assert_matches_full_scan(edges, positive, kappa):
    want = oracles.realism_witness(edges, positive, kappa)
    assert _scan(edges, positive, kappa) == want, (sorted(edges), sorted(positive))
    return want


def test_every_graph_up_to_kappa_5_matches_full_scan():
    for kappa in range(2, 6):
        realistic = 0
        for edges, positive in oracles.signed_graphs(kappa):
            realistic += _assert_matches_full_scan(edges, positive, kappa) is not None
        assert realistic == len(oracles.first_witnesses(kappa))


def test_realistic_graphs_number_factorial_times_power_of_two():
    # two witnesses with segment 1 first per realistic graph, out of (kappa - 1)! * 2^kappa
    for kappa in range(2, 7):
        assert len(oracles.first_witnesses(kappa)) == factorial(kappa - 1) * 2 ** (kappa - 1)
    # every kappa-6 graph too, witness by witness: 128 of them pass the slot
    # permutation check and fail only the between-sets check
    realistic = sum(_assert_matches_full_scan(edges, positive, 6) is not None
                    for edges, positive in oracles.signed_graphs(6))
    assert realistic == factorial(5) * 2 ** 5


def test_seeded_kappa_6_graphs_and_toggles_match_full_scan():
    rng = random.Random(6)
    realistic = sorted(oracles.first_witnesses(6), key=lambda key: (sorted(key[0]), sorted(key[1])))
    found = 0
    for edges, positive in rng.sample(realistic, 40):
        assert _assert_matches_full_scan(edges, positive, 6) is not None
        for toggled in _toggles(edges, positive, 6):
            found += _assert_matches_full_scan(*toggled, 6) is not None
    # toggles reach both realistic and non-realistic graphs
    assert 0 < found < 40 * 15


def test_seeded_kappa_7_to_12_graphs_and_toggles_match_the_search():
    rng = random.Random(712)
    found = 0
    for kappa in range(7, 13):
        for _ in range(4):
            g = overlap.overlap_graph(sampling.random_realistic_string(rng, kappa))
            p, q = rng.sample(range(2, kappa + 1), 2)
            for edges, positive in ((g.edges, g.positive),
                                    (g.edges ^ {(min(p, q), max(p, q))}, g.positive),
                                    (g.edges, g.positive ^ {p})):
                inputs = _adjacency_inputs(
                    overlap.OverlapGraph(frozenset(range(2, kappa + 1)), positive, edges))
                want = oracles.search_witness(*inputs)
                assert kernels.scan_for_arrangement(*inputs) == want, (edges, positive)
                found += want is not None
    # the toggles reach non-realistic graphs
    assert 24 <= found < 72


def test_both_mirror_witnesses_encode_to_the_graph():
    rng = random.Random(40)
    for kappa in list(range(2, 13)) + [20, 40]:
        g = overlap.overlap_graph(sampling.random_realistic_string(rng, kappa))
        witness = _scan(g.edges, g.positive, kappa)
        twin = (-witness[0],) + tuple(-k for k in reversed(witness[1:]))
        assert abs(witness[0]) == 1 and witness != twin
        for arr in (witness, twin):
            assert overlap.overlap_graph(pointers.encode_arrangement(arr)) == g


def test_scan_order_is_deterministic():
    g = overlap.overlap_graph((2, 2))
    adjacency, positive_mask, kappa = _adjacency_inputs(g)
    first = kernels.scan_for_arrangement(adjacency, positive_mask, kappa)
    assert first == (1, 2)  # identity permutation, nothing inverted


def test_witnesses_reencode_up_to_kappa_12():
    rng = random.Random(12)
    for kappa in range(7, 13):
        for _ in range(3):
            g = overlap.overlap_graph(sampling.random_realistic_string(rng, kappa))
            witness = _scan(g.edges, g.positive, kappa)
            assert witness is not None and abs(witness[0]) == 1  # segment 1 leads
            assert overlap.overlap_graph(pointers.encode_arrangement(witness)) == g


def _assert_matches_first_reconstruction(g):
    inputs = (g.neighbor_masks, g.positive_mask, len(g.vertex_order) + 1)
    assert kernels.scan_for_arrangement(*inputs) == oracles.reconstruction_witness(*inputs), g


@settings(max_examples=300, deadline=None)
@given(strategies.arrangements(max_kappa=12), st.data())
def test_one_toggle_from_an_encoded_graph_matches_the_first_reconstruction(arr, data):
    g = overlap.overlap_graph(pointers.encode_arrangement(arr))
    _assert_matches_first_reconstruction(g)
    # a toggle: p == q flips the sign of p, p < q the edge p-q
    p, q = sorted(data.draw(st.lists(st.sampled_from(range(2, len(arr) + 1)), min_size=2,
                                     max_size=2)))
    if p == q:
        toggled = overlap.OverlapGraph(g.vertices, g.positive ^ {p}, g.edges)
    else:
        toggled = overlap.OverlapGraph(g.vertices, g.positive, g.edges ^ {(p, q)})
    _assert_matches_first_reconstruction(toggled)


@settings(max_examples=300, deadline=None)
@given(strategies.signed_graphs(max_kappa=9))
def test_random_signed_graphs_match_the_first_reconstruction(g):
    _assert_matches_first_reconstruction(g)


def test_backend_name_is_constant():
    assert kernels.backend_name() == "python"
