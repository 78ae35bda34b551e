"""The realism search against the full scan it replaced (tests/oracles.py)."""

import random

import oracles
from geneasm import kernels, overlap, pointers


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


def test_scan_order_is_deterministic():
    g = overlap.overlap_graph((2, 2))
    adjacency, positive_mask, kappa = _adjacency_inputs(g)
    first = kernels.scan_for_arrangement(adjacency, positive_mask, kappa)
    assert first == (1, 2)  # identity permutation, nothing inverted


def test_witnesses_reencode_up_to_kappa_12():
    rng = random.Random(12)
    for kappa in range(7, 13):
        for _ in range(3):
            entries = list(range(1, kappa + 1))
            rng.shuffle(entries)
            arr = tuple(-k if rng.random() < 0.5 else k for k in entries)
            g = overlap.overlap_graph(pointers.encode_arrangement(arr))
            witness = _scan(g.edges, g.positive, kappa)
            assert witness is not None and abs(witness[0]) == 1  # segment 1 leads
            assert overlap.overlap_graph(pointers.encode_arrangement(witness)) == g


def test_backend_name_is_constant():
    assert kernels.backend_name() == "python"
