"""Hypothesis strategies shared by the test modules."""

from itertools import combinations

from hypothesis import strategies as st

from geneasm import overlap, pointers


@st.composite
def legal_strings(draw, max_domain=12):
    """Legal strings: each magnitude twice, barred at random, in random order.

    Domains are {2..kappa} or drawn with gaps, and may hold 10**6.
    """
    contiguous = st.integers(0, max_domain).map(lambda size: list(range(2, size + 2)))
    gapped = st.lists(st.integers(2, 40) | st.just(10**6), max_size=max_domain, unique=True)
    mags = draw(contiguous | gapped)
    order = draw(st.permutations([m for m in mags for _ in range(2)]))
    barred = draw(st.lists(st.booleans(), min_size=len(order), max_size=len(order)))
    return tuple(-m if bar else m for m, bar in zip(order, barred))


def signed_sequences(max_size=10):
    """Any sequence of pointers over a few magnitudes, so a magnitude occurs 0 to 4+ times."""
    return st.lists(st.sampled_from((2, 3, 4, 5, -2, -3, -4, -5)), max_size=max_size).map(tuple)


@st.composite
def arrangements(draw, min_kappa=2, max_kappa=8):
    """Micronuclear arrangements: the segments 1..kappa in any order, each inverted at random."""
    kappa = draw(st.integers(min_kappa, max_kappa))
    order = draw(st.permutations(range(1, kappa + 1)))
    inverted = draw(st.lists(st.booleans(), min_size=kappa, max_size=kappa))
    return tuple(-k if inv else k for k, inv in zip(order, inverted))


@st.composite
def graphs_on_domain(draw, max_kappa=14):
    """Signed graphs on {2..kappa}: half encode an arrangement, half are random."""
    kappa = draw(st.integers(2, max_kappa))
    if draw(st.booleans()):
        arr = draw(arrangements(kappa, kappa))
        return overlap.overlap_graph(pointers.encode_arrangement(arr))
    vertices = range(2, kappa + 1)
    pairs = list(combinations(vertices, 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return overlap.OverlapGraph(
        vertices=frozenset(vertices),
        positive=frozenset(draw(st.sets(st.sampled_from(vertices)))),
        edges=frozenset(pq for pq, keep in zip(pairs, chosen) if keep),
    )
