"""Small input builders shared by the test modules."""

from geneasm import overlap, pointers


def gamma(text):
    """The overlap graph of a pointer string written as text."""
    return overlap.overlap_graph(pointers.parse_pointer_string(text))


def edge(a, b):
    """An undirected edge between two named vertices."""
    return frozenset({a, b})


def shuffled_string(rng, kappa):
    """A legal string over {2..kappa}, each letter barred at random, then shuffled.

    Unlike an encoded arrangement it is seldom realistic, and its overlap
    graph often is not.
    """
    u = [m if rng.random() < 0.5 else -m for m in range(2, kappa + 1) for _ in "ab"]
    rng.shuffle(u)
    return u
