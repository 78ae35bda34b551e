"""Independent reference data for the realism workload.

Enumerates every arrangement of 1..kappa (kappa <= 6) in the order the
realism scan visits them -- permutations in lexicographic order, then
inversion masks in ascending order with bit t inverting the segment in
slot t -- and records the overlap graph of each encoded string.  The
graphs are computed here with prefix XORs, not with geneasm, so the table
can check geneasm's "not realistic" verdicts.

A graph key is ``(adjacency, positive)``: ``adjacency[p - 2]`` is the
bitmask of the vertices adjacent to p, ``positive`` the bitmask of the
positive vertices.
"""

from __future__ import annotations

import json
from itertools import permutations


def encode(arrangement) -> list[int]:
    """Pointer string of a signed arrangement of 1..kappa."""
    kappa = len(arrangement)
    out: list[int] = []
    for k in arrangement:
        m = abs(k)
        if m == 1:
            block = [2]
        elif m == kappa:
            block = [kappa]
        else:
            block = [m, m + 1]
        if k < 0:
            block = [-p for p in reversed(block)]
        out.extend(block)
    return out


def graph_key(string) -> tuple:
    """Key of the overlap graph of a legal string on pointers 2..kappa."""
    kappa = len(string) // 2 + 1
    occurrences: dict[int, list[int]] = {}
    prefix = [0]
    for i, p in enumerate(string):
        occurrences.setdefault(abs(p), []).append(i)
        prefix.append(prefix[-1] ^ (1 << abs(p)))
    adjacency = []
    positive = 0
    for p in range(2, kappa + 1):
        i, j = occurrences[p]
        adjacency.append(prefix[j] ^ prefix[i + 1])
        if (string[i] < 0) != (string[j] < 0):
            positive |= 1 << p
    return tuple(adjacency), positive


def key_of_graph(g) -> tuple:
    """Key of a geneasm OverlapGraph on vertices 2..kappa."""
    kappa = len(g.vertices) + 1
    adjacency = [0] * (kappa - 1)
    for p, q in g.edges:
        adjacency[p - 2] |= 1 << q
        adjacency[q - 2] |= 1 << p
    positive = 0
    for p in g.positive:
        positive |= 1 << p
    return tuple(adjacency), positive


def realistic_table(kappa: int) -> dict[tuple, tuple[int, tuple]]:
    """Every realistic graph at kappa -> (scan rank of its first witness, that witness)."""
    table: dict[tuple, tuple[int, tuple]] = {}
    rank = 0
    for perm in permutations(range(1, kappa + 1)):
        for inv in range(1 << kappa):
            arrangement = tuple(-k if (inv >> t) & 1 else k for t, k in enumerate(perm))
            key = graph_key(encode(arrangement))
            if key not in table:
                table[key] = (rank, arrangement)
            rank += 1
    return table


def toggles(key: tuple) -> list[tuple]:
    """Every graph one edge or one vertex sign away from key."""
    adjacency, positive = key
    kappa = len(adjacency) + 1
    out = []
    for p in range(2, kappa + 1):
        out.append((adjacency, positive ^ (1 << p)))
        for q in range(p + 1, kappa + 1):
            adj = list(adjacency)
            adj[p - 2] ^= 1 << q
            adj[q - 2] ^= 1 << p
            out.append((tuple(adj), positive))
    return out


def to_json(key: tuple) -> str:
    """Overlap-graph JSON in geneasm's wire format."""
    adjacency, positive = key
    kappa = len(adjacency) + 1
    vertices = [
        {"p": p, "sign": "+" if (positive >> p) & 1 else "-"} for p in range(2, kappa + 1)
    ]
    edges = [
        [p, q]
        for p in range(2, kappa + 1)
        for q in range(p + 1, kappa + 1)
        if (adjacency[p - 2] >> q) & 1
    ]
    return json.dumps({"vertices": vertices, "edges": edges}, separators=(",", ":"))
