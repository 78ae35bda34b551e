"""Canonical forms and isomorphism checks for the graphs this package produces.

Every graph in play has maximum degree two (labelled graphs from the
compression and the direct construction) or is a disjoint union of even
cycles alternating between two edge colours (reduction graphs).  In both
classes isomorphism reduces to normalizing each component's label
sequence under rotation and reflection, so a canonical form is a sorted
multiset of per-component codes rendered as a stable ASCII string.

Both codes come from one walk per component and one least rotation.
``canonical_labelled`` walks paths and isolated vertices from an end and
cycles from any vertex; ``canonical_2edge`` walks each alternating cycle
desire edge first (``compress.alternating_cycles``).  A path's code is the
smaller of its two readings, a cycle's the least rotation of either
reading, so no code depends on where its walk started.  The least
rotation comes from a linear two-candidate scan, so a code costs O(L)
for a component of L vertices.
"""

from __future__ import annotations

from .compress import LabelledGraph, alternating_cycles


def _least_rotation(seq: tuple, step: int) -> tuple:
    """Least of the rotations of seq by a multiple of step, 1 or 2 (len(seq) a multiple of it).

    Works on the sequence of n step-long blocks with two candidate starts
    i != j and the length k of their common prefix.  At the first mismatch
    the larger side's start s loses, and so do s+1..s+k: each rotation
    there is beaten by the one the same distance past the other start.  So
    the loser jumps past them, and a mismatch after k equal blocks moves a
    start by k + 1: the scan is linear in n.  It ends when a start passes
    n, leaving the other as the least, or when k reaches n, where both
    starts give the same (least) rotation.
    """
    blocks = seq if step == 1 else tuple(zip(seq[::2], seq[1::2]))
    n = len(blocks)
    doubled = blocks + blocks
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    r = min(i, j) * step
    return seq[r:] + seq[:r]


def _walk(adjacency: dict, start, seen: set) -> list:
    """start's component in walk order, each vertex marked seen when reached.

    From an end this reads a whole path; from a cycle vertex, the cycle.
    """
    order = []
    fresh = [start]
    while fresh:
        v = fresh[0]
        seen.add(v)
        order.append(v)
        fresh = [w for w in adjacency[v] if w not in seen]
    return order


def _code(kind: str, labels: tuple) -> str:
    return kind + "[" + ",".join(str(x) for x in labels) + "]"


def canonical_labelled(g: LabelledGraph) -> str:
    """Canonical code; equal codes iff isomorphic, for max-degree-2 graphs.

    Walks start at the vertices of degree below 2 first, so every path is
    read from an end and what is left to walk is cycles.
    """
    adjacency = g.adjacency
    if any(len(ws) > 2 for ws in adjacency.values()):
        raise ValueError("canonical forms support maximum degree 2 only")
    seen: set = set()
    codes = []
    ends = [v for v, ws in adjacency.items() if len(ws) < 2]
    for start in ends + list(adjacency):
        if start in seen:
            continue
        labels = tuple(g.labels[v] for v in _walk(adjacency, start, seen))
        degree = len(adjacency[start])
        if degree == 2:
            codes.append(("c", min(_least_rotation(labels, 1), _least_rotation(labels[::-1], 1))))
        else:
            codes.append(("p" if degree else "v", min(labels, labels[::-1])))
    return "|".join(_code(kind, labels) for kind, labels in sorted(codes))


def canonical_2edge(g) -> str:
    """Canonical code for alternating-cycle 2-edge-coloured graphs.

    Components are traversed desire edge first; the code is the minimum
    over all desire-first traversals, so codes match exactly for
    colour-preserving isomorphisms.
    """
    codes = []
    for cycle in alternating_cycles(g):
        labels = tuple(g.label(v) for v in cycle)
        # desire edges sit at index pairs (0,1), (2,3), ...; rotations by even
        # offsets and plain reversal preserve that phase, odd offsets do not
        codes.append(min(_least_rotation(labels, 2), _least_rotation(labels[::-1], 2)))
    return "|".join(_code("C", labels) for labels in sorted(codes))
