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
reading, so no code depends on where its walk started.

A factorial-search oracle over label-respecting bijections is kept
alongside as ground truth for small instances.
"""

from __future__ import annotations

from itertools import permutations

from .compress import LabelledGraph, alternating_cycles
from .errors import CapError


def _least_rotation(seq: tuple, step: int) -> tuple:
    """Least of the rotations of seq by a multiple of step."""
    return min(seq[r:] + seq[:r] for r in range(0, len(seq), step))


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


def _label_classes(labels1: dict, labels2: dict):
    by_label1: dict = {}
    by_label2: dict = {}
    for v, lab in labels1.items():
        by_label1.setdefault(lab, []).append(v)
    for v, lab in labels2.items():
        by_label2.setdefault(lab, []).append(v)
    if set(by_label1) != set(by_label2):
        return None
    for lab in by_label1:
        if len(by_label1[lab]) != len(by_label2[lab]):
            return None
    return by_label1, by_label2


def _bijections(by_label1, by_label2):
    labs = sorted(by_label1, key=str)
    groups1 = [sorted(by_label1[lab], key=str) for lab in labs]
    groups2 = [sorted(by_label2[lab], key=str) for lab in labs]

    def recurse(idx, mapping):
        if idx == len(labs):
            yield dict(mapping)
            return
        g1, g2 = groups1[idx], groups2[idx]
        for perm in permutations(g2):
            mapping.update(zip(g1, perm))
            yield from recurse(idx + 1, mapping)
        for v in g1:
            mapping.pop(v, None)

    yield from recurse(0, {})


MAX_BRUTE_FORCE_VERTICES = 10


def brute_force_isomorphic(g1: LabelledGraph, g2: LabelledGraph) -> bool:
    """Exhaustive label-respecting bijection search (ground-truth oracle)."""
    if len(g1.labels) > MAX_BRUTE_FORCE_VERTICES or len(g2.labels) > MAX_BRUTE_FORCE_VERTICES:
        raise CapError(f"brute force is capped at {MAX_BRUTE_FORCE_VERTICES} vertices")
    if len(g1.labels) != len(g2.labels) or len(g1.edges) != len(g2.edges):
        return False
    classes = _label_classes(g1.labels, g2.labels)
    if classes is None:
        return False
    for mapping in _bijections(*classes):
        image = {frozenset(mapping[v] for v in e) for e in g1.edges}
        if image == set(g2.edges):
            return True
    return False


def brute_force_isomorphic_2edge(g1, g2) -> bool:
    """Colour-preserving variant of the bijection search."""
    labels1 = {v: g1.label(v) for v in g1.vertices}
    labels2 = {v: g2.label(v) for v in g2.vertices}
    if len(labels1) > MAX_BRUTE_FORCE_VERTICES or len(labels2) > MAX_BRUTE_FORCE_VERTICES:
        raise CapError(f"brute force is capped at {MAX_BRUTE_FORCE_VERTICES} vertices")
    if len(labels1) != len(labels2):
        return False
    classes = _label_classes(labels1, labels2)
    if classes is None:
        return False
    reality2 = {frozenset(e) for e in g2.reality_edges}
    desire2 = {frozenset(e) for e in g2.desire_edges}
    for mapping in _bijections(*classes):
        reality_image = {frozenset(mapping[v] for v in e) for e in g1.reality_edges}
        if reality_image != reality2:
            continue
        desire_image = {frozenset(mapping[v] for v in e) for e in g1.desire_edges}
        if desire_image == desire2:
            return True
    return False
