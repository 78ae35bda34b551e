"""Canonical forms and isomorphism checks for the graphs this package produces.

Every graph in play has maximum degree two (labelled graphs from the
compression and the direct construction) or is a disjoint union of even
cycles alternating between two edge colours (reduction graphs).  In both
classes isomorphism reduces to normalizing each component's label
sequence under rotation and reflection, so a canonical form is a sorted
multiset of per-component codes rendered as a stable ASCII string.

A factorial-search oracle over label-respecting bijections is kept
alongside as ground truth for small instances.
"""

from __future__ import annotations

from itertools import permutations

from .compress import LabelledGraph
from .errors import CapError


def _min_rotation(seq: tuple) -> tuple:
    return min(tuple(seq[r:] + seq[:r]) for r in range(len(seq)))


def _component_code(g: LabelledGraph, comp: list) -> tuple:
    degs = {v: g.degree(v) for v in comp}
    if any(d > 2 for d in degs.values()):
        raise ValueError("canonical forms support maximum degree 2 only")
    if len(comp) == 1:
        return ("v", (g.labels[comp[0]],))
    ends = sorted((v for v in comp if degs[v] == 1), key=lambda v: str(v))
    if ends:
        # path: walk from either end, keep the lexicographically smaller reading
        readings = []
        for start in ends:
            seq = [start]
            prev = None
            cur = start
            while True:
                nxt = [w for w in g.neighbors(cur) if w != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                seq.append(cur)
            readings.append(tuple(g.labels[v] for v in seq))
        return ("p", min(readings))
    # cycle: canonical rotation of both traversal directions
    start = comp[0]
    order = [start]
    prev = None
    cur = start
    while True:
        nxt = [w for w in g.neighbors(cur) if w != prev]
        step = nxt[0] if prev is not None else min(nxt, key=lambda v: str(v))
        if step == start:
            break
        prev, cur = cur, step
        order.append(cur)
    labels = tuple(g.labels[v] for v in order)
    rev = tuple(reversed(labels))
    return ("c", min(_min_rotation(labels), _min_rotation(rev)))


def canonical_labelled(g: LabelledGraph) -> str:
    """Canonical code; equal codes iff isomorphic, for max-degree-2 graphs."""
    codes = []
    for comp in g.components():
        codes.append(_component_code(g, sorted(comp, key=lambda v: str(v))))
    parts = []
    for kind, labels in sorted(codes):
        parts.append(kind + "[" + ",".join(str(x) for x in labels) + "]")
    return "|".join(parts)


def _alternating_cycles(g) -> list[list]:
    """Components of a 2-edge-coloured graph with one edge of each colour per vertex."""
    desire_of = {}
    reality_of = {}
    for e in g.desire_edges:
        for v in e:
            if v in desire_of:
                raise ValueError("vertices must lie on exactly one desire edge")
            desire_of[v] = e
    for e in g.reality_edges:
        for v in e:
            if v in reality_of:
                raise ValueError("vertices must lie on exactly one reality edge")
            reality_of[v] = e
    vertices = list(g.vertices)
    if set(desire_of) != set(vertices) or set(reality_of) != set(vertices):
        raise ValueError("every vertex needs one reality and one desire edge")
    seen = set()
    cycles = []
    for start in sorted(vertices):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        use_desire = True
        cur = start
        while True:
            e = desire_of[cur] if use_desire else reality_of[cur]
            (nxt,) = set(e) - {cur}
            use_desire = not use_desire
            if nxt == start and use_desire:
                break
            cycle.append(nxt)
            seen.add(nxt)
            cur = nxt
        cycles.append(cycle)
    return cycles


def canonical_2edge(g) -> str:
    """Canonical code for alternating-cycle 2-edge-coloured graphs.

    Components are traversed desire edge first; the code is the minimum
    over all desire-first traversals, so codes match exactly for
    colour-preserving isomorphisms.
    """
    codes = []
    for cycle in _alternating_cycles(g):
        labels = tuple(g.label(v) for v in cycle)
        m = len(labels)
        best = None
        # desire edges sit at index pairs (0,1), (2,3), ...; rotations by even
        # offsets and plain reversal preserve that phase, odd offsets do not
        for r in range(0, m, 2):
            cand = labels[r:] + labels[:r]
            if best is None or cand < best:
                best = cand
        rev = tuple(reversed(labels))
        for r in range(0, m, 2):
            cand = rev[r:] + rev[:r]
            if cand < best:
                best = cand
        codes.append(best)
    parts = []
    for labels in sorted(codes):
        parts.append("C[" + ",".join(str(x) for x in labels) + "]")
    return "|".join(parts)


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
