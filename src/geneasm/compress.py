"""Labelled graphs and the compression that turns desire edges into vertices."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property


def neighbor_table(vertices, edges) -> dict:
    """Each vertex mapped to the frozenset of vertices it shares an edge with."""
    table = {v: set() for v in vertices}
    for a, b in edges:
        table[a].add(b)
        table[b].add(a)
    return {v: frozenset(ws) for v, ws in table.items()}


def components(starts, neighbors) -> list[frozenset]:
    """Connected components, in the order their first vertex appears in starts.

    ``neighbors`` maps a vertex to an iterable of the vertices joined to it.
    """
    seen = set()
    comps = []
    for start in starts:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            for w in neighbors(stack.pop()):
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def _partners(edges, colour: str) -> dict:
    """Each endpoint mapped to the other end of its one edge of this colour."""
    other = {}
    for a, b in edges:
        if a in other or b in other:
            raise ValueError(f"vertices must lie on exactly one {colour} edge")
        other[a] = b
        other[b] = a
    return other


def alternating_cycles(graph) -> list[list]:
    """Components of a 2-edge-coloured graph with one edge of each colour per vertex.

    Each cycle starts at the first of its vertices in ``graph.vertices``
    and leaves it along its desire edge; cycles come in that order, which
    is by smallest vertex for reduction graphs and ``ColouredGraph``.
    """
    desire = _partners(graph.desire_edges, "desire")
    reality = _partners(graph.reality_edges, "reality")
    if desire.keys() != set(graph.vertices) or reality.keys() != desire.keys():
        raise ValueError("every vertex needs one reality and one desire edge")
    seen = set()
    cycles = []
    for start in graph.vertices:
        if start in seen:
            continue
        cycle = []
        v = start
        while not cycle or v != start:
            cycle += (v, desire[v])
            v = reality[cycle[-1]]
        seen.update(cycle)
        cycles.append(cycle)
    return cycles


@dataclass(frozen=True)
class LabelledGraph:
    """Simple labelled graph; vertex ids are arbitrary hashable values."""

    labels: dict
    edges: frozenset  # of frozenset({u, v})

    def __post_init__(self):
        for e in self.edges:
            if len(e) != 2:
                raise ValueError(f"edges must join two distinct vertices, got {set(e)!r}")
            for v in e:
                if v not in self.labels:
                    raise ValueError(f"edge endpoint {v!r} is not a vertex")

    @property
    def vertices(self):
        return self.labels.keys()

    @cached_property
    def adjacency(self) -> dict:
        """Each vertex mapped to its neighbour frozenset, in ``labels`` order.

        Built on first use; not a field, so not compared.
        """
        return neighbor_table(self.labels, self.edges)

    def neighbors(self, v) -> frozenset:
        return self.adjacency.get(v, frozenset())

    def degree(self, v) -> int:
        return len(self.neighbors(v))

    def components(self) -> list[frozenset]:
        return components(self.labels, self.adjacency.__getitem__)

    def component_count(self) -> int:
        return len(self.components())


@dataclass(frozen=True)
class ColouredGraph:
    """Generic 2-edge-coloured graph carrier with the reduction-graph interface."""

    _labels: dict
    reality_edges: tuple = field(default=())
    desire_edges: tuple = field(default=())

    @property
    def vertices(self):
        return tuple(sorted(self._labels))

    def label(self, v):
        return self._labels[v]


def swap_colours(g) -> ColouredGraph:
    """Exchange the two edge colours (for colour-sensitivity checks)."""
    return ColouredGraph(
        _labels={v: g.label(v) for v in g.vertices},
        reality_edges=tuple(g.desire_edges),
        desire_edges=tuple(g.reality_edges),
    )


def cps(graph) -> LabelledGraph:
    """Collapse each desire edge to a single vertex, keeping reality adjacency.

    Works on any 2-edge-coloured graph whose desire edges join equally
    labelled vertices; two collapsed vertices are adjacent when some
    reality edge runs between distinct desire edges.  Output vertex ids
    are the desire edges themselves, encoded as sorted endpoint pairs.
    """
    desire_of: dict = {}  # vertex -> ids of the desire edges through it
    labels = {}
    for e in graph.desire_edges:
        vid = tuple(sorted(e))
        lab = {graph.label(v) for v in vid}
        if len(lab) != 1:
            raise ValueError(f"desire edge {vid!r} joins differently labelled vertices")
        labels[vid] = lab.pop()
        for v in vid:
            desire_of.setdefault(v, []).append(vid)
    edges = set()
    for e in graph.reality_edges:
        v1, v2 = tuple(e)
        for d1 in desire_of.get(v1, ()):
            for d2 in desire_of.get(v2, ()):
                if d1 != d2:
                    edges.add(frozenset((d1, d2)))
    return LabelledGraph(labels=labels, edges=frozenset(edges))
