"""Labelled graphs and the compression that turns desire edges into vertices."""

from __future__ import annotations

from functools import cached_property

from .record import Record


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
    is by smallest vertex for reduction graphs.
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


class LabelledGraph(Record):
    """Simple labelled graph; vertex ids are arbitrary hashable values.

    The graph holds ``labels`` and ``adjacency``, each vertex mapped to
    its neighbour frozenset in ``labels`` order.  ``edges``, the frozenset
    of frozenset({u, v}) pairs, is derived on first use.  Graphs compare
    by labels and adjacency and, holding dicts, are unhashable.
    """

    __hash__ = None

    def __init__(self, labels: dict, edges):
        """``edges``: any iterable of vertex pairs, each a two-element collection."""
        edges = tuple(edges)
        for e in edges:
            if len(e) != 2 or len(set(e)) != 2:
                raise ValueError(f"edges must join two distinct vertices, got {set(e)!r}")
            for v in e:
                if v not in labels:
                    raise ValueError(f"edge endpoint {v!r} is not a vertex")
        self._fill(labels, edges)

    @classmethod
    def _from_pairs(cls, labels: dict, pairs) -> LabelledGraph:
        """The graph with these edges, each a pair of distinct vertices of labels; unchecked."""
        g = cls.__new__(cls)
        g._fill(labels, pairs)
        return g

    def _fill(self, labels, pairs):
        table = {v: set() for v in labels}
        for a, b in pairs:
            table[a].add(b)
            table[b].add(a)
        self.__dict__.update(labels=labels,
                             adjacency={v: frozenset(ws) for v, ws in table.items()})

    def _fields(self) -> tuple:
        return self.labels, self.adjacency

    def __repr__(self) -> str:
        return f"LabelledGraph(labels={self.labels!r}, edges={self.edges!r})"

    @cached_property
    def edges(self) -> frozenset:
        return frozenset(frozenset((v, w)) for v, ws in self.adjacency.items() for w in ws)

    @property
    def vertices(self):
        return self.labels.keys()

    def neighbors(self, v) -> frozenset:
        return self.adjacency.get(v, frozenset())

    def degree(self, v) -> int:
        return len(self.neighbors(v))

    def components(self) -> list[frozenset]:
        return components(self.labels, self.adjacency.__getitem__)

    def component_count(self) -> int:
        return len(self.components())


def cps(rg) -> LabelledGraph:
    """The compression cps(R_u) of a reduction graph: one vertex per desire edge.

    Two compressed vertices are adjacent when a reality edge runs between
    their desire edges.  Vertex ids are the desire edges as sorted
    (i, side) endpoint pairs, labelled by magnitude, in ``rg.desire_edges``
    order.  The compression reads the graph's index arrays: reality edge k
    (odd) joins index k to k+1, mod 2n.  Compressing other 2-edge-coloured
    graphs is left to the tests' edge-set oracle.
    """
    from .reduction import ReductionGraph, vertex

    if not isinstance(rg, ReductionGraph):
        raise TypeError(f"cps compresses reduction graphs, got {type(rg).__name__}")
    ids = [None] * (2 * rg.n)  # one id object per desire edge, at both ends
    labels = {}
    for a, b in rg.desire_pairs():
        ids[a] = ids[b] = vid = (vertex(a), vertex(b))
        labels[vid] = rg.magnitudes[a >> 1]
    pairs = [(d1, d2) for d1, d2 in zip(ids[1::2], ids[2::2] + ids[:1]) if d1 is not d2]
    return LabelledGraph._from_pairs(labels, pairs)
