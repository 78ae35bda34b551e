"""Labelled graphs of maximum degree 2, and the compression that turns desire edges into vertices.

Every labelled graph this package builds (``cps``, the direct
construction, parsed direct-graph JSON) has maximum degree two, so a
``LabelledGraph`` holds two partner arrays over vertex indices, not a
neighbour set per vertex.
"""

from __future__ import annotations

from functools import cached_property

from .record import Record


class LabelledGraph(Record):
    """Simple labelled graph of maximum degree 2; vertex ids are arbitrary hashable values.

    It holds ``labels`` (vertex id -> label; a vertex's index is its place
    here) and the partner arrays ``first`` and ``second`` of neighbour
    indices, -1 for none, a lone neighbour in ``first``.  ``edges``, the
    frozenset of frozenset({u, v}) id pairs, is derived on first use.
    Graphs compare by labels and edges and, holding dicts, are unhashable.
    """

    __hash__ = None

    def __init__(self, labels: dict, edges):
        """``edges``: any iterable of vertex pairs, each a two-element collection."""
        index = {v: i for i, v in enumerate(labels)}
        pairs = []
        for e in edges:
            if len(e) != 2 or len(set(e)) != 2:
                raise ValueError(f"edges must join two distinct vertices, got {set(e)!r}")
            for v in e:
                if v not in index:
                    raise ValueError(f"edge endpoint {v!r} is not a vertex")
            a, b = e
            pairs.append((index[a], index[b]))
        self._fill(labels, pairs)

    @classmethod
    def from_index_pairs(cls, labels: dict, pairs) -> LabelledGraph:
        """The graph joining each pair of distinct vertex indices; repeated pairs are skipped."""
        g = cls.__new__(cls)
        g._fill(labels, pairs)
        return g

    def _fill(self, labels, pairs):
        first = [-1] * len(labels)
        second = first.copy()
        for a, b in pairs:
            if first[a] == b or second[a] == b:
                continue
            for v, w in ((a, b), (b, a)):
                if first[v] < 0:
                    first[v] = w
                elif second[v] < 0:
                    second[v] = w
                else:
                    name = list(labels)[v]
                    raise ValueError(f"vertex {name!r} would get a third edge (maximum degree 2)")
        self.__dict__.update(labels=labels, first=first, second=second)

    def _fields(self) -> tuple:
        return self.labels, self.edges

    def __repr__(self) -> str:
        return f"LabelledGraph(labels={self.labels!r}, edges={self.edges!r})"

    @cached_property
    def edges(self) -> frozenset:
        ids = self._ids
        return frozenset(frozenset((ids[v], ids[w]))
                         for partners in (self.first, self.second)
                         for v, w in enumerate(partners) if v < w)

    @property
    def vertices(self):
        return self.labels.keys()

    @cached_property
    def _ids(self) -> tuple:
        return tuple(self.labels)

    @cached_property
    def _index(self) -> dict:
        return {v: i for i, v in enumerate(self._ids)}

    def neighbors(self, v) -> frozenset:
        i = self._index.get(v)
        if i is None:
            return frozenset()
        return frozenset(self._ids[w] for w in (self.first[i], self.second[i]) if w >= 0)

    def degree(self, v) -> int:
        return len(self.neighbors(v))

    def walks(self):
        """Each component as a list of vertex indices in walk order.

        Paths and isolated vertices come first, each walked from its end of
        lowest index; what is left is cycles, each walked from its vertex of
        lowest index towards its ``first`` partner.  A walk is a cycle
        exactly when its start has a ``second`` partner.
        """
        first, second = self.first, self.second
        seen = bytearray(len(first))
        ends = [v for v, w in enumerate(second) if w < 0]
        for start in ends + list(range(len(first))):
            if seen[start]:
                continue
            walk, v = [], start
            while v >= 0 and not seen[v]:
                seen[v] = 1
                walk.append(v)
                w = first[v]
                v = w if w >= 0 and not seen[w] else second[v]
            yield walk

    def component_count(self) -> int:
        return sum(1 for _ in self.walks())


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
    at = [0] * (2 * rg.n)  # the compressed vertex of each desire edge, at both ends
    labels = {}
    for a, b in rg.desire_pairs():
        at[a] = at[b] = len(labels)
        labels[vertex(a), vertex(b)] = rg.magnitudes[a >> 1]
    pairs = [(d1, d2) for d1, d2 in zip(at[1::2], at[2::2] + at[:1]) if d1 != d2]
    return LabelledGraph.from_index_pairs(labels, pairs)
