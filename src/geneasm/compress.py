"""Labelled graphs of maximum degree 2, and the compression that turns desire edges into vertices.

Every labelled graph this package builds (``cps``, the direct
construction, parsed direct-graph JSON) has maximum degree two, so a
``LabelledGraph`` is a tuple of labels by vertex index and two partner
arrays over vertex indices, not a neighbour set per vertex.  Vertex ids
are named only on request: a graph keeps the plain data they come from
(``cps`` its desire pairs, the direct construction its kappa), and the
id -> label dict and the edge set are derived from it on first use.
The canonical form and the component count read only the indices, from
one walk per graph, kept on it.
"""

from __future__ import annotations

from functools import cached_property

from .record import Record


class LabelledGraph(Record):
    """Simple labelled graph of maximum degree 2; vertex ids are arbitrary hashable values.

    It holds ``index_labels``, the label of each vertex index, and the
    partner arrays ``first`` and ``second`` of neighbour indices, -1 for
    none, a lone neighbour in ``first``.  Its ids come from ``id_source``,
    a pair (function, argument) whose call gives them in index order.
    ``ids``, ``labels`` (vertex id -> label, in index order), ``edges``
    (the frozenset of frozenset({u, v}) id pairs) and the walks are
    derived on first use.  Graphs compare by labels and edges and, holding
    dicts, are unhashable.
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
        # tuple() of a tuple is that tuple: the ids are given
        self._fill(tuple(labels.values()), pairs, (tuple, tuple(labels)))

    @classmethod
    def from_index_pairs(cls, index_labels: tuple, pairs, id_source: tuple) -> LabelledGraph:
        """The graph joining each pair of distinct vertex indices; repeated pairs are skipped."""
        g = cls.__new__(cls)
        g._fill(index_labels, pairs, id_source)
        return g

    @classmethod
    def _from_partners(cls, index_labels: tuple, first: list, second: list,
                       id_source: tuple) -> LabelledGraph:
        """The graph with these partner arrays, taken as given: each edge in both ends' entries."""
        g = cls.__new__(cls)
        g.__dict__.update(index_labels=index_labels, first=first, second=second,
                          id_source=id_source)
        return g

    def _fill(self, index_labels, pairs, id_source):
        first = [-1] * len(index_labels)
        second = first.copy()
        for a, b in pairs:
            if first[a] == b or second[a] == b:
                continue
            if first[a] < 0:
                first[a] = b
            elif second[a] < 0:
                second[a] = b
            else:
                self._third_edge(id_source, a)
            if first[b] < 0:
                first[b] = a
            elif second[b] < 0:
                second[b] = a
            else:
                self._third_edge(id_source, b)
        self.__dict__.update(index_labels=index_labels, first=first, second=second,
                             id_source=id_source)

    @staticmethod
    def _third_edge(id_source, v):
        function, argument = id_source
        raise ValueError(f"vertex {function(argument)[v]!r} would get a third edge "
                         f"(maximum degree 2)")

    def _fields(self) -> tuple:
        return self.labels, self.edges

    def __repr__(self) -> str:
        return f"LabelledGraph(labels={self.labels!r}, edges={self.edges!r})"

    @cached_property
    def ids(self) -> tuple:
        function, argument = self.id_source
        return function(argument)

    @cached_property
    def labels(self) -> dict:
        return dict(zip(self.ids, self.index_labels))

    @cached_property
    def edges(self) -> frozenset:
        ids = self.ids
        return frozenset(frozenset((ids[v], ids[w]))
                         for partners in (self.first, self.second)
                         for v, w in enumerate(partners) if v < w)

    @property
    def vertices(self):
        return self.labels.keys()

    @cached_property
    def _index(self) -> dict:
        return {v: i for i, v in enumerate(self.ids)}

    def neighbors(self, v) -> frozenset:
        i = self._index.get(v)
        if i is None:
            return frozenset()
        return frozenset(self.ids[w] for w in (self.first[i], self.second[i]) if w >= 0)

    def degree(self, v) -> int:
        return len(self.neighbors(v))

    def walks(self) -> tuple:
        """Each component as a list of vertex indices in walk order, walked once and kept.

        Paths and isolated vertices come first, each walked from its end of
        lowest index; what is left is cycles, each walked from its vertex of
        lowest index towards its ``first`` partner.  A walk is a cycle
        exactly when its start has a ``second`` partner.
        """
        return self._walks

    @cached_property
    def _walks(self) -> tuple:
        first, second = self.first, self.second
        seen = bytearray(len(first))
        walks = []
        ends = [v for v, w in enumerate(second) if w < 0]
        for start in ends + list(range(len(first))):
            if seen[start]:
                continue
            seen[start] = 1
            walk = [start]
            prev, v = start, first[start]
            while v >= 0 and not seen[v]:
                seen[v] = 1
                walk.append(v)
                w = first[v]
                prev, v = v, (second[v] if w == prev else w)  # on, away from prev
            walks.append(walk)
        return tuple(walks)

    def component_count(self) -> int:
        return len(self._walks)


def _desire_ids(pairs) -> tuple:
    """The ids of compressed vertices: their desire edges as sorted (i, side) endpoint pairs."""
    from .reduction import vertex

    return tuple((vertex(a), vertex(b)) for a, b in pairs)


def cps(rg) -> LabelledGraph:
    """The compression cps(R_u) of a reduction graph: one vertex per desire edge.

    Two compressed vertices are adjacent when a reality edge runs between
    their desire edges.  Vertex ids are the desire edges as sorted
    (i, side) endpoint pairs, labelled by magnitude, in ``rg.desire_edges``
    order, the index order of each desire edge's lower end; the graph
    keeps the desire index pairs and names them on request.  The
    compression reads the graph's index arrays: reality edge
    k (odd) joins index k to k+1, mod 2n, so the last one joins index 2n-1
    to index 0.  A desire edge (x, y), x < y, has as partners the vertices
    across x's reality edge and across y's, read straight into the partner
    arrays: the one across the lower reality edge goes first, as
    ``LabelledGraph.from_index_pairs`` would order them, so y's first when
    x is 0.  A 1-cycle of the reduction graph gives a self-loop, dropped,
    and a 2-cycle the same partner twice, kept once.  Compressing other
    2-edge-coloured graphs is left to the tests' edge-set oracle.
    """
    from .reduction import ReductionGraph

    if not isinstance(rg, ReductionGraph):
        raise TypeError(f"cps compresses reduction graphs, got {type(rg).__name__}")
    desire = rg.desire_pairs()
    at = [0] * (2 * rg.n)  # the compressed vertex of each desire edge, at both ends
    for i, (a, b) in enumerate(desire):
        at[a] = at[b] = i
    # across[k]: the compressed vertex at the far end of k's reality edge; odd k is joined
    # to k + 1, even k to k - 1, index 0 to the last index
    across = [0] * len(at)
    across[1::2], across[::2] = at[2::2] + at[:1], at[-1:] + at[1:-1:2]
    first = [-1] * len(desire)
    second = first.copy()
    for d, (x, y) in enumerate(desire):
        # x < y; the lower reality edge first, as _fill meets them: x's, except index 0's
        # edge, the last one
        a, b = (across[x], across[y]) if x else (across[y], across[x])
        if a != d:  # a 1-cycle has a self-loop only
            first[d] = a
            if b != a:  # a 2-cycle meets its partner twice
                second[d] = b
    magnitudes = rg.magnitudes
    index_labels = tuple([magnitudes[x >> 1] for x, _ in desire])
    return LabelledGraph._from_partners(index_labels, first, second, (_desire_ids, desire))
