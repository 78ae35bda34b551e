"""Labelled graphs of maximum degree 2, and the compression that turns desire edges into vertices.

Every labelled graph this package builds (``cps``, the direct
construction, parsed direct-graph JSON) has maximum degree two, so each
of its components is a path or a cycle, and a ``LabelledGraph`` is just
that: a tuple of labels by vertex index, and its paths and cycles as
walks of vertex indices.  The degree bound is the representation itself.
The two builders that join edges, ``LabelledGraph.from_index_pairs`` and
the direct construction, join them with ``join_pairs`` into partner
arrays of their own, whose third-edge ``ValueError`` is the degree check,
and walk those once into paths and cycles; ``cps`` reads its walks off
the reduction graph's own cycle walk.  The canonical form, the component
count and the edge set read only the walks.  Vertex ids are named only
on request: a graph keeps the plain data they come from (``cps`` its
desire array, the direct construction its kappa), and the id -> label
dict and the edge set are derived from it on first use.
"""

from __future__ import annotations

from .record import Record, kept


def join_pairs(first: list, second: list, pairs, id_source: tuple) -> None:
    """Join each pair (a, b) of distinct vertex indices into the partner arrays, in place.

    b goes into a's first free entry and a into b's; a pair already joined,
    either way round, is skipped.  A third partner raises ``ValueError``
    naming the vertex by its id, the ``id_source`` call's entry at its index.
    """
    for a, b in pairs:
        if first[a] == b or second[a] == b:
            continue
        if first[a] < 0:
            first[a] = b
        elif second[a] < 0:
            second[a] = b
        else:
            _third_edge(id_source, a)
        if first[b] < 0:
            first[b] = a
        elif second[b] < 0:
            second[b] = a
        else:
            _third_edge(id_source, b)


def _third_edge(id_source: tuple, v: int):
    function, argument = id_source
    raise ValueError(f"vertex {function(argument)[v]!r} would get a third edge (maximum degree 2)")


class LabelledGraph(Record):
    """Simple labelled graph of maximum degree 2; vertex ids are arbitrary hashable values.

    It holds ``index_labels``, the label of each vertex index, and its
    components as lists of vertex indices in walk order: ``paths``, an
    isolated vertex a path of one, and ``cycles``, each of 3 or more
    vertices and closed from its last vertex back to its first.  Its ids
    come from ``id_source``, a pair (function, argument) whose call gives
    them in index order.  ``ids``, ``labels`` (vertex id -> label, in
    index order) and ``edges`` (the frozenset of frozenset({u, v}) id
    pairs) are derived on first use.  Graphs compare by labels and edges
    and, holding dicts, are unhashable.
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
        self.__dict__.update(vars(self.from_index_pairs(tuple(labels.values()), pairs,
                                                        (tuple, tuple(labels)))))

    @classmethod
    def from_index_pairs(cls, index_labels: tuple, pairs, id_source: tuple) -> LabelledGraph:
        """The graph joining each pair of vertex indices by ``join_pairs``.

        ``pairs`` is a collection, read twice: a pair (a, a) raises
        ``ValueError`` first, as ``join_pairs`` would partner a with itself.
        """
        for a, b in pairs:
            if a == b:
                function, argument = id_source
                raise ValueError(f"vertex {function(argument)[a]!r} would get a self-loop")
        first = [-1] * len(index_labels)
        second = first.copy()
        join_pairs(first, second, pairs, id_source)
        return cls._from_partners(index_labels, first, second, id_source)

    @classmethod
    def _from_partners(cls, index_labels: tuple, first: list, second: list,
                       id_source: tuple) -> LabelledGraph:
        """The graph of these partner arrays, each edge in both ends' entries, walked once.

        Paths come first, each walked from its end of lowest index; the
        vertices left lie on cycles, each walked from its vertex of lowest
        index towards its ``first`` partner.
        """
        seen = bytearray(len(first))
        ends = [v for v, w in enumerate(second) if w < 0]
        paths, cycles = [], []
        for starts, walks in ((ends, paths), (range(len(first)), cycles)):
            for start in starts:
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
        return cls._from_walks(index_labels, paths, cycles, id_source)

    @classmethod
    def _from_walks(cls, index_labels: tuple, paths: list, cycles: list,
                    id_source: tuple) -> LabelledGraph:
        """The graph with these paths and cycles, taken as given: each vertex on one walk."""
        g = cls.__new__(cls)
        g.__dict__.update(index_labels=index_labels, paths=paths, cycles=cycles,
                          id_source=id_source)
        return g

    def _fields(self) -> tuple:
        return self.labels, self.edges

    def __repr__(self) -> str:
        return f"LabelledGraph(labels={self.labels!r}, edges={self.edges!r})"

    @kept
    def ids(self) -> tuple:
        function, argument = self.id_source
        return function(argument)

    @kept
    def labels(self) -> dict:
        return dict(zip(self.ids, self.index_labels))

    @kept
    def edges(self) -> frozenset:
        ids = self.ids
        return frozenset(frozenset((ids[v], ids[w])) for v, w in self.index_pairs())

    def index_pairs(self):
        """Each edge once, as a pair of vertex indices: along each walk, and round each cycle."""
        for walk in self.paths:
            yield from zip(walk, walk[1:])
        for walk in self.cycles:
            yield from zip(walk, walk[1:] + walk[:1])

    @property
    def vertices(self):
        return self.labels.keys()

    def component_count(self) -> int:
        return len(self.paths) + len(self.cycles)


def _desire_ids(desire) -> tuple:
    """The ids of compressed vertices: each desire edge as its sorted (i, side) endpoint pair.

    ``desire`` is a reduction graph's desire array; the edges come in index
    order of their lower end.
    """
    from .reduction import vertex

    return tuple([(vertex(a), vertex(b)) for a, b in enumerate(desire) if a < b])


def cps(rg) -> LabelledGraph:
    """The compression cps(R_u) of a reduction graph: one vertex per desire edge.

    Two compressed vertices are adjacent when a reality edge runs between
    their desire edges.  Vertex ids are the desire edges as sorted
    (i, side) endpoint pairs, labelled by magnitude, in ``rg.desire_edges``
    order, the index order of each desire edge's lower end; the graph
    keeps the desire array and names them on request.

    The compression is read from the reduction graph's one cycle walk,
    ``rg.cycle_entries``: an alternating cycle that enters the desire edges
    of compressed vertices c_0, ..., c_(L-1) in turn is the compressed
    cycle c_0 - c_1 - ... - c_(L-1) - c_0.  For L >= 3 that is a cycle.  A
    2-cycle meets its one partner twice, kept once, so it is a path of
    two, and a 1-cycle gives a self-loop, dropped, so an isolated vertex.
    Anything without that walk is refused with ``TypeError``; compressing
    other 2-edge-coloured graphs is left to the tests' edge-set oracle.
    """
    try:
        cycle_entries = rg.cycle_entries
    except AttributeError:
        raise TypeError(f"cps compresses reduction graphs, got {type(rg).__name__}") from None
    desire = rg.desire
    at = [0] * len(desire)  # the compressed vertex of each desire edge, at both ends
    lows = []  # the lower end of each desire edge, in index order
    for k, other in enumerate(desire):
        if k < other:
            at[k] = at[other] = len(lows)
            lows.append(k)
    paths, cycles = [], []
    for entries in cycle_entries:
        walk = [at[k] for k in entries]
        (cycles if len(walk) > 2 else paths).append(walk)
    magnitudes = rg.magnitudes
    index_labels = tuple([magnitudes[k >> 1] for k in lows])
    return LabelledGraph._from_walks(index_labels, paths, cycles, (_desire_ids, desire))
