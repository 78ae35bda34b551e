"""Labelled graphs of maximum degree 2, and the compression that turns desire edges into vertices.

Every labelled graph this package builds (``cps``, the direct
construction, parsed direct-graph JSON) has maximum degree two, so a
``LabelledGraph`` is a tuple of labels by vertex index and two partner
arrays over vertex indices, not a neighbour set per vertex: the degree
bound is the representation itself.  One function, ``join_pairs``, joins
vertex-index pairs into those arrays, once per graph, for both of
``LabelledGraph``'s constructors and for the direct construction; its
third-edge ``ValueError`` is the degree check.  Vertex ids are named only
on request: a graph keeps the plain data they come from
(``cps`` its desire array, the direct construction its kappa), and the
id -> label dict and the edge set are derived from it on first use.
The canonical form and the component count read only the indices, from
one walk per graph, kept on it.  ``cps`` hands that walk over with the
graph, read off the reduction graph's own cycle walk, so a compressed
graph is never walked again.
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
                       id_source: tuple, walks: tuple | None = None) -> LabelledGraph:
        """The graph with these partner arrays, taken as given: each edge in both ends' entries.

        ``walks``, if given, is kept as the graph's walks, which must equal what
        ``walks`` would find.
        """
        g = cls.__new__(cls)
        g.__dict__.update(index_labels=index_labels, first=first, second=second,
                          id_source=id_source)
        if walks is not None:
            g.__dict__["walks"] = walks
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
        return frozenset(frozenset((ids[v], ids[w]))
                         for partners in (self.first, self.second)
                         for v, w in enumerate(partners) if v < w)

    @property
    def vertices(self):
        return self.labels.keys()

    @kept
    def walks(self) -> tuple:
        """Each component as a list of vertex indices in walk order, walked once and kept.

        Paths and isolated vertices come first, each walked from its end of
        lowest index; what is left is cycles, each walked from its vertex of
        lowest index towards its ``first`` partner.  A walk is a cycle
        exactly when its start has a ``second`` partner.  ``cps`` hands over
        the same walks, read off the reduction graph's cycle walk, as it
        builds the graph, so a compressed graph never runs this.
        """
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
        return len(self.walks)


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
    cycle c_0 - c_1 - ... - c_(L-1) - c_0, so each vertex's partners are
    the ones before and after it in walk order.  The one across the reality
    edge at the lower end x of its desire edge goes first, as
    ``LabelledGraph.from_index_pairs`` would order them, reading reality
    edges in index order, except when x is 0, whose reality edge is the
    last one.  A 1-cycle of the reduction graph gives a self-loop, dropped,
    and a 2-cycle the same partner twice, kept once.

    The same pass gives ``walks``, handed over with the graph, so neither
    ``component_count`` nor the canonical form walks it again.  Vertices
    of 1- and 2-cycles, which have no ``second`` partner, come first; each
    longer cycle is read from its lowest vertex c_0 towards its ``first``
    partner, which is c_(L-1), against the walk, unless the cycle holds
    index 0.  Anything without that walk is refused with ``TypeError``;
    compressing other 2-edge-coloured graphs is left to the tests'
    edge-set oracle.
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
    first = [-1] * len(lows)
    second = first.copy()
    ends, cycles = [], []  # the walks of 1- and 2-cycles, and of longer ones
    for entries in cycle_entries:
        walk = [at[k] for k in entries]
        if len(walk) < 3:
            if len(walk) == 2:
                a, b = walk
                first[a], first[b] = b, a
            ends.append(walk)
            continue
        # the walk enters vertex d's desire edge at k, from the vertex before
        before, d = walk[-1], walk[0]
        for k, after in zip(entries, walk[1:] + walk[:1]):
            if k < desire[k]:
                first[d], second[d] = before, after
            else:
                first[d], second[d] = after, before
            before, d = d, after
        if entries[0]:
            walk[1:] = walk[:0:-1]
        else:  # index 0's reality edge is the last one
            first[walk[0]], second[walk[0]] = walk[1], walk[-1]
        cycles.append(walk)
    magnitudes = rg.magnitudes
    index_labels = tuple([magnitudes[k >> 1] for k in lows])
    return LabelledGraph._from_partners(index_labels, first, second, (_desire_ids, desire),
                                        walks=tuple(ends + cycles))
