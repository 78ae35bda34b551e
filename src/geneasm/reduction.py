"""Reduction graphs of legal strings: reality/desire edges, root chains.

The reduction graph of a length-n legal string has vertices I_i and I'_i
for each letter position i, a reality edge between consecutive letters
(cyclically, so e_i = {I'_i, I_(i+1)} and e_n = {I'_n, I_1}), and a desire
edge pair for each magnitude: the two occurrences are joined straight
(I' to I) when equal and crossed (I to I, I' to I') when complementary.
Every vertex lies on exactly one reality and one desire edge, so the
graph is a disjoint union of even cycles alternating between the two
edge colours.

Vertices are (index, side) pairs with side 0 for I_i and side 1 for I'_i,
which keeps positions computable from the vertex itself.
"""

from __future__ import annotations

from . import pointers
from .compress import alternating_cycles
from .errors import LegalityError
from .record import Record

Vertex = tuple[int, int]
Edge = frozenset


def vertex_name(v: Vertex) -> str:
    i, side = v
    return f"Ip{i}" if side else f"I{i}"


class ReductionGraph:
    def __init__(self, seq):
        seq = tuple(seq)
        if not pointers.is_legal(seq):
            raise LegalityError("reduction graphs are defined for legal strings")
        self.seq = seq
        self.n = len(seq)
        self.vertices: tuple[Vertex, ...] = tuple(
            (i, side) for i in range(1, self.n + 1) for side in (0, 1)
        )
        self.reality_edges: tuple[Edge, ...] = tuple(
            frozenset({(i, 1), (i % self.n + 1, 0)}) for i in range(1, self.n + 1)
        )
        desire = []
        at = pointers.occurrence_index(seq)
        for p in sorted(at):
            i, j = at[p]
            if seq[i - 1] == seq[j - 1]:
                desire.append(frozenset({(i, 1), (j, 0)}))
                desire.append(frozenset({(i, 0), (j, 1)}))
            else:
                desire.append(frozenset({(i, 0), (j, 0)}))
                desire.append(frozenset({(i, 1), (j, 1)}))
        self.desire_edges: tuple[Edge, ...] = tuple(desire)
        self._desire_of: dict[Vertex, Edge] = {}
        for e in desire:
            for v in e:
                self._desire_of[v] = e

    def label(self, v: Vertex) -> int:
        return pointers.magnitude(self.seq[v[0] - 1])

    def posn(self, v: Vertex) -> int:
        """Position of the unique reality edge through v."""
        i, side = v
        if side == 1:
            return i
        return i - 1 if i > 1 else self.n

    def posn_edge(self, e: Edge) -> int:
        """Position of reality edge e: the one reality edge through an endpoint is e."""
        v = next(iter(e), None)
        if v in self._desire_of and self.reality_edges[self.posn(v) - 1] == e:
            return self.posn(v)
        raise ValueError("positions are defined for reality edges only")

    def reality_edge_at(self, position: int) -> Edge:
        if not 1 <= position <= self.n:
            raise ValueError(f"positions run 1..{self.n}, got {position}")
        return self.reality_edges[position - 1]

    def reality_edge_of(self, v: Vertex) -> Edge:
        return self.reality_edge_at(self.posn(v))

    def desire_edge_of(self, v: Vertex) -> Edge:
        return self._desire_of[v]

    def components(self) -> list[tuple[Vertex, ...]]:
        """Alternating cycles, each sorted, ordered by smallest (i, side)."""
        return [tuple(sorted(cycle)) for cycle in alternating_cycles(self)]

    def component_count(self) -> int:
        return len(self.components())


def position(rg: ReductionGraph, item) -> int:
    """Position of a reality edge, or of the reality edge through a vertex."""
    if isinstance(item, tuple):
        return rg.posn(item)
    return rg.posn_edge(item)


class RootSubgraph(Record):
    """A chain of desire edges labelled 2..kappa joined by reality edges.

    ``free_ends`` are the chain's endpoints at labels 2 and kappa.
    """

    __slots__ = ("desire_chain", "reality_links", "free_ends")

    def __init__(self, desire_chain: tuple[Edge, ...], reality_links: tuple[Edge, ...],
                 free_ends: tuple[Vertex, Vertex]):
        object.__setattr__(self, "desire_chain", desire_chain)
        object.__setattr__(self, "reality_links", reality_links)
        object.__setattr__(self, "free_ends", free_ends)

    @property
    def vertices(self) -> frozenset[Vertex]:
        out: set[Vertex] = set()
        for e in self.desire_chain:
            out |= e
        return frozenset(out)

    def contains_vertex(self, v: Vertex) -> bool:
        return any(v in e for e in self.desire_chain)

    def contains_reality_edge(self, e: Edge) -> bool:
        return e in self.reality_links


def _other(edge: Edge, v: Vertex) -> Vertex:
    a, b = tuple(edge)
    return b if a == v else a


def find_root_subgraphs(rg: ReductionGraph) -> list[RootSubgraph]:
    """All root chains, in deterministic order.

    After fixing the label-2 desire edge and the endpoint it continues
    from, the walk is forced: every vertex has one reality edge and one
    desire edge, so each candidate start extends in at most one way.
    Strings whose domain is not exactly {2..kappa} have none.
    """
    dom = pointers.domain(rg.seq)
    kappa = len(dom) + 1
    if kappa < 2 or dom != frozenset(range(2, kappa + 1)):
        return []

    found: list[RootSubgraph] = []
    seen: set[tuple] = set()
    starts = sorted(
        (e for e in rg.desire_edges if rg.label(min(e)) == 2), key=sorted
    )
    for d2 in starts:
        for start in sorted(d2):
            chain = [d2]
            links = []
            free_low = _other(d2, start)
            cursor = start
            ok = True
            for label in range(3, kappa + 1):
                link = rg.reality_edge_of(cursor)
                nxt = _other(link, cursor)
                if rg.label(nxt) != label:
                    ok = False
                    break
                d = rg.desire_edge_of(nxt)
                links.append(link)
                chain.append(d)
                cursor = _other(d, nxt)
            if not ok:
                continue
            key = (tuple(chain), tuple(links))
            if key in seen:
                continue
            seen.add(key)
            found.append(
                RootSubgraph(
                    desire_chain=tuple(chain),
                    reality_links=tuple(links),
                    free_ends=(free_low, cursor),
                )
            )
    return found


def is_rooted(rg: ReductionGraph) -> bool:
    return bool(find_root_subgraphs(rg))


def rspos(rg: ReductionGraph, chain: RootSubgraph, k: int) -> int:
    """Positions of the reality edges meeting a root chain.

    For 2 <= k < kappa this is the position of the chain's internal link
    between the desire edges labelled k and k+1; k = 1 and k = kappa give
    the positions of the external reality edges at the label-2 and
    label-kappa ends.  For kappa = 2 the two external positions are
    reported in ascending order.
    """
    kappa = len(chain.desire_chain) + 1
    if not 1 <= k <= kappa:
        raise ValueError(f"k must lie in 1..{kappa}, got {k}")
    if 2 <= k < kappa:
        return rg.posn_edge(chain.reality_links[k - 2])
    low, high = chain.free_ends
    if kappa == 2:
        a, b = sorted((rg.posn(low), rg.posn(high)))
        return a if k == 1 else b
    return rg.posn(low) if k == 1 else rg.posn(high)
