"""Reduction graphs of legal strings: reality/desire edges, root chains.

The reduction graph of a length-n legal string has vertices I_i and I'_i
for each letter position i, a reality edge between consecutive letters
(cyclically, so e_i = {I'_i, I_(i+1)} and e_n = {I'_n, I_1}), and a desire
edge pair for each magnitude: the two occurrences are joined straight
(I' to I) when equal and crossed (I to I, I' to I') when complementary.
Every vertex lies on exactly one reality and one desire edge, so the
graph is a disjoint union of even cycles alternating between the two
edge colours.

Vertices are (i, side) pairs with side 0 for I_i and side 1 for I'_i,
which keeps positions computable from the vertex itself.  Inside the
graph, vertex (i, side) is the index k = 2*(i-1) + side, so the indices
0..2n-1 run in (i, side) order.  The graph holds two arrays: ``desire[k]``,
the index at the other end of k's desire edge, and ``magnitudes[i-1]``,
the magnitude at position i.  Reality partners need no table: e_i joins
I'_i = 2i-1 to I_(i+1) = 2i, so an odd k is joined to k+1 and an even k
to k-1, both mod 2n.  Cycles and root chains are walks over these
arrays.  The cycles are walked once, on first use, and kept as
``cycle_entries``, the index at which the walk enters each desire edge;
the cycle views, the cycle count, the compression and its canonical code
all read that one walk.  The edge views ``vertices``, ``reality_edges`` and
``desire_edges`` hold (i, side) pairs and frozenset edges for output and
tests; each is derived on first use.  Desire edges come in index order of
their lower end, the order of ``desire_pairs``.

Symmetries.  Let u = a_1 ... a_n and v a variant of u.  Each map phi below
is a bijection from the vertices of R_u onto those of R_v that sends the
reality edges of R_u exactly onto those of R_v, the desire edges onto the
desire edges, and keeps labels, so R_u and R_v are isomorphic.  Reality
edges depend only on n, and the desire edges of a magnitude only on its two
positions and on whether its letters there are equal: the straight pair
joins the I' of each occurrence to the I of the other, and the crossed pair
I to I and I' to I', so neither depends on which occurrence is first.

* Reversal, v_i = a_(n+1-i), and inversion, v_i = -a_(n+1-i):
  phi(I_i) = I'_(n+1-i) and phi(I'_i) = I_(n+1-i).  Then phi(e_i) =
  {I_(n+1-i), I'_(n-i)} = e_(n-i), reading e_0 as e_n, which is {I'_n, I_1}.
  A magnitude at positions i and j of u sits at n+1-i and n+1-j of v with
  letters that are equal exactly when a_i = a_j, since negating both keeps
  that.  phi sends {I'_i, I_j} to {I_(n+1-i), I'_(n+1-j)}, a straight edge
  of v, and swaps the sides of both ends of a crossed edge, which keeps it
  crossed.  The label of position n+1-i of v is |a_i|.
* Complement, v_i = -a_i: the identity.  Equality of the two letters of
  each magnitude, and every label, are kept, so R_v = R_u.
* Conjugation, v = a_(r+1) ... a_n a_1 ... a_r, so v_i = a_(i+r) with
  positions mod n: the index shift phi(I_i) = I_(i-r), phi(I'_i) = I'_(i-r).
  It sends e_i to e_(i-r), because the reality edges close up cyclically,
  and a magnitude at i and j of u to i-r and j-r of v, with the same
  letters and sides.

The γ-class half of the main theorem follows: realistic u and v with
γ_u = γ_v have isomorphic reduction graphs.  A realistic string is
the encoding of an arrangement, a witness of its overlap graph.  Rotating
an arrangement rotates its encoding (a conjugate), and inverting it, that
is reversing the order and inverting every segment, gives the inverse of
the encoding.  By the proof in ``kernels``, each realistic graph has
exactly one witness w with segment 1 first and not inverted, and every
witness rotates to w or to w's mirror, the rotation of w inverted that puts
segment 1 first.  So u and v are each a conjugate of encode(w) or of
inverse(encode(w)), and the maps above compose to an isomorphism from R_u
to R_v.
"""

from __future__ import annotations

from . import pointers
from .record import Record, kept

Vertex = tuple[int, int]
Edge = frozenset


def vertex_name(v: Vertex) -> str:
    i, side = v
    return f"Ip{i}" if side else f"I{i}"


def vertex(k: int) -> Vertex:
    """The (i, side) vertex with index k."""
    return (k >> 1) + 1, k & 1


class ReductionGraph:
    def __init__(self, seq):
        seq = tuple(seq)
        at = pointers.occurrence_index(seq)  # raises unless seq is legal
        self.seq = seq
        self.n = len(seq)
        self.magnitudes = list(map(abs, seq))
        desire = [0] * (2 * self.n)
        for i, j in at.values():
            a, b = 2 * i - 2, 2 * j - 2
            # equal occurrences join I_i to I'_j and I'_i to I_j; complementary
            # ones join I_i to I_j and I'_i to I'_j
            s = 1 if seq[i - 1] == seq[j - 1] else 0
            desire[a], desire[b + s] = b + s, a
            desire[a + 1], desire[b + 1 - s] = b + 1 - s, a + 1
        self.desire = desire

    @kept
    def vertices(self) -> tuple[Vertex, ...]:
        return tuple(map(vertex, range(2 * self.n)))

    @kept
    def reality_edges(self) -> tuple[Edge, ...]:
        n = self.n
        return tuple(frozenset(((i, 1), (i % n + 1, 0))) for i in range(1, n + 1))

    @kept
    def desire_edges(self) -> tuple[Edge, ...]:
        return tuple(frozenset((vertex(a), vertex(b))) for a, b in self.desire_pairs())

    def desire_pairs(self) -> list[tuple[int, int]]:
        """Desire edges as index pairs (k, desire[k]) with k < desire[k], in order of k."""
        return [(k, d) for k, d in enumerate(self.desire) if k < d]

    def label(self, v: Vertex) -> int:
        return self.magnitudes[v[0] - 1]

    @kept
    def cycle_entries(self) -> list[list[int]]:
        """Each alternating cycle as the indices where its walk enters a desire edge.

        One walk, on first use, kept: each cycle is walked from its least
        index k along the desire edge from k to desire[k], then along the
        reality edge from there, and so on, and only the index at which each
        desire edge is entered is recorded: ``cycles()`` without the far
        ends.  Cycles come in order of their least index.
        ``cycles``, ``components``, ``component_count``, ``compress.cps``
        and ``iso.canonical_2edge`` all read this one walk.
        """
        desire, m = self.desire, 2 * self.n
        # no mod 2n in the reality step: 0 starts the first cycle, so it is never a far end
        # (which would step to -1), and the far end 2n - 1 closes the first cycle by a step
        # to 2n, the stop mark
        seen = bytearray(m + 1)
        seen[m] = 1
        cycles = []
        start = seen.find(0)
        while start >= 0:
            cycle = []
            k = start
            while not seen[k]:
                other = desire[k]
                seen[k] = seen[other] = 1
                cycle.append(k)
                k = other + 1 if other & 1 else other - 1
            cycles.append(cycle)
            start = seen.find(0, start)
        return cycles

    def cycles(self):
        """Alternating cycles as index walks k, desire[k], ..., from their least k, in that order.

        Each is ``cycle_entries`` with the far end of every desire edge put back.
        """
        desire = self.desire
        for entries in self.cycle_entries:
            yield [x for k in entries for x in (k, desire[k])]

    def components(self) -> list[tuple[Vertex, ...]]:
        """Alternating cycles, each sorted, ordered by smallest (i, side)."""
        return [tuple(map(vertex, sorted(cycle))) for cycle in self.cycles()]

    def component_count(self) -> int:
        """The number of alternating cycles: the length of the kept walk, ``cycle_entries``."""
        return len(self.cycle_entries)


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


def _root_walks(rg: ReductionGraph):
    """Each root chain as the index walk [k0, k1, ..., k_last], in chain order.

    The walk alternates desire edges (k0, k1), (k2, k3), ... with the
    reality links (k1, k2), (k3, k4), ...; k0 and k_last are the free ends.
    Walks start from each end of the two label-2 desire edges, in index
    order.  After that choice the walk is forced: every vertex has one
    reality edge and one desire edge, so each start extends in at most one
    way.  For kappa = 2 both ends of an edge give the same chain.  Strings
    whose domain is not exactly {2..kappa} have none.
    """
    n, mags, desire = rg.n, rg.magnitudes, rg.desire
    kappa = n // 2 + 1
    if not n or min(mags) < 2 or max(mags) != kappa:
        return
    m = 2 * n
    i = mags.index(2)
    for a in (2 * i, 2 * i + 1):
        for start, low in ((a, desire[a]), (desire[a], a)):
            walk = [low, start]
            k = start
            for label in range(3, kappa + 1):
                link = (k + 1 if k & 1 else k - 1) % m
                if mags[link >> 1] != label:
                    break
                k = desire[link]
                walk += (link, k)
            else:
                yield walk


def find_root_subgraphs(rg: ReductionGraph) -> list[RootSubgraph]:
    """All root chains, in deterministic order (see ``_root_walks``)."""
    found: list[RootSubgraph] = []
    seen: set[tuple] = set()
    for walk in _root_walks(rg):
        path = list(map(vertex, walk))
        chain = tuple(frozenset(path[t:t + 2]) for t in range(0, len(path), 2))
        links = tuple(frozenset(path[t:t + 2]) for t in range(1, len(path) - 1, 2))
        if (chain, links) in seen:
            continue
        seen.add((chain, links))
        found.append(RootSubgraph(desire_chain=chain, reality_links=links,
                                  free_ends=(path[0], path[-1])))
    return found


def is_rooted(rg: ReductionGraph) -> bool:
    return next(_root_walks(rg), None) is not None

