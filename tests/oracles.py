"""Small independent reimplementations used as ground truth in tests.

Everything here works from the defining conditions directly (explicit
edge enumeration, substring counting, exhaustive subset search) and
avoids the package's own algorithms, so disagreements point at real
defects rather than shared bugs.
"""

import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import NamedTuple

from geneasm import compress, direct
from geneasm.compress import LabelledGraph
from geneasm.errors import CapError
from geneasm.reduction import RootSubgraph


def mag(p):
    return -p if p < 0 else p


def reduction_edges(u):
    """Reality and desire edge lists built straight from the definition.

    Vertices are (i, 0) for I_i and (i, 1) for I'_i, 1-based.
    """
    n = len(u)
    reality = []
    for i in range(1, n):
        reality.append(frozenset({(i, 1), (i + 1, 0)}))
    if n:
        reality.append(frozenset({(n, 1), (1, 0)}))
    desire = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            if u[i - 1] == u[j - 1]:
                desire.append(frozenset({(i, 1), (j, 0)}))
            if u[i - 1] == -u[j - 1]:
                if i < j:
                    desire.append(frozenset({(i, 0), (j, 0)}))
                    desire.append(frozenset({(i, 1), (j, 1)}))
    return reality, sorted(set(desire), key=sorted)


def components(n, edge_sets):
    """Components over vertices (1..n, 0|1) by breadth-first search.

    Each component is a sorted tuple; they come in order of their smallest
    vertex.
    """
    vertices = [(i, s) for i in range(1, n + 1) for s in (0, 1)]
    adjacency = {v: set() for v in vertices}
    for edges in edge_sets:
        for e in edges:
            a, b = tuple(e)
            adjacency[a].add(b)
            adjacency[b].add(a)
    seen = set()
    comps = []
    for v in vertices:
        if v in seen:
            continue
        queue = [v]
        seen.add(v)
        for x in queue:
            for y in adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        comps.append(tuple(sorted(queue)))
    return comps


def component_count(n, edge_sets):
    """BFS component count over vertices (1..n, 0|1)."""
    return len(components(n, edge_sets))


def occurrence_positions(u, p):
    """1-based positions of the two occurrences of magnitude p, by a scan."""
    hits = [i for i, x in enumerate(u, 1) if mag(x) == mag(p)]
    assert len(hits) == 2, f"magnitude {mag(p)} does not occur exactly twice"
    return hits[0], hits[1]


def positional_overlap(u, i, j):
    """Magnitudes occurring exactly once in the substring between two gaps."""
    if i > j:
        i, j = j, i
    window = u[i:j]
    return frozenset(
        m for m in {mag(x) for x in u} if sum(1 for x in window if mag(x) == m) == 1
    )


def overlap_set(u, p):
    """Magnitudes with one occurrence strictly between the two occurrences of p."""
    i, j = occurrence_positions(u, p)
    return positional_overlap(u, i, j - 1)


def overlap_pairs(u):
    """Interleaving-interval formulation of the overlap relation."""
    positions = {}
    for idx, x in enumerate(u):
        positions.setdefault(mag(x), []).append(idx)
    pairs = set()
    mags = sorted(positions)
    for a in range(len(mags)):
        for b in range(a + 1, len(mags)):
            p, q = mags[a], mags[b]
            (i1, j1), (i2, j2) = positions[p], positions[q]
            if i1 < i2 < j1 < j2 or i2 < i1 < j2 < j1:
                pairs.add((p, q))
    return pairs


def root_chain_count(u):
    """Exhaustive search over desire-edge choices and connecting links.

    Enumerates every assignment of one desire edge per label 2..kappa and
    every choice of reality edges joining consecutive picks, keeping those
    where the links enter and leave each interior desire edge at different
    endpoints.  Independent of the walk-based algorithm under test.
    """
    reality, desire = reduction_edges(u)
    dom = sorted({mag(x) for x in u})
    kappa = len(dom) + 1
    if dom != list(range(2, kappa + 1)):
        return 0
    label_of = {}
    for e in desire:
        (i, _), _ = sorted(e)
        label_of[e] = mag(u[i - 1])
    by_label = {}
    for e in desire:
        by_label.setdefault(label_of[e], []).append(e)
    if any(p not in by_label for p in range(2, kappa + 1)):
        return 0

    chains = set()
    choices = [by_label[p] for p in range(2, kappa + 1)]
    for picks in product(*choices):
        if kappa == 2:
            chains.add((picks, ()))
            continue
        link_options = []
        feasible = True
        for idx in range(len(picks) - 1):
            options = [
                r for r in reality if (r & picks[idx]) and (r & picks[idx + 1])
            ]
            if not options:
                feasible = False
                break
            link_options.append(options)
        if not feasible:
            continue
        for links in product(*link_options):
            ok = True
            for idx in range(1, len(picks) - 1):
                into = links[idx - 1] & picks[idx]
                out = links[idx] & picks[idx]
                if into == out:
                    ok = False
                    break
            if ok:
                chains.add((picks, links))
    return len(chains)


def direct_witnesses(g, a, b):
    """Witnesses of the direct-construction condition for the vertex pair {a, b}.

    Vertex ids are "J<p>" and "Jp<p>" on a graph with vertex set {2..kappa}.
    The root chain {Jp<p>, Jp<p+1>} holds unconditionally with the single
    witness (empty, empty).  Every other candidate edge has a window core
    and optional endpoints; each index set P = core + P' with P' drawn from
    the endpoints is a witness when the XOR of N(t) over P equals
    (positives in P) XOR target.  Witnesses are (P, that XOR), ordered by
    sorted(P).  Pairs that are not candidates have none.
    """
    kappa = len(g.vertices) + 1

    def parse(name):
        root = name.startswith("Jp")
        return int(name[2:] if root else name[1:]), root

    (ka, root_a), (kb, root_b) = sorted([parse(a), parse(b)])
    if root_a and root_b:
        if kb == ka + 1:
            return [(frozenset(), frozenset())]
        if (ka, kb) == (2, kappa) and kappa > 3:
            return _xor_witnesses(g, range(2, kappa + 1), [], set())
        return []
    if not root_a and not root_b:
        if ka == kb:
            return []
        return _xor_witnesses(g, range(ka + 1, kb), [ka, kb], {ka, kb})
    root_k, other_k = (ka, kb) if root_a else (kb, ka)
    if root_k == 2:
        return _xor_witnesses(g, range(2, other_k), [other_k], {other_k})
    if root_k == kappa:
        return _xor_witnesses(g, range(other_k + 1, kappa + 1), [other_k], {other_k})
    return []


def direct_explain_lines(g):
    """``geneasm direct --explain``'s witness lines for g, from ``direct_witnesses``.

    The candidate pairs in their listing order: {Jp, Jq} for p < q, then
    {Jp2, Jp} and {Jp<kappa>, Jp} for each p, then {Jp2, Jp<kappa>}; each
    pair's witnesses as "{a,b} P={...} value={...}".
    """
    kappa = len(g.vertices) + 1
    pairs = [(f"J{p}", f"J{q}") for p in range(2, kappa + 1) for q in range(p + 1, kappa + 1)]
    for p in range(2, kappa + 1):
        pairs.append(("Jp2", f"J{p}"))
        if kappa > 2:
            pairs.append((f"Jp{kappa}", f"J{p}"))
    if kappa > 3:
        pairs.append(("Jp2", f"Jp{kappa}"))

    def text(values):
        return "{" + ",".join(map(str, sorted(values))) + "}"

    return [f"{{{a},{b}}} P={text(subset)} value={text(value)}"
            for a, b in pairs for subset, value in direct_witnesses(g, a, b)]


def per_candidate_direct_edges(g):
    """Edge set of the direct construction, testing one candidate at a time.

    The loop that the hash join in ``direct.direct_reduction_graph``
    replaced: prefix XORs S(k) of D(t) = N(t) ^ [t positive] (built from
    ``g.edges``, not from the mask view), then for every candidate
    pair the XOR over its core window and each choice of its optional
    endpoints, compared with its target.  Edges are frozensets of vertex ids.
    """
    kappa = len(g.vertices) + 1
    d = [0] * (kappa + 1)
    for p, q in g.edges:
        d[p] ^= 1 << q
        d[q] ^= 1 << p
    prefix = [0, 0]
    for t in range(2, kappa + 1):
        prefix.append(prefix[-1] ^ d[t] ^ ((1 << t) if t in g.positive else 0))

    def holds(core, optional, target):
        values = [prefix[core.stop - 1] ^ prefix[core.start - 1]]
        for e in optional:
            d = prefix[e] ^ prefix[e - 1]
            values += [value ^ d for value in values]
        return sum(1 << t for t in target) in values

    candidates = [
        ((f"J{p}", f"J{q}"), (range(p + 1, q), (p, q), (p, q)))
        for p in range(2, kappa + 1)
        for q in range(p + 1, kappa + 1)
    ]
    for p in range(2, kappa + 1):
        candidates.append((("Jp2", f"J{p}"), (range(2, p), (p,), (p,))))
        if kappa > 2:
            candidates.append(((f"Jp{kappa}", f"J{p}"), (range(p + 1, kappa + 1), (p,), (p,))))
    if kappa > 3:
        candidates.append((("Jp2", f"Jp{kappa}"), (range(2, kappa + 1), (), ())))
    edges = {frozenset({f"Jp{p}", f"Jp{p + 1}"}) for p in range(2, kappa)}
    for pair, condition in candidates:
        if holds(*condition):
            edges.add(frozenset(pair))
    return edges


def _xor_witnesses(g, core, optional, target):
    found = []
    for picks in product((False, True), repeat=len(optional)):
        subset = frozenset(core) | {t for t, pick in zip(optional, picks) if pick}
        value = frozenset()
        for t in sorted(subset):
            value = value ^ graph_neighbors(g, t)
        if value == (g.positive & subset) ^ frozenset(target):
            found.append((subset, value))
    return sorted(found, key=lambda w: sorted(w[0]))


def cps_edge_set(graph):
    """(labels, edges) of the desire-edge compression, edges as a frozenset of frozensets.

    The construction ``compress.cps`` used before labelled graphs held a
    neighbour table, and the one for 2-edge-coloured carriers other than
    reduction graphs: collapsed vertices are the desire edges as sorted
    endpoint pairs, joined when a reality edge runs between two of them.
    A desire edge must join equally labelled vertices.
    """
    desire_of = {}
    labels = {}
    for e in graph.desire_edges:
        vid = tuple(sorted(e))
        labels[vid] = graph.label(vid[0])
        if graph.label(vid[1]) != labels[vid]:
            raise ValueError(f"desire edge {vid!r} joins differently labelled vertices")
        for v in vid:
            desire_of.setdefault(v, []).append(vid)
    edges = set()
    for e in graph.reality_edges:
        v1, v2 = tuple(e)
        for d1 in desire_of.get(v1, ()):
            for d2 in desire_of.get(v2, ()):
                if d1 != d2:
                    edges.add(frozenset((d1, d2)))
    return labels, frozenset(edges)


def pairs_cps(rg):
    """``compress.cps`` as it first read the index arrays, kept as its reference.

    It lists each reality edge k (odd, joining index k to k+1 mod 2n) as the
    pair of compressed vertices at its ends, drops self-loops, and lets
    ``LabelledGraph.from_index_pairs`` join them, skipping the repeat of a
    2-cycle.
    """
    desire = rg.desire_pairs()
    at = [0] * (2 * rg.n)  # the compressed vertex of each desire edge, at both ends
    for i, (a, b) in enumerate(desire):
        at[a] = at[b] = i
    magnitudes = rg.magnitudes
    index_labels = tuple([magnitudes[a >> 1] for a, _ in desire])
    pairs = [(d1, d2) for d1, d2 in zip(at[1::2], at[2::2] + at[:1]) if d1 != d2]
    return LabelledGraph.from_index_pairs(index_labels, pairs, (compress._desire_ids, rg.desire))


def pairs_direct(g):
    """``direct.direct_reduction_graph`` as it was built from a pair list, kept as its reference.

    It lists the root chain's pairs J'_p - J'_(p+1), then the vertex pairs
    of ``direct._matches``, and lets ``LabelledGraph.from_index_pairs``
    join them in one list, which skips a repeated pair and raises
    ``ValueError`` on a third edge.
    """
    kappa = g.kappa()
    pairs = [(v, v + 2) for v in range(1, 2 * kappa - 3, 2)]
    pairs += direct._matches(g, kappa)[0]
    return LabelledGraph.from_index_pairs(direct._index_labels(kappa), pairs,
                                          (direct._vertex_ids, kappa))


def index_cycles(rg):
    """``ReductionGraph.cycles`` as it walked before the graph kept one walk, as its reference.

    Each alternating cycle is walked from its least index k as k, desire[k],
    then across the reality edge (odd k to k + 1, even k to k - 1, mod 2n),
    recording both ends of every desire edge.
    """
    desire, m = rg.desire, 2 * rg.n
    seen = bytearray(m)
    cycles = []
    for start in range(m):
        if seen[start]:
            continue
        cycle = []
        k = start
        while not seen[k]:
            other = desire[k]
            seen[k] = seen[other] = 1
            cycle += (k, other)
            k = (other + 1 if other & 1 else other - 1) % m
        cycles.append(cycle)
    return cycles


class EdgeSetReductionGraph:
    """``ReductionGraph`` as it was built before it held index arrays.

    Every reality and desire edge is a frozenset of (i, side) vertices,
    in the same order (desire edges by their lower end); lookups go
    through a vertex-to-desire-edge dict and the tuple of reality edges.
    """

    def __init__(self, seq):
        seq = tuple(seq)
        self.seq = seq
        self.n = n = len(seq)
        self.vertices = tuple((i, side) for i in range(1, n + 1) for side in (0, 1))
        self.reality_edges = tuple(
            frozenset({(i, 1), (i % n + 1, 0)}) for i in range(1, n + 1)
        )
        at = {}
        for i, x in enumerate(seq, 1):
            at.setdefault(mag(x), []).append(i)
        desire = []
        for p in sorted(at):
            i, j = at[p]
            if seq[i - 1] == seq[j - 1]:
                desire.append(frozenset({(i, 1), (j, 0)}))
                desire.append(frozenset({(i, 0), (j, 1)}))
            else:
                desire.append(frozenset({(i, 0), (j, 0)}))
                desire.append(frozenset({(i, 1), (j, 1)}))
        self.desire_edges = tuple(sorted(desire, key=sorted))
        self._desire_of = {v: e for e in desire for v in e}

    def label(self, v):
        return mag(self.seq[v[0] - 1])

    def posn(self, v):
        i, side = v
        if side == 1:
            return i
        return i - 1 if i > 1 else self.n

    def posn_edge(self, e):
        v = next(iter(e), None)
        if v in self._desire_of and self.reality_edges[self.posn(v) - 1] == e:
            return self.posn(v)
        raise ValueError("positions are defined for reality edges only")

    def reality_edge_of(self, v):
        position = self.posn(v)
        if not 1 <= position <= self.n:
            raise ValueError(f"positions run 1..{self.n}, got {position}")
        return self.reality_edges[position - 1]

    def desire_edge_of(self, v):
        return self._desire_of[v]

    def components(self):
        return components(self.n, [self.reality_edges, self.desire_edges])


def edge_set_root_subgraphs(rg):
    """Root chains of an ``EdgeSetReductionGraph`` by the frozenset walk ``find_root_subgraphs`` used."""

    def other(edge, v):
        a, b = tuple(edge)
        return b if a == v else a

    dom = {mag(x) for x in rg.seq}
    kappa = len(dom) + 1
    if kappa < 2 or dom != set(range(2, kappa + 1)):
        return []
    found = []
    seen = set()
    starts = sorted((e for e in rg.desire_edges if rg.label(min(e)) == 2), key=sorted)
    for d2 in starts:
        for start in sorted(d2):
            chain, links = [d2], []
            cursor = start
            for label in range(3, kappa + 1):
                link = rg.reality_edge_of(cursor)
                nxt = other(link, cursor)
                if rg.label(nxt) != label:
                    break
                d = rg.desire_edge_of(nxt)
                links.append(link)
                chain.append(d)
                cursor = other(d, nxt)
            else:
                key = (tuple(chain), tuple(links))
                if key not in seen:
                    seen.add(key)
                    found.append(RootSubgraph(desire_chain=tuple(chain), reality_links=tuple(links),
                                              free_ends=(other(d2, start), cursor)))
    return found


def chain_vertices(chain):
    """The vertices a root chain covers: the ends of its desire edges."""
    return frozenset().union(*chain.desire_chain)


def rspos(rg, chain, k):
    """Positions of the reality edges meeting a root chain, on an ``EdgeSetReductionGraph``.

    For 2 <= k < kappa this is the position of the chain's link between
    the desire edges labelled k and k+1; k = 1 and k = kappa give the
    positions of the reality edges at the free ends of the label-2 and
    label-kappa edges.  For kappa = 2 the two are reported in ascending order.
    """
    kappa = len(chain.desire_chain) + 1
    if not 1 <= k <= kappa:
        raise ValueError(f"k must lie in 1..{kappa}, got {k}")
    if 2 <= k < kappa:
        return rg.posn_edge(chain.reality_links[k - 2])
    ends = [rg.posn(v) for v in chain.free_ends]
    if kappa == 2:
        ends.sort()
    return ends[0] if k == 1 else ends[1]


def root_chain_map(rg, walk):
    """φ of the ``direct`` docstring: the cps(R_u) vertex index of each direct vertex index.

    ``walk`` is a walk of ``reduction._root_walks(rg)``.  J'_p, at direct
    index 2(p-2)+1, goes to the chain's desire edge (walk[2(p-2)],
    walk[2(p-2)+1]), and J_p, at 2(p-2), to the other desire edge labelled
    p; the cps index of a desire edge is its rank in ``rg.desire_pairs()``.
    """
    rank = {}
    by_label = {}
    for r, (a, b) in enumerate(rg.desire_pairs()):
        rank[a] = rank[b] = r
        by_label.setdefault(rg.magnitudes[a >> 1], []).append(r)
    phi = []
    for p in range(2, len(walk) // 2 + 2):
        on = rank[walk[2 * (p - 2)]]
        (off,) = (r for r in by_label[p] if r != on)
        phi += (off, on)
    return phi


def index_edges(graph):
    """The edges of a ``LabelledGraph`` as frozensets of vertex indices, read from its walks."""
    return {frozenset(e) for e in graph.index_pairs()}


def max_degree(graph):
    """The most ``index_edges`` at one vertex index, 0 with none.

    Each edge of each walk is counted at both its ends.
    """
    degree = [0] * len(graph.index_labels)
    for e in graph.index_pairs():
        for v in e:
            degree[v] += 1
    return max(degree, default=0)


def encode_arrangement(arrangement):
    """Pointer string of a signed arrangement of the segments 1..kappa."""
    kappa = len(arrangement)
    out = []
    for k in arrangement:
        m = mag(k)
        block = [2] if m == 1 else [kappa] if m == kappa else [m, m + 1]
        if k < 0:
            block = [-p for p in reversed(block)]
        out.extend(block)
    return out


def signed_overlap(u):
    """(overlapping pairs (p, q) with p < q, positive magnitudes) of a legal string."""
    positive = frozenset(mag(x) for x in u if -x in u)
    return frozenset(overlap_pairs(u)), positive


@lru_cache(maxsize=None)
def first_witnesses(kappa):
    """Every realistic signed graph at kappa -> its first witness in scan order.

    The scan visits every signed arrangement of 1..kappa: permutations in
    lexicographic order, then inversion masks as ascending integers, bit t
    inverting the segment in slot t.  kappa!·2^kappa arrangements, so keep
    kappa <= 6.
    """
    table = {}
    for perm in permutations(range(1, kappa + 1)):
        for inv in range(1 << kappa):
            arrangement = tuple(-k if (inv >> t) & 1 else k for t, k in enumerate(perm))
            table.setdefault(signed_overlap(encode_arrangement(arrangement)), arrangement)
    return table


def realism_witness(edges, positive, kappa):
    """The first witness in scan order of the graph on {2..kappa}, or None."""
    return first_witnesses(kappa).get((frozenset(edges), frozenset(positive)))


def search_witness(adjacency_masks, positive_mask, kappa):
    """The first witness in scan order by pruned depth-first search, or None.

    The realism decision ``kernels.scan_for_arrangement`` replaced, kept as
    its reference.  Permutation prefixes are extended in lexicographic order
    with segment 1 fixed in slot 0 (the first permutation with a witness
    starts with 1); each carries the inversion candidates, at most two, that
    the signs allow; and when the second occurrence of p is placed, the
    magnitudes occurring once since its first (the XOR of the prefix masks)
    must equal p's neighbour mask.  Exponential in the worst case.

    adjacency_masks[p] is the bitmask of p's neighbours for each p in
    2..kappa (a dict, or a sequence indexed by magnitude such as the
    ``neighbor_masks`` of an ``OverlapGraph`` on {2..kappa}, where slot and
    magnitude agree); positive_mask has bit p set for every positive p.
    """
    adjacency = [0] * (kappa + 2)
    for p in range(2, kappa + 1):
        adjacency[p] = adjacency_masks[p]
    # inverted[c][m]: is segment m inverted in candidate c (c = inversion of segment 1)
    inverted = [[0, 0]]
    for m in range(2, kappa + 1):
        inverted[0].append(inverted[0][-1] ^ ((positive_mask >> m) & 1))
    inverted.append([f ^ 1 for f in inverted[0]])

    def segment_pointers(m):
        if m == 1:
            return (2,)
        if m == kappa:
            return (kappa,)
        return (m, m + 1)

    # blocks[c][m]: (p, bit of p, bit of p's other segment) in string order
    blocks = ([()], [()])
    for m in range(1, kappa + 1):
        for c in (0, 1):
            order = segment_pointers(m)[::-1] if inverted[c][m] else segment_pointers(m)
            blocks[c].append(tuple((p, 1 << p, 1 << (p - 1 if p == m else p)) for p in order))
    block_mask = [0] + [sum(1 << p for p in segment_pointers(m)) for m in range(1, kappa + 1)]
    # opened[c][p]: prefix mask just after the first occurrence of p in candidate c;
    # a branch writes it before reading it, so backtracking needs no undo
    opened = ([0] * (kappa + 2), [0] * (kappa + 2))
    perm = [1]

    def place(c, m, seen, placed):
        """Append segment m under candidate c; False if a pointer it closes fails."""
        first = opened[c]
        for p, bit, other in blocks[c][m]:
            if placed & other:
                if seen ^ first[p] != adjacency[p]:
                    return False
            else:
                first[p] = seen ^ bit
            seen ^= bit
        return True

    def search(seen, placed, alive):
        """Inversion mask of the first completion of perm, or None."""
        if len(perm) == kappa:
            return min(sum(inverted[c][k] << t for t, k in enumerate(perm)) for c in alive)
        for m in range(2, kappa + 1):
            if placed & (1 << m):
                continue
            survivors = [c for c in alive if place(c, m, seen, placed)]
            if survivors:
                perm.append(m)
                inv = search(seen ^ block_mask[m], placed | (1 << m), survivors)
                if inv is not None:
                    return inv
                perm.pop()
        return None

    inv = search(block_mask[1], 1 << 1, [c for c in (0, 1) if place(c, 1, 0, 0)])
    if inv is None:
        return None
    return tuple(-k if (inv >> t) & 1 else k for t, k in enumerate(perm))


def reconstruction_witness(adjacency_masks, positive_mask, kappa):
    """The first witness in scan order by the O(kappa) reconstruction, or None.

    The reconstruction as ``kernels.scan_for_arrangement`` first ran it, in
    separate passes, with a sort per p and a key function choosing between
    the witness and its twin; kept as its reference (the proof is in the
    ``kernels`` docstring).  Same inputs as ``search_witness``.
    """
    inverted = [0, 0]  # inverted[m] for segment m, segment 1 not inverted
    for m in range(2, kappa + 1):
        inverted.append(inverted[-1] ^ ((positive_mask >> m) & 1))
    segments = (1 << (kappa + 1)) - 1
    slot = [0] * (kappa + 1)
    between = [0] * (kappa + 1)  # between[p]: T_p
    for p in range(2, kappa + 1):
        low = 1 << (p - 1) if p > 2 else 0
        high = 1 << (p + 1) if p < kappa else 0
        d = adjacency_masks[p] ^ (low if inverted[p - 1] else 0) ^ (high if inverted[p] else 0)
        forward = not (d & ((1 << p) - 1)).bit_count() & 1
        if not forward:
            d ^= low | high
        s = 1
        while s < kappa:
            d ^= d << s
            s <<= 1
        between[p] = d = d & segments
        width = d.bit_count() + 1
        slot[p] = slot[p - 1] + width if forward else slot[p - 1] - width
    order = [0] * kappa  # order[t]: the segment in slot t
    for m, t in enumerate(slot[1:], 1):
        if not 0 <= t < kappa or order[t]:
            return None
        order[t] = m
    prefix = [0]  # prefix[t]: the segments in slots < t
    for m in order:
        prefix.append(prefix[-1] | 1 << m)
    for p in range(2, kappa + 1):
        a, b = sorted((slot[p - 1], slot[p]))
        if prefix[b] ^ prefix[a + 1] != between[p]:
            return None
    witness = tuple(-m if inverted[m] else m for m in order)
    twin = (-witness[0],) + tuple(-k for k in reversed(witness[1:]))
    return min(witness, twin, key=lambda w: ([abs(k) for k in w],
                                             sum(1 << t for t, k in enumerate(w) if k < 0)))


# ---------------------------------------------------------------------------
# graph pointer reduction rules on explicit edge sets, and the exhaustive
# search memoized on canonical keys: the reference for the bitmask rules

class Graph(NamedTuple):
    """A signed graph; edges are (min, max) pairs.  OverlapGraph fits it too."""

    vertices: frozenset
    positive: frozenset
    edges: frozenset


def signed_graphs(kappa):
    """Every signed graph on {2..kappa}, as (edges, positive) frozensets."""
    vertices = range(2, kappa + 1)
    pairs = list(combinations(vertices, 2))
    for edge_bits in range(1 << len(pairs)):
        edges = frozenset(pq for i, pq in enumerate(pairs) if (edge_bits >> i) & 1)
        for sign_bits in range(1 << len(vertices)):
            yield edges, frozenset(p for p in vertices if (sign_bits >> (p - 2)) & 1)


def graph_neighbors(g, p):
    return frozenset(b if a == p else a for a, b in g.edges if p in (a, b))


def gf2_nullity(g):
    """log2 of the number of vertex sets X with |N(v) & X| + [v positive, v in X] even at every v.

    Those X are the kernel of the adjacency matrix over GF(2) with a 1 on
    the diagonal at each positive vertex; every subset is tried.
    """
    vertices = sorted(g.vertices)
    rows = [graph_neighbors(g, v) | ({v} & g.positive) for v in vertices]
    kernel = sum(
        all(len(row & x) % 2 == 0 for row in rows)
        for r in range(len(vertices) + 1)
        for x in map(frozenset, combinations(vertices, r))
    )
    return kernel.bit_length() - 1


def applicable_graph_rules(g, kinds=("gnr", "gpr", "gdr")):
    """(kind, params) pairs: isolated negatives, positives, negative edges, each sorted."""
    negative = g.vertices - g.positive
    out = []
    if "gnr" in kinds:
        out += [("gnr", (p,)) for p in sorted(negative) if not graph_neighbors(g, p)]
    if "gpr" in kinds:
        out += [("gpr", (p,)) for p in sorted(g.positive)]
    if "gdr" in kinds:
        out += [("gdr", (p, q)) for p, q in sorted(g.edges) if p in negative and q in negative]
    return out


def _toggle(edges, x, y):
    e = (min(x, y), max(x, y))
    if e in edges:
        edges.remove(e)
    else:
        edges.add(e)


def apply_graph_rule(g, rule):
    """The successor Graph of g under an applicable (kind, params) rule."""
    kind, params = rule
    if rule not in applicable_graph_rules(g, (kind,)):
        raise ValueError(f"rule {rule} is not applicable")
    if kind == "gnr":
        (p,) = params
        return Graph(g.vertices - {p}, g.positive, g.edges)
    if kind == "gpr":
        (p,) = params
        nbrs = graph_neighbors(g, p)
        edges = {e for e in g.edges if p not in e}
        for x in sorted(nbrs):
            for y in sorted(nbrs):
                if x < y:
                    _toggle(edges, x, y)
        return Graph(g.vertices - {p}, (g.positive - {p}) ^ nbrs, frozenset(edges))
    p, q = params
    np_, nq = graph_neighbors(g, p), graph_neighbors(g, q)
    keep = g.vertices - {p, q}
    edges = {e for e in g.edges if p not in e and q not in e}
    for x in sorted(keep):
        for y in sorted(keep):
            if x < y and (int(x in np_ and y in nq) + int(x in nq and y in np_)) % 2:
                _toggle(edges, x, y)
    return Graph(keep, g.positive & keep, frozenset(edges))


def canonical_graph_key(g):
    """Canonical encoding up to sign-preserving relabeling.

    Vertices are partitioned by iterated (sign, neighbor-class) refinement;
    the key is the minimum adjacency encoding over the bijections that
    respect the final classes, so isomorphic graphs share keys exactly.
    """
    verts = sorted(g.vertices)
    sign = {v: "+" if v in g.positive else "-" for v in verts}
    colour = {v: (sign[v],) for v in verts}
    while True:
        refined = {
            v: (colour[v], tuple(sorted(colour[w] for w in graph_neighbors(g, v))))
            for v in verts
        }
        if len(set(refined.values())) == len(set(colour.values())):
            colour = refined
            break
        colour = refined
    classes = {}
    for v in verts:
        classes.setdefault(colour[v], []).append(v)
    ordered = [classes[c] for c in sorted(classes, key=repr)]

    best = None
    for perm_parts in _class_permutations(ordered):
        index = {v: slot for slot, v in enumerate(perm_parts)}
        signs = tuple(sign[v] for v in perm_parts)
        bits = 0
        for p, q in g.edges:
            a, b = sorted((index[p], index[q]))
            bits |= 1 << (a * len(verts) + b)
        cand = (signs, bits)
        if best is None or cand < best:
            best = cand
    return repr(best)


def _class_permutations(ordered_classes):
    if not ordered_classes:
        yield []
        return
    head, *rest = ordered_classes
    for perm in permutations(head):
        for tail in _class_permutations(rest):
            yield list(perm) + tail


def successful_graph_reductions(g, kinds=("gnr", "gpr", "gdr")):
    """Every rule sequence (application order) reducing g to the empty graph."""
    if not g.vertices:
        return [[]]
    return [
        [rule] + rest
        for rule in applicable_graph_rules(g, kinds)
        for rest in successful_graph_reductions(apply_graph_rule(g, rule), kinds)
    ]


def successful_in(g, kinds):
    """Exhaustive search decision, memoized on canonical graph keys."""
    memo = {}

    def walk(h):
        if not h.vertices:
            return True
        key = canonical_graph_key(h)
        if key not in memo:
            memo[key] = False
            memo[key] = any(walk(apply_graph_rule(h, r)) for r in applicable_graph_rules(h, kinds))
        return memo[key]

    return walk(g)


def successful_in_per_set(g, kinds):
    """Exhaustive search decision for one rule set, over the package's bitmask states.

    One walk per rule set, memoized on the exact state, with the package's
    own rule listing and steps (which the edge-set rules above check).  It
    is fast enough to hold the classifier to a search on graphs of up to
    seven vertices, where the edge-set search above is not.
    """
    from geneasm import rewriting

    code = rewriting._CODE[frozenset(kinds)]
    memo = {}

    def walk(state):
        if not state[0]:
            return True
        if state in memo:
            return memo[state]
        memo[state] = False
        for rule in rewriting._graph_rules(state, code):
            if walk(rewriting._graph_step(state, *rule)):
                memo[state] = True
                break
        return memo[state]

    return walk(rewriting._graph_state(g))


# ---------------------------------------------------------------------------
# string pointer reduction rules as Rule records, and the depth-first
# enumeration of successful reductions that builds a Rule for each rule in
# every state: the implementation ``rewriting.successful_string_reductions``
# replaced, kept as the reference for its sequences, their order and its errors;
# then the snr count sets by a memo search over the same states

STRING_KINDS = frozenset({"snr", "spr", "sdr"})


def _string_rules(u, kinds, at):
    """Rules applicable to the legal string u with occurrence table at."""
    from geneasm.rewriting import Rule

    dom = sorted(at)
    negative = [p for p in dom if u[at[p][0] - 1] == u[at[p][1] - 1]]
    out = []
    if "snr" in kinds:
        out += [Rule("snr", (p,)) for p in negative if at[p][1] == at[p][0] + 1]
    if "spr" in kinds:
        out += [Rule("spr", (p,)) for p in dom if u[at[p][0] - 1] != u[at[p][1] - 1]]
    if "sdr" in kinds:
        for p in negative:
            i1, i2 = at[p]
            out += [Rule("sdr", (p, q)) for q in negative if i1 < at[q][0] < i2 < at[q][1]]
    return out


def _string_step(u, rule, at):
    """Apply a rule known to be applicable to u."""
    i1, i2 = at[rule.params[0]]
    if rule.kind == "snr":
        return u[: i1 - 1] + u[i2:]
    if rule.kind == "spr":
        return u[: i1 - 1] + tuple(-p for p in reversed(u[i1 : i2 - 1])) + u[i2:]
    j1, j2 = at[rule.params[1]]
    return u[: i1 - 1] + u[i2 : j2 - 1] + u[j1 : i2 - 1] + u[i1 : j1 - 1] + u[j2:]


def successful_string_reductions(u, kinds=STRING_KINDS, max_domain=6):
    """Yield every rule sequence (application order) reducing u to the empty string.

    Plain depth-first enumeration; per-string successor lists are memoized
    on the exact string.
    """
    from geneasm import pointers

    kinds = frozenset(kinds)
    if not kinds <= STRING_KINDS:
        raise ValueError(f"unknown rule kinds {sorted(kinds - STRING_KINDS)}")
    u = tuple(u)
    # raises unless u is legal, before the cap; every rule keeps legality
    if len(pointers.occurrence_index(u)) > max_domain:
        raise CapError(f"domain exceeds the search cap {max_domain}")
    edges = {}

    def successors(v):
        if v not in edges:
            at = pointers.occurrence_index(v)
            edges[v] = [(rule, _string_step(v, rule, at)) for rule in _string_rules(v, kinds, at)]
        return edges[v]

    prefix = []

    def walk(v):
        if not v:
            yield list(prefix)
            return
        for rule, w in successors(v):
            prefix.append(rule)
            yield from walk(w)
            prefix.pop()

    yield from walk(u)


def negative_rule_counts(u, max_domain=6) -> set[int]:
    """The numbers of snr rules in the successful reductions of u, over all three string rules.

    The set ``{sum(r.kind == "snr" for r in seq) for seq in
    successful_string_reductions(u)}``, from a memo over the same states
    that holds each state's count set instead of its sequences:
    counts(v) is the union over the rules r of counts(r(v)), plus one for
    snr.  This costs the number of states, not the number of sequences, so
    it reaches domains the enumerators cannot; it is the reference for the
    proved count, ``rewriting.predicted_negative_rule_count``.  The rules
    are ``rewriting._string_successors``, which the tests hold to
    ``_string_rules`` and ``_string_step`` above.
    """
    from geneasm import pointers
    from geneasm.rewriting import _string_successors

    u = tuple(u)
    # every rule keeps legality, so only the start is checked, and before the cap
    if len(pointers.occurrence_index(u)) > max_domain:
        raise CapError(f"domain exceeds the search cap {max_domain}")
    memo: dict[tuple, frozenset[int]] = {(): frozenset({0})}

    def counts(v):
        done = memo.get(v)
        if done is None:
            if len(v) == 2:  # one pair: p p takes snr, p -p spr
                done = frozenset({int(v[0] == v[1])})
            else:
                found: set[int] = set()
                for (k, _, _), w in _string_successors(v, 7):  # all three kinds
                    found |= counts(w) if k else {c + 1 for c in counts(w)}
                done = frozenset(found)
            memo[v] = done
        return done

    return set(counts(u))


# ---------------------------------------------------------------------------
# canonical forms: least rotation by comparing every rotation, isomorphism
# by exhaustive label-respecting bijection search, and their test inputs


def legal_strings_on(domain):
    """Every legal string with this domain: each magnitude twice, in every order and barring."""
    letters = [m for m in sorted(domain) for _ in range(2)]
    for order in sorted(set(permutations(letters))):
        for signs in product((1, -1), repeat=len(order)):
            yield tuple(s * m for s, m in zip(signs, order))


def least_rotation(seq, step):
    """Least of the rotations of seq by a multiple of step, by comparing them all."""
    return min(seq[r:] + seq[:r] for r in range(0, len(seq), step))


def two_candidate_least_rotation(seq, step):
    """``iso._least_rotation`` as it first ran, kept as its reference.

    The same two-candidate scan over step-long blocks, started at blocks 0
    and 1 rather than at the least block: at the first mismatch after k
    equal blocks the larger side's start jumps by k + 1.
    """
    blocks = seq if step == 1 else tuple(zip(seq[::2], seq[1::2]))
    n = len(blocks)
    doubled = blocks + blocks
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    r = min(i, j) * step
    return seq[r:] + seq[:r]


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
    and leaves it along its desire edge; cycles come in that order.  It
    takes any carrier with the reduction-graph interface and partner dicts
    built from its edges, the reference for ``ReductionGraph.cycles``.
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


def canonical_2edge(graph) -> str:
    """A canonical code for any carrier: least even rotation by comparing them all.

    Each alternating cycle is read desire edge first, forwards and
    backwards; its code is the least of every even rotation of both.  It
    is written in its own ``C[...]`` format, so on reduction graphs it is
    compared with ``iso.canonical_2edge`` by the partition the two codes
    induce, not code by code.
    """
    codes = []
    for cycle in alternating_cycles(graph):
        labels = tuple(graph.label(v) for v in cycle)
        codes.append(min(least_rotation(labels, 2), least_rotation(labels[::-1], 2)))
    return "|".join("C[" + ",".join(map(str, labels)) + "]" for labels in sorted(codes))


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
    """Exhaustive label-respecting bijection search."""
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


def random_degree2_graph(rng: random.Random, max_vertices: int = 10, label_range=(2, 6)):
    """Random disjoint union of isolated vertices, paths, and cycles."""
    labels, edges = random_degree2_edges(rng, max_vertices, label_range)
    return LabelledGraph(labels=labels, edges=edges)


def random_degree2_edges(rng: random.Random, max_vertices: int = 10, label_range=(2, 6)):
    """The labels and edge set of ``random_degree2_graph``, before it is built."""
    n = rng.randint(1, max_vertices)
    labels = {}
    edges = set()
    vid = 0
    remaining = n
    while remaining:
        shape = rng.choice(("isolated", "path", "cycle"))
        if shape == "isolated" or remaining < 2:
            size = 1
        elif shape == "path":
            size = rng.randint(2, remaining)
        else:
            size = rng.randint(3, remaining) if remaining >= 3 else remaining
        members = list(range(vid, vid + size))
        vid += size
        remaining -= size
        for v in members:
            labels[v] = rng.randint(*label_range)
        for a, b in zip(members, members[1:]):
            edges.add(frozenset((a, b)))
        if shape == "cycle" and size >= 3:
            edges.add(frozenset((members[-1], members[0])))
    return labels, frozenset(edges)


def shuffled_copy(rng: random.Random, g: LabelledGraph) -> LabelledGraph:
    """Isomorphic copy under a random vertex renaming."""
    names = list(g.labels)
    targets = list(range(1000, 1000 + len(names)))
    rng.shuffle(targets)
    mapping = dict(zip(names, targets))
    return LabelledGraph(
        labels={mapping[v]: lab for v, lab in g.labels.items()},
        edges=frozenset(frozenset(mapping[v] for v in e) for e in g.edges),
    )
