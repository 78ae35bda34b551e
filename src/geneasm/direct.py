"""Reduction graph built directly from a realistic overlap graph.

For a realistic overlap graph on {2..kappa} the compressed reduction
graph of any witness string can be reconstructed from the graph alone.
Vertices come in pairs J_p (off the root chain) and J'_p (on it).  The
chain J'_2 - ... - J'_kappa is always present; every other edge comes
from one rule.  With D(t) = N(t) XOR ({t} if t is positive) and prefix
sums S(k) = D(2) XOR ... XOR D(k), S(0) = S(1) = 0, each vertex gives
ends, each a (key, prefix index) pair:

    J_t         (S(t-1) XOR {t}, t-1)  and  (S(t) XOR {t}, t)
    J'_2        (0, 1)
    J'_kappa    (S(kappa), kappa), for kappa > 2

Two ends of different vertices with equal keys, at prefix indices
a <= b, make an edge witnessed by the window P = {a+1..b}: S(b) XOR S(a)
is then the set of the edge's J endpoints, that is

    XOR of N(t) for t in P  ==  (positives in P) XOR (its J endpoints),

and that XOR is the witness's value.  J'_2 - J'_kappa counts only for
kappa > 3 (at kappa 3 it is the chain edge).  Each end is matched as it
is made, with one dictionary probe against the ends made before it, so
one pass finds every edge in O(kappa) dictionary operations plus the
size of the output, as a list of vertex-index pairs that one call of
``compress.join_pairs`` joins into partner arrays after the root chain,
walked once into the graph's paths and cycles; parsed direct-graph JSON
is joined by the same function.
Sets are int bitmasks from ``OverlapGraph.neighbor_masks``.  The graph is
built on vertex indices, J_p at 2(p-2) and J'_p at 2(p-2)+1, and keeps
only kappa to name them: its vertex ids, the strings "J<p>" and "Jp<p>"
(serialized verbatim), are made on first use.

The main theorem: for realistic u, direct(γ_u) is cps(R_u) with its
vertices renamed.  Let u = a_1 ... a_n be a legal string on {2..kappa}
with a root chain, and w a walk of ``reduction._root_walks``: the desire
edge labelled p on the chain is (w[2(p-2)], w[2(p-2)+1]), and the links
(w[1], w[2]), (w[3], w[4]), ... are reality edges.  Let φ send J'_p to
that edge and J_p to the other desire edge labelled p.  φ is a bijection
onto the vertices of cps(R_u) that keeps labels; the claim is that it
sends the edges of direct(γ_u) exactly onto those of cps(R_u).

* Gaps.  Gap g, for g = 0..n, lies after a_g, and gap n is gap 0 (the
  reality edges close up).  The reality edge e_g = {I'_g, I_(g+1)} lies at
  gap g, so vertex index k lies at gap (k + 1) >> 1, mod n.  Let P(g) be
  the set of magnitudes occurring once in a_1 ... a_g, empty for g = 0
  and, as u is legal, for g = n, and O(g, h) = P(g) XOR P(h): the
  magnitudes occurring once between gaps g and h, either way round (the
  paper's positional overlap O_u(g, h)).  Then O(g, h) XOR O(h, l) =
  O(g, l).
* Desire edges.  Let p occur at positions i < j.  The vertices I_i and
  I'_i lie at gaps i - 1 and i, with O = {p}.  The straight pair, for
  equal letters, is {I'_i, I_j} at gaps i and j - 1 and {I_i, I'_j} at
  i - 1 and j: the letters strictly between the occurrences, with or
  without both, give N(p).  The crossed pair, for positive p, is {I_i, I_j}
  at i - 1 and j - 1 and {I'_i, I'_j} at i and j: one occurrence of p is
  inside, giving N(p) XOR {p}.  Either way each desire edge labelled p
  joins gaps g, h with O(g, h) = D(p).
* The chain.  Let r_1 be the gap of w[0], and r_p that of w[2(p-2)+1] for
  p = 2..kappa; for p < kappa the link makes r_p the gap of w[2(p-1)]
  too (the paper's rspos).  The chain edge labelled p joins r_(p-1) to
  r_p, so with X(g) = O(r_1, g), X(r_p) = S(p) for p = 1..kappa.
* The ends.  The two desire edges labelled t each hold one vertex at each
  occurrence of t, so each end y of the off-chain one shares its letter
  with an end x of the chain one, and X(gap of y) = X(gap of x) XOR {t}.
  So the ends of φ(J_t) have X = S(t-1) XOR {t} and S(t) XOR {t}, J_t's
  keys; the end of J'_2 is w[0], with X = 0, and that of J'_kappa
  (kappa > 2) is w[-1], with X = S(kappa).  The ends are thus the vertices
  on no link, each keyed by X of its gap.
* X is one-to-one on the gaps that are not links.  If X(g) = X(h) with
  g != h, each of the two arcs between g and h is nonempty and holds both
  or neither occurrence of each magnitude.  The labels 2..kappa cannot all
  lie on one arc, so some p lies on one and p + 1 on the other, and the
  link from p to p + 1, a gap between a letter p and a letter p + 1, is
  g or h: one of them is a link.
* The edges.  A reality edge that is not a link joins the two vertices at
  its gap, and by the last step no other end has their key.  So the
  matches are exactly these reality edges: one joining ends on φ(v) and
  φ(w), v != w, is the edge φ(v) - φ(w) of cps(R_u), and one with both
  ends on φ(v) is a self-loop of cps, dropped, and a match of v with
  itself, skipped.  The links are the chain edges J'_p - J'_(p+1), and a
  repeated pair is kept once on both sides (a 2-cycle of R_u).  At
  kappa = 2, w[-1] = w[1] gives no end, and adds nothing: the two reality
  edges either both join the chain edge to the other one, an edge that
  w[0] gives, or each joins an edge to itself.

The proof reads the chain, not realism, so it holds for every legal u on
{2..kappa} with a root chain, and every realistic u has one.  In the
arrangement u encodes, p is the last letter of segment p - 1 and the first
of segment p, each read in its segment's orientation, for 3 <= p < kappa.
The vertices of these two letters at the gaps inside the two segments have
the same side exactly when one of the segments is inverted, that is when
the letters differ, so they are joined by a crossed pair, and otherwise by
a straight pair.  Joined by the gaps inside segments 2..kappa - 1, these
edges and the desire edges from there to segments 1 and kappa make a root
chain (at kappa = 2 a desire edge is one).  Since each desire edge meets
two reality edges, the direct graph of a realistic graph, which is
cps(R_u) renamed, has maximum degree 2.
"""

from __future__ import annotations

from .compress import LabelledGraph, join_pairs
from .errors import CapError, ParseError
from .record import Record

MAX_DIRECT_KAPPA = 1 << 16  # parse_direct_json builds all 2(kappa - 1) vertices


def _vertex_ids(kappa: int) -> tuple[str, ...]:
    """The ids by vertex index: J_p at 2(p-2) and J'_p at 2(p-2)+1."""
    return tuple(name for p in range(2, kappa + 1) for name in (f"J{p}", f"Jp{p}"))


def _index_labels(kappa: int) -> tuple[int, ...]:
    """The labels by vertex index: p for both J_p and J'_p."""
    return tuple(sorted([*range(2, kappa + 1)] * 2))


class Witness(Record):
    """A satisfied edge condition: the index set P and the evaluated XOR chain."""

    __slots__ = ("subset", "value")

    def __init__(self, subset: frozenset[int], value: frozenset[int]):
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "value", value)


def _matches(g: OverlapGraph, kappa: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Each pair of ends of different vertices with equal keys: the vertex pairs and their windows.

    Two parallel lists, of vertex pairs (v, w) and of windows (a, b) with
    a <= b: v and w are vertex indices as in ``_vertex_ids``, and a and b
    the prefix indices of the ends of v and w.  Each end is matched against
    the ends made before it as it is made.
    """
    masks, positive = g.neighbor_masks, g.positive_mask
    s = [0, 0]  # S(k) for k = 0..kappa
    for t in range(2, kappa + 1):
        s.append(s[-1] ^ masks[t] ^ (positive & (1 << t)))
    pairs, windows = [], []
    made: dict[int, list[tuple[int, int]]] = {}  # key -> (prefix index, vertex) of its ends
    for v in range(2 * kappa - 2):
        t = v // 2 + 2
        if not v & 1:
            bit = 1 << t
            ends = ((s[t - 1] ^ bit, t - 1), (s[t] ^ bit, t))
        elif t == 2:
            ends = ((0, 1),)
        elif t == kappa:
            ends = ((s[kappa], kappa),)
        else:
            continue
        for key, a in ends:
            bucket = made.get(key)
            if bucket is None:
                made[key] = [(a, v)]
                continue
            for b, w in bucket:
                if w != v:
                    if b <= a:
                        pairs.append((w, v))
                        windows.append((b, a))
                    else:
                        pairs.append((v, w))
                        windows.append((a, b))
            bucket.append((a, v))
    return pairs, windows


def direct_reduction_graph(g: OverlapGraph) -> LabelledGraph:
    """The root chain plus an edge for each matched pair of ends.

    The chain J'_2 - J'_3 - ... - J'_kappa is set in partner arrays
    first, then the vertex pairs of ``_matches`` are joined in by
    ``compress.join_pairs``, a repeated pair skipped, and the arrays are
    walked once into the graph's paths and cycles.  The caller is
    responsible for realism.  On γ_u, for u realistic or any legal string
    on {2..kappa} with a root chain, the result is cps(R_u) renamed by φ,
    so its maximum degree is 2 (see the module docstring).  Other input
    gets edges by the same rule, whose maximum degree 2 held on every
    signed graph up to kappa 7 (2,097,152 at kappa 7 alone) and on 40,000
    random ones up to kappa 24 (a third edge would raise ``ValueError``).
    The kappa-3 match J'_2 - J'_3 repeats a chain edge.
    """
    kappa = g.kappa()
    size = 2 * kappa - 2
    id_source = (_vertex_ids, kappa)
    # the chain J'_p at 2(p-2)+1: J'_2 first meets J'_3, J'_p (p > 2) first meets J'_(p-1)
    first = [-1] * size
    second = first.copy()
    first[3::2] = range(1, size - 2, 2)
    second[3:size - 2:2] = range(5, size, 2)
    if kappa > 2:
        first[1] = 3
    join_pairs(first, second, _matches(g, kappa)[0], id_source)
    return LabelledGraph._from_partners(_index_labels(kappa), first, second, id_source)


def _witness(g: OverlapGraph, v: int, w: int, a: int, b: int) -> Witness:
    """The witness of the match of v and w at prefix indices a <= b: P = {a+1..b}."""
    window = frozenset(range(a + 1, b + 1))
    js = frozenset(x // 2 + 2 for x in (v, w) if not x & 1)
    return Witness(window, (g.positive & window) ^ js)


def _witnesses(g: OverlapGraph, kappa: int) -> list[tuple[tuple, list[int], Witness]]:
    """(sort key, vertex indices root first, witness) for each window.

    They come in candidate order: J_p - J_q by (p, q); then for each p,
    J'_2 - J_p and J'_kappa - J_p; then J'_2 - J'_kappa; each edge's by (lo, hi).
    """
    found = []
    for (v, w), (a, b) in zip(*_matches(g, kappa)):
        roots = sorted(x for x in (v, w) if x & 1)
        if len(roots) == 2 and kappa <= 3:
            continue
        js = sorted(x for x in (v, w) if not x & 1)
        found.append(((len(roots), *js, *roots, a, b), roots + js, _witness(g, v, w, a, b)))
    found.sort(key=lambda item: item[0])
    return found


def condition_witnesses(g: OverlapGraph, edge) -> list[Witness]:
    """All index sets satisfying the condition for one vertex pair, ordered by sorted(P).

    The pair is of two different vertex ids such as ("J2", "J6") or
    ("Jp2", "Jp7"), and anything else is a ``ValueError``; root-chain edges
    {J'_p, J'_(p+1)} hold unconditionally and report a single empty
    witness, and pairs without a matched pair of ends have none.
    """
    names = tuple(edge)
    if len(names) != 2 or names[0] == names[1]:
        raise ValueError(f"a vertex pair needs two different vertices, got {names!r}")
    kappa = g.kappa()
    index = {name: v for v, name in enumerate(_vertex_ids(kappa))}
    if not all(name in index for name in names):
        raise ValueError(f"a vertex of {names!r} is not one of J2..J{kappa}, Jp2..Jp{kappa}")
    v, w = sorted(index[name] for name in names)
    if v & 1 and w == v + 2:
        return [Witness(subset=frozenset(), value=frozenset())]
    windows = sorted(window for pair, window in zip(*_matches(g, kappa))
                     if pair in ((v, w), (w, v)))
    return [_witness(g, v, w, a, b) for a, b in windows]


def _set_text(values) -> str:
    return "{" + ",".join(map(str, sorted(values))) + "}"


def explain_lines(g: OverlapGraph):
    """``geneasm direct --explain``: "{Jp7,J5} P={6,7} value={5}" per window, in candidate order."""
    kappa = g.kappa()
    names = _vertex_ids(kappa)
    for _, vertices, w in _witnesses(g, kappa):
        pair = ",".join(names[v] for v in vertices)
        yield f"{{{pair}}} P={_set_text(w.subset)} value={_set_text(w.value)}"


def sorted_ids(graph: LabelledGraph) -> tuple[list, list[tuple]]:
    """The vertex ids in index order, and the edges as id pairs sorted by index.

    Every graph ``direct_reduction_graph`` and ``parse_direct_json`` build
    holds its ids as ``_vertex_ids`` does, so index order is J2, Jp2, J3, Jp3, ...
    """
    names = list(graph.ids)
    n = len(names)
    # an edge as the int low * n + high sorts as its index pair does, and ints sort faster
    keys = sorted(v * n + w if v < w else w * n + v for v, w in graph.index_pairs())
    return names, [(names[k // n], names[k % n]) for k in keys]


# ---------------------------------------------------------------------------
# JSON wire format

def emit_direct_json(graph: LabelledGraph) -> str:
    import json

    kappa = max(graph.index_labels)
    payload = {"kappa": kappa, "edges": [[a, b] for a, b in sorted_ids(graph)[1]]}
    return json.dumps(payload, separators=(",", ":"))


def parse_direct_json(text: str) -> LabelledGraph:
    """The graph ``emit_direct_json`` wrote; a third edge at a vertex is a ``ParseError``."""
    import json

    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or set(payload) != {"kappa", "edges"}:
        raise ParseError("direct graph JSON needs exactly 'kappa' and 'edges'")
    kappa = payload["kappa"]
    if not isinstance(kappa, int) or kappa < 2:
        raise ParseError(f"kappa must be an integer >= 2, got {kappa!r}")
    if kappa > MAX_DIRECT_KAPPA:
        raise CapError(f"direct graph JSON has kappa {kappa}, over the bound {MAX_DIRECT_KAPPA}")
    if not isinstance(payload["edges"], list):
        raise ParseError(f"direct graph JSON 'edges' must be a list, "
                         f"got {type(payload['edges']).__name__}")
    index = {name: i for i, name in enumerate(_vertex_ids(kappa))}
    pairs = []
    for pair in payload["edges"]:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"malformed edge {pair!r}")
        for name in pair:
            if not isinstance(name, str) or name not in index:
                raise ParseError(f"unknown vertex {name!r}")
        if pair[0] == pair[1]:
            raise ParseError(f"self-loop on {pair[0]!r}")
        pairs.append((index[pair[0]], index[pair[1]]))
    try:
        return LabelledGraph.from_index_pairs(_index_labels(kappa), pairs, (_vertex_ids, kappa))
    except ValueError as exc:  # a third edge at a vertex
        raise ParseError(str(exc)) from exc
