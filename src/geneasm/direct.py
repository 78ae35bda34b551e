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
size of the output.  Sets are int bitmasks from
``OverlapGraph.neighbor_masks``.  The graph is built on vertex indices,
J_p at 2(p-2) and J'_p at 2(p-2)+1, and keeps only kappa to name them:
its vertex ids, the strings "J<p>" and "Jp<p>" (serialized verbatim),
are made on first use.
"""

from __future__ import annotations

from .compress import LabelledGraph
from .errors import CapError, ParseError
from .overlap import OverlapGraph
from .record import Record

MAX_DIRECT_KAPPA = 1 << 16  # parse_direct_json builds all 2(kappa - 1) vertices


def _vertex_ids(kappa: int) -> tuple[str, ...]:
    """The ids by vertex index: J_p at 2(p-2) and J'_p at 2(p-2)+1."""
    return tuple(name for p in range(2, kappa + 1) for name in (f"J{p}", f"Jp{p}"))


def _graph(kappa: int, pairs) -> LabelledGraph:
    """The graph on J2, Jp2, ..., Jkappa, Jpkappa (each labelled p) joining each index pair."""
    index_labels = tuple(p for p in range(2, kappa + 1) for _ in (0, 1))
    return LabelledGraph.from_index_pairs(index_labels, pairs, (_vertex_ids, kappa))


class Witness(Record):
    """A satisfied edge condition: the index set P and the evaluated XOR chain."""

    __slots__ = ("subset", "value")

    def __init__(self, subset: frozenset[int], value: frozenset[int]):
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "value", value)


def _matches(g: OverlapGraph, kappa: int) -> list[tuple[int, int, int, int]]:
    """Each pair of ends of different vertices with equal keys, as (v, w, a, b) with a <= b.

    v and w are vertex indices as in ``_vertex_ids``; a and b are the
    prefix indices of the ends of v and w.  Each end is matched against the
    ends made before it as it is made.
    """
    masks, positive = g.neighbor_masks, g.positive_mask
    s = [0, 0]  # S(k) for k = 0..kappa
    for t in range(2, kappa + 1):
        s.append(s[-1] ^ masks[t] ^ (positive & (1 << t)))
    found = []
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
                    found.append((w, v, b, a) if b <= a else (v, w, a, b))
            bucket.append((a, v))
    return found


def direct_reduction_graph(g: OverlapGraph) -> LabelledGraph:
    """The root chain plus an edge for each matched pair of ends.

    The caller is responsible for realism; other input gets edges by the
    same rule, whose maximum degree 2 held on every signed graph up to
    kappa 6 and on 40,000 random ones up to kappa 24 (a third edge would
    raise ``ValueError``).  The kappa-3 match J'_2 - J'_3 repeats a chain edge.
    """
    kappa = g.kappa()
    pairs = [(v, v + 2) for v in range(1, 2 * kappa - 3, 2)]
    pairs += [(v, w) for v, w, _, _ in _matches(g, kappa)]
    return _graph(kappa, pairs)


def _witnesses(g: OverlapGraph, kappa: int) -> list[tuple[tuple, list[int], Witness]]:
    """(sort key, vertex indices root first, witness) for each window.

    They come in candidate order: J_p - J_q by (p, q); then for each p,
    J'_2 - J_p and J'_kappa - J_p; then J'_2 - J'_kappa; each edge's by (lo, hi).
    """
    found = []
    for v, w, a, b in _matches(g, kappa):
        roots = sorted(x for x in (v, w) if x & 1)
        if len(roots) == 2 and kappa <= 3:
            continue
        js = sorted(x for x in (v, w) if not x & 1)
        window = frozenset(range(a + 1, b + 1))
        value = (g.positive & window) ^ frozenset(x // 2 + 2 for x in js)
        found.append(((len(roots), *js, *roots, a, b), roots + js, Witness(window, value)))
    found.sort(key=lambda item: item[0])
    return found


def condition_witnesses(g: OverlapGraph, edge) -> list[Witness]:
    """All index sets satisfying the condition for one vertex pair, ordered by sorted(P).

    The pair is of vertex ids such as ("J2", "J6") or ("Jp2", "Jp7");
    root-chain edges {J'_p, J'_(p+1)} hold unconditionally and report a
    single empty witness, and pairs without a matched pair of ends have none.
    """
    kappa = g.kappa()
    index = {name: v for v, name in enumerate(_vertex_ids(kappa))}
    if not all(name in index for name in edge):
        raise ValueError(f"a vertex of {tuple(edge)!r} is not one of J2..J{kappa}, Jp2..Jp{kappa}")
    v, w = sorted(index[name] for name in edge)
    if v & 1 and w == v + 2:
        return [Witness(subset=frozenset(), value=frozenset())]
    return [x for _, pair, x in _witnesses(g, kappa) if sorted(pair) == [v, w]]


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
    pairs = sorted((v, w) for partners in (graph.first, graph.second)
                   for v, w in enumerate(partners) if v < w)
    return names, [(names[v], names[w]) for v, w in pairs]


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
        return _graph(kappa, pairs)
    except ValueError as exc:  # a third edge at a vertex
        raise ParseError(str(exc)) from exc
