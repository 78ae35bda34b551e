"""Reduction graph built directly from a realistic overlap graph.

For a realistic overlap graph on {2..kappa} the compressed reduction
graph of any witness string can be reconstructed from the graph alone.
Vertices come in pairs J_p (off the root chain) and J'_p (on it); the
chain J'_2 - J'_3 - ... - J'_kappa is always present, and every other
candidate edge carries a symmetric-difference condition over the
neighbour sets N(t): the edge exists exactly when some index set P
satisfies

    XOR of N(t) for t in P  ==  (positives in P) XOR target

where P is a window of consecutive indices lo..hi (the core) together
with any choice of the optional endpoints.  Moving the positives to the
left, with D(t) = N(t) XOR ({t} if t is positive) and prefix sums
S(k) = D(2) XOR ... XOR D(k), the condition reads
S(hi) XOR S(lo - 1) XOR (D(e) for each chosen endpoint e) == target.
Sets are int bitmasks read from ``OverlapGraph.neighbor_masks``.

``direct_reduction_graph`` never tests a candidate on its own.  Choosing
the endpoint p of a window moves the prefix index by one, so for p < q
the J_p - J_q condition holds exactly when

    S(a) XOR {p}  ==  S(b) XOR {q}   for some a in {p-1, p}, b in {q-1, q}.

Each vertex J_t thus has two keys S(t-1) XOR {t} and S(t) XOR {t}, and
J_p - J_q is an edge exactly when p and q share a key: one pass that
buckets the vertices by key finds every such edge in O(kappa) dictionary
operations plus the size of the output.  The other families are O(kappa)
comparisons against S: J'_2 - J_p needs S(p-1) or S(p) to equal {p},
J'_kappa - J_p needs S(kappa) XOR S(p) or S(kappa) XOR S(p-1) to equal
{p}, and J'_2 - J'_kappa needs S(kappa) to be empty.  ``candidate_edges``
and ``condition_witnesses`` still list the candidates and evaluate each
condition choice by choice, which is what ``geneasm direct --explain``
prints.  Vertex ids are the strings "J<p>" and "Jp<p>" so edge lists can
be serialized verbatim.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .compress import LabelledGraph
from .errors import ParseError
from .overlap import OverlapGraph
from .record import Record

_VERTEX_RE = re.compile(r"^J(p?)([0-9]+)$")


def nonroot_vertex(p: int) -> str:
    return f"J{p}"


def root_vertex(p: int) -> str:
    return f"Jp{p}"


def _labels(kappa: int) -> dict[str, int]:
    labels = {}
    for p in range(2, kappa + 1):
        labels[nonroot_vertex(p)] = p
        labels[root_vertex(p)] = p
    return labels


def vertex_sort_key(name: str):
    m = _VERTEX_RE.match(name)
    if not m:
        raise ValueError(f"not a direct-construction vertex id: {name!r}")
    return (int(m.group(2)), 1 if m.group(1) else 0)


class Witness(Record):
    """A satisfied edge condition: the index set P and the evaluated XOR chain."""

    __slots__ = ("subset", "value")

    def __init__(self, subset: frozenset[int], value: frozenset[int]):
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "value", value)


def candidate_edges(kappa: int):
    """Candidate edges in a fixed order, each with its condition.

    A condition is (core, optional, target): P ranges over the core window
    (a range of indices) joined with every subset of the optional endpoints.
    Each pair is listed once; for kappa = 2 both ends of the root chain are
    J'_2, so {J'_2, J_2} comes only from the first.
    """
    for p in range(2, kappa + 1):
        for q in range(p + 1, kappa + 1):
            yield (nonroot_vertex(p), nonroot_vertex(q)), (range(p + 1, q), (p, q), (p, q))
    for p in range(2, kappa + 1):
        yield (root_vertex(2), nonroot_vertex(p)), (range(2, p), (p,), (p,))
        if kappa > 2:
            yield (root_vertex(kappa), nonroot_vertex(p)), (range(p + 1, kappa + 1), (p,), (p,))
    if kappa > 3:
        yield (root_vertex(2), root_vertex(kappa)), (range(2, kappa + 1), (), ())


@lru_cache(maxsize=1)  # `direct --explain` asks for every candidate of one kappa
def _condition_table(kappa: int) -> dict:
    """Conditions keyed by the vertex sort keys of the pair, as "J02" names J2."""
    return {
        frozenset(map(vertex_sort_key, pair)): condition
        for pair, condition in candidate_edges(kappa)
    }


def _kappa(g: OverlapGraph) -> int:
    if not g.vertices or not g.contiguous_domain():
        raise ValueError("direct construction needs vertex set {2..kappa}")
    return len(g.vertices) + 1


def _mask(ts) -> int:
    return sum(1 << t for t in ts)


def _prefix_xor(g: OverlapGraph, kappa: int) -> list[int]:
    """S(k) for k = 0..kappa as bitmasks, with S(0) = S(1) = 0."""
    masks, positive = g.neighbor_masks, g.positive_mask
    prefix = [0, 0]
    for t in range(2, kappa + 1):
        prefix.append(prefix[-1] ^ masks[t] ^ (positive & (1 << t)))
    return prefix


def _matching_subsets(g: OverlapGraph, prefix: list[int], condition) -> list[Witness]:
    """The edge test: every P satisfying one condition, ordered by sorted(P)."""
    core, optional, target = condition
    # (P', XOR of D over core + P') for every choice P' of optional endpoints
    choices = [((), prefix[core.stop - 1] ^ prefix[core.start - 1])]
    for e in optional:
        d = prefix[e] ^ prefix[e - 1]
        choices += [(extra + (e,), value ^ d) for extra, value in choices]
    want = _mask(target)
    hits = []
    for extra, value in choices:
        if value == want:
            subset = frozenset(core).union(extra)
            hits.append(Witness(subset=subset, value=(g.positive & subset) ^ frozenset(target)))
    hits.sort(key=lambda w: sorted(w.subset))
    return hits


def direct_reduction_graph(g: OverlapGraph) -> LabelledGraph:
    """The root chain plus every candidate edge whose condition holds.

    The caller is responsible for realism; on non-realistic input the edge
    set is still computed mechanically but carries no structural guarantee.
    """
    kappa = _kappa(g)
    s = _prefix_xor(g, kappa)
    pairs = [(root_vertex(p), root_vertex(p + 1)) for p in range(2, kappa)]
    if kappa > 3 and not s[kappa]:
        pairs.append((root_vertex(2), root_vertex(kappa)))
    buckets: dict[int, list[int]] = {}  # key S(a) ^ {t}, a in {t-1, t} -> those t
    for t in range(2, kappa + 1):
        bit = 1 << t
        if bit in (s[t - 1], s[t]):
            pairs.append((root_vertex(2), nonroot_vertex(t)))
        if kappa > 2 and bit in (s[kappa] ^ s[t - 1], s[kappa] ^ s[t]):
            pairs.append((root_vertex(kappa), nonroot_vertex(t)))
        for key in {s[t - 1] ^ bit, s[t] ^ bit}:
            buckets.setdefault(key, []).append(t)
    for bucket in buckets.values():
        for i, p in enumerate(bucket):
            pairs += [(nonroot_vertex(p), nonroot_vertex(q)) for q in bucket[i + 1 :]]
    return LabelledGraph._from_pairs(_labels(kappa), pairs)


def condition_witnesses(g: OverlapGraph, edge) -> list[Witness]:
    """All index sets satisfying the condition for one candidate edge.

    The candidate is a pair of vertex ids such as ("J2", "J6") or
    ("Jp2", "Jp7"); root-chain edges {J'_p, J'_(p+1)} hold unconditionally
    and report a single empty witness, and pairs that are not candidates
    have none.
    """
    kappa = _kappa(g)
    a, b = sorted(edge, key=vertex_sort_key)
    for name in (a, b):
        if not 2 <= vertex_sort_key(name)[0] <= kappa:
            raise ValueError(f"vertex {name!r} is outside 2..{kappa}")
    (ka, root_a), (kb, root_b) = keys = vertex_sort_key(a), vertex_sort_key(b)
    if root_a and root_b and kb == ka + 1:
        return [Witness(subset=frozenset(), value=frozenset())]
    condition = _condition_table(kappa).get(frozenset(keys))
    if condition is None:
        return []
    return _matching_subsets(g, _prefix_xor(g, kappa), condition)


# ---------------------------------------------------------------------------
# JSON wire format

def emit_direct_json(graph: LabelledGraph) -> str:
    import json

    kappa = max(graph.labels.values())
    pairs = [sorted(e, key=vertex_sort_key) for e in graph.edges]
    pairs.sort(key=lambda pair: tuple(vertex_sort_key(v) for v in pair))
    payload = {"kappa": kappa, "edges": [[a, b] for a, b in pairs]}
    return json.dumps(payload, separators=(",", ":"))


def parse_direct_json(text: str) -> LabelledGraph:
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
    if not isinstance(payload["edges"], list):
        raise ParseError(f"direct graph JSON 'edges' must be a list, "
                         f"got {type(payload['edges']).__name__}")
    labels = _labels(kappa)
    for pair in payload["edges"]:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"malformed edge {pair!r}")
        for name in pair:
            if name not in labels:
                raise ParseError(f"unknown vertex {name!r}")
        if pair[0] == pair[1]:
            raise ParseError(f"self-loop on {pair[0]!r}")
    return LabelledGraph._from_pairs(labels, payload["edges"])
