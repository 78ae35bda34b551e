"""Signed overlap graphs of legal strings, with an exact realism decision."""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

from . import pointers
from .compress import components, neighbor_table
from .errors import CapError, ParseError, RealismError

DEFAULT_MAX_KAPPA = 12


def _max_kappa_default() -> int:
    value = os.environ.get("GENEASM_MAX_KAPPA", "")
    if not value:
        return DEFAULT_MAX_KAPPA
    try:
        return int(value)
    except ValueError:
        raise CapError(f"GENEASM_MAX_KAPPA must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class OverlapGraph:
    """Vertex-signed simple graph on a set of pointer magnitudes."""

    vertices: frozenset[int]
    positive: frozenset[int]
    edges: frozenset[tuple[int, int]]  # each pair stored as (min, max)

    def __post_init__(self):
        if not self.positive <= self.vertices:
            raise ValueError("positive vertices must be vertices")
        for p, q in self.edges:
            if p == q:
                raise ValueError("self-loops are not allowed")
            if p > q:
                raise ValueError("edge pairs must be stored (min, max)")
            if p not in self.vertices or q not in self.vertices:
                raise ValueError(f"edge ({p}, {q}) leaves the vertex set")

    @property
    def negative(self) -> frozenset[int]:
        return self.vertices - self.positive

    def sign(self, p: int) -> str:
        if p not in self.vertices:
            raise ValueError(f"{p} is not a vertex")
        return "+" if p in self.positive else "-"

    @cached_property
    def _adjacency(self) -> dict[int, frozenset[int]]:
        """Built on first use; not a field, so not compared."""
        return neighbor_table(self.vertices, self.edges)

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Neighbour bitmask of each vertex, indexed by magnitude.

        Entry p has bit q set for every edge p-q; entries of non-vertices
        are 0, and the tuple ends at the largest vertex.  Built on first
        use (``overlap_graph`` fills it in as it scans); not a field, so
        not compared.
        """
        masks = [0] * (max(self.vertices, default=0) + 1)
        for p, q in self.edges:
            masks[p] |= 1 << q
            masks[q] |= 1 << p
        return tuple(masks)

    def neighbors(self, q: int) -> frozenset[int]:
        if q not in self.vertices:
            raise ValueError(f"{q} is not a vertex")
        return self._adjacency[q]

    def components(self) -> list[frozenset[int]]:
        """Connected components, ordered by smallest vertex."""
        return components(sorted(self.vertices), self._adjacency.__getitem__)

    def is_discrete(self) -> bool:
        return not self.edges

    def contiguous_domain(self) -> bool:
        """True iff the vertex set is exactly {2, ..., kappa}."""
        return self.vertices == frozenset(range(2, len(self.vertices) + 2))


def make_edge(p: int, q: int) -> tuple[int, int]:
    if p == q:
        raise ValueError("self-loops are not allowed")
    return (p, q) if p < q else (q, p)


def overlap_graph(u) -> OverlapGraph:
    """Overlap graph of a legal string: overlapping pairs, signed by polarity.

    One pass with prefix bitmasks: ``seen`` holds the magnitudes occurring
    an odd number of times so far, so at the second occurrence of p its
    XOR with the value just after the first occurrence leaves exactly the
    magnitudes that occur once between the two, the neighbours of p.
    """
    u = tuple(u)
    pos = pointers.positive_set(u)  # raises unless u is legal
    opened: dict[int, int] = {}
    masks = [0] * (max(map(pointers.magnitude, u), default=0) + 1)
    seen = 0
    edges = []
    for x in u:
        p = pointers.magnitude(x)
        if p in opened:
            masks[p] = between = seen ^ opened[p]
            between &= -(2 << p)  # each edge once, from its smaller end
            while between:
                low = between & -between
                edges.append((p, low.bit_length() - 1))
                between ^= low
        seen ^= 1 << p
        opened.setdefault(p, seen)
    g = OverlapGraph(vertices=frozenset(opened), positive=pos, edges=frozenset(edges))
    g.__dict__["neighbor_masks"] = tuple(masks)  # the cached_property's slot
    return g


def is_realistic_overlap(g: OverlapGraph, max_kappa: int | None = None):
    """A witness arrangement encoding to g, or None if g is not realistic.

    The witness is the first arrangement in scan order (see ``kernels``),
    found by a pruned depth-first search.  Graphs whose vertex set is not
    exactly {2..kappa} are rejected immediately (encoded strings never have
    domain gaps).  The search is exponential in the worst case, so kappa is
    capped (default 12, overridable via the argument or GENEASM_MAX_KAPPA);
    a larger graph raises CapError.
    """
    from . import kernels

    if max_kappa is None:
        max_kappa = _max_kappa_default()
    if not g.vertices or not g.contiguous_domain():
        return None
    kappa = len(g.vertices) + 1
    if kappa > max_kappa:
        raise CapError(
            f"kappa={kappa} exceeds the realism cap {max_kappa}; "
            "raise --max-kappa or GENEASM_MAX_KAPPA"
        )
    positive_mask = sum(1 << p for p in g.positive)
    return kernels.scan_for_arrangement(g.neighbor_masks, positive_mask, kappa)


def require_realistic(g: OverlapGraph, max_kappa: int | None = None):
    arr = is_realistic_overlap(g, max_kappa=max_kappa)
    if arr is None:
        raise RealismError("overlap graph is not realistic")
    return arr


# ---------------------------------------------------------------------------
# JSON wire format

def emit_overlap_json(g: OverlapGraph) -> str:
    """Canonical JSON: vertices sorted by magnitude, edge pairs sorted."""
    import json

    payload = {
        "vertices": [{"p": p, "sign": g.sign(p)} for p in sorted(g.vertices)],
        "edges": [[p, q] for p, q in sorted(g.edges)],
    }
    return json.dumps(payload, separators=(",", ":"))


def parse_overlap_json(text: str) -> OverlapGraph:
    import json

    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or set(payload) != {"vertices", "edges"}:
        raise ParseError("overlap graph JSON needs exactly 'vertices' and 'edges'")
    vertices = set()
    positive = set()
    for entry in payload["vertices"]:
        if not isinstance(entry, dict) or set(entry) != {"p", "sign"}:
            raise ParseError(f"malformed vertex entry {entry!r}")
        p = entry["p"]
        if not isinstance(p, int) or p < 2:
            raise ParseError(f"vertex magnitude must be an integer >= 2, got {p!r}")
        if p in vertices:
            raise ParseError(f"duplicate vertex {p}")
        if entry["sign"] not in ("+", "-"):
            raise ParseError(f"vertex sign must be '+' or '-', got {entry['sign']!r}")
        vertices.add(p)
        if entry["sign"] == "+":
            positive.add(p)
    edges = set()
    for pair in payload["edges"]:
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, int) for x in pair)
        ):
            raise ParseError(f"malformed edge {pair!r}")
        p, q = pair
        if p == q:
            raise ParseError(f"self-loop on {p}")
        if p not in vertices or q not in vertices:
            raise ParseError(f"edge ({p}, {q}) references a missing vertex")
        edges.add(make_edge(p, q))
    return OverlapGraph(
        vertices=frozenset(vertices),
        positive=frozenset(positive),
        edges=frozenset(edges),
    )
