"""Signed overlap graphs of legal strings, with an exact realism decision that needs no search."""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property

from . import pointers
from .errors import ParseError, RealismError
from .record import Record


def bits(mask: int):
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _slot_masks(n: int) -> list[int]:
    """Zeroed neighbour masks for n vertices: slots 0..n+1, or just slot 0 if n is 0."""
    return [0] * (n + 2 if n else 1)


class OverlapGraph(Record):
    """Vertex-signed simple graph on a set of pointer magnitudes.

    The graph holds bitmasks over slots: slot s holds the vertex
    ``vertex_order[s - 2]``, so slot 2 holds the smallest, on {2..kappa}
    a vertex's slot is its magnitude, and the masks grow with the vertex
    count, not with the magnitudes.  ``vertex_mask`` and ``positive_mask``
    have the bits of the vertices and of the positive vertices, and
    ``neighbor_masks[s]`` those of the neighbours of slot s; the tuple
    runs to the last slot (``(0,)`` for the empty graph).  ``vertices``,
    ``positive`` and ``edges`` are views derived on first use; equality
    and hashing use the masks.
    """

    def __init__(self, vertices, positive, edges):
        vertices, positive = frozenset(vertices), frozenset(positive)
        if not positive <= vertices:
            raise ValueError("positive vertices must be vertices")
        order = tuple(sorted(vertices))
        slot = {p: s for s, p in enumerate(order, 2)}
        masks = _slot_masks(len(order))
        for p, q in edges:
            if p == q:
                raise ValueError("self-loops are not allowed")
            if p > q:
                raise ValueError("edge pairs must be stored (min, max)")
            if p not in slot or q not in slot:
                raise ValueError(f"edge ({p}, {q}) leaves the vertex set")
            masks[slot[p]] |= 1 << slot[q]
            masks[slot[q]] |= 1 << slot[p]
        self._fill(order, sum(1 << slot[p] for p in positive), masks)

    @classmethod
    def _from_masks(cls, order: tuple, positive_mask: int, masks) -> OverlapGraph:
        """The graph on the sorted vertices order with these slot masks, unchecked."""
        g = cls.__new__(cls)
        g._fill(order, positive_mask, masks)
        return g

    def _fill(self, order, positive_mask, masks):
        self.__dict__.update(
            vertex_order=order,
            vertex_mask=(1 << (len(order) + 2)) - 4,
            positive_mask=positive_mask,
            neighbor_masks=tuple(masks),
        )

    def _fields(self) -> tuple:
        return self.vertex_order, self.positive_mask, self.neighbor_masks

    def __repr__(self) -> str:
        return (f"OverlapGraph(vertices={self.vertices!r}, positive={self.positive!r}, "
                f"edges={self.edges!r})")

    @cached_property
    def vertices(self) -> frozenset[int]:
        return frozenset(self.vertex_order)

    @cached_property
    def positive(self) -> frozenset[int]:
        return frozenset(self.vertex_order[s - 2] for s in bits(self.positive_mask))

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Each edge as a (min, max) pair."""
        return frozenset((p, q) for p, above in self.neighbors_above() for q in above)

    def neighbors_above(self, names=None):
        """(p, the neighbours of p larger than p, ascending) for each p that has one, in order.

        A walk over the masks, so the edges come in sorted order.  ``names``,
        if given, names each vertex in sorted order (as its text, say), and
        the neighbours come as their names.
        """
        order = self.vertex_order
        names = order if names is None else names
        for s, mask in enumerate(self.neighbor_masks):
            above = mask >> (s + 1)
            if above:
                # bin() reversed reads bit 0 first, the vertex in slot s + 1;
                # on dense masks this is twice as fast as peeling bits off
                yield order[s - 2], [q for q, bit in zip(names[s - 1 :], bin(above)[:1:-1])
                                     if bit == "1"]

    def sign(self, p: int) -> str:
        if p not in self.vertices:
            raise ValueError(f"{p} is not a vertex")
        return "+" if p in self.positive else "-"

    def neighbors(self, q: int) -> frozenset[int]:
        if q not in self.vertices:
            raise ValueError(f"{q} is not a vertex")
        order = self.vertex_order
        mask = self.neighbor_masks[bisect_left(order, q) + 2]
        return frozenset(order[t - 2] for t in bits(mask))

    @cached_property
    def component_masks(self) -> tuple[int, ...]:
        """Slot masks of the connected components, by smallest vertex: one BFS over the masks."""
        masks = self.neighbor_masks
        left = self.vertex_mask
        comps = []
        while left:
            comp = frontier = left & -left
            while frontier:
                reach = 0
                for s in bits(frontier):
                    reach |= masks[s]
                frontier = reach & ~comp
                comp |= frontier
            comps.append(comp)
            left ^= comp
        return tuple(comps)

    def nullity(self) -> int:
        """The nullity over GF(2) of A, the adjacency matrix with a 1 at each positive vertex.

        Every successful GPRS reduction of the graph, realistic or not, uses
        exactly this many gnr rules:

        * gnr removes an isolated negative vertex, a zero row and column of
          A, so the nullity drops by one;
        * gpr at a positive p is the Schur complement of A at the 1 on p's
          diagonal (local complementation at p, the signs of N(p) flipped),
          and gdr at adjacent negatives p, q the Schur complement at the
          invertible block [[0, 1], [1, 0]] (the pivot, no sign changes);
          a Schur complement at an invertible block keeps the nullity;
        * the empty graph has nullity 0.

        So the paper's "components of the reduction graph - 1" is this
        number on the graph side.  One pass builds an xor basis of the rows
        (``neighbor_masks[s]`` with bit s set when s is positive), keyed by
        each row's highest bit; the rows it does not add are the nullity.
        It is computed on each call, never when the graph is built.
        """
        masks, positive = self.neighbor_masks, self.positive_mask
        basis: dict[int, int] = {}  # highest bit -> basis row
        for s in range(2, len(self.vertex_order) + 2):
            row = masks[s] | (positive & (1 << s))
            while row:
                top = row.bit_length() - 1
                pivot = basis.get(top)
                if pivot is None:
                    basis[top] = row
                    break
                row ^= pivot
        return len(self.vertex_order) - len(basis)

    def components(self) -> list[frozenset[int]]:
        """Connected components, ordered by smallest vertex."""
        order = self.vertex_order
        return [frozenset(order[s - 2] for s in bits(comp)) for comp in self.component_masks]

    def is_discrete(self) -> bool:
        return not any(self.neighbor_masks)

    def contiguous_domain(self) -> bool:
        """True iff the vertex set is exactly {2, ..., kappa} for some kappa >= 2.

        The vertices are sorted and distinct, so the two ends decide it.
        """
        order = self.vertex_order
        return bool(order) and order[0] == 2 and order[-1] == len(order) + 1

    def kappa(self) -> int:
        """kappa for a graph on {2..kappa}; any other vertex set raises ``RealismError``.

        Realistic graphs, the only ones the paper builds reduction graphs
        from, always have such a vertex set.  It guards the direct
        construction; the realism decision makes ``contiguous_domain``'s
        test itself, and the negative-rule count and the classifier read neither,
        as ``nullity`` holds on any vertex set.
        """
        if not self.contiguous_domain():
            raise RealismError("overlap graph is not realistic: its vertex set is not {2..kappa}")
        return len(self.vertex_order) + 1


def overlap_graph(u) -> OverlapGraph:
    """Overlap graph of a legal string: overlapping pairs, signed by polarity.

    One pass with prefix bitmasks over slots: ``seen`` holds the slots of
    the magnitudes occurring an odd number of times so far, so at the
    second occurrence of p its XOR with the value just after the first
    occurrence leaves exactly the magnitudes that occur once between the
    two, the neighbours of p.
    """
    u = tuple(u)
    at = pointers.occurrence_index(u)  # raises unless u is legal
    order = tuple(sorted(at))
    slot = {p: s for s, p in enumerate(order, 2)}
    masks = _slot_masks(len(order))
    opened: dict[int, int] = {}
    seen = 0
    for x in u:
        s = slot[-x if x < 0 else x]
        if s in opened:
            masks[s] = seen ^ opened[s]
        seen ^= 1 << s
        opened.setdefault(s, seen)
    # summed in slot order, so each partial sum is as short as it can be
    positive = sum(1 << s for s, p in enumerate(order, 2) if u[at[p][0] - 1] != u[at[p][1] - 1])
    return OverlapGraph._from_masks(order, positive, masks)


def is_realistic_overlap(g: OverlapGraph):
    """A witness arrangement encoding to g, or None if g is not realistic.

    The witness is the first arrangement in scan order, reconstructed in
    O(kappa) big-int steps with no search (see ``kernels``), so any kappa
    is decided.  Graphs whose vertex set is not exactly {2..kappa} are
    rejected first, by ``contiguous_domain``'s one test of the sorted
    vertices' two ends (encoded strings never have domain gaps), and the
    reconstruction runs on the kappa that test implies.
    """
    from . import kernels

    if not g.contiguous_domain():
        return None
    kappa = len(g.vertex_order) + 1  # the vertex set is {2..kappa}, as just tested
    return kernels.scan_for_arrangement(g.neighbor_masks, g.positive_mask, kappa)


def require_realistic(g: OverlapGraph):
    """The witness of ``is_realistic_overlap``; ``RealismError`` if there is none."""
    arr = is_realistic_overlap(g)
    if arr is None:
        raise RealismError("overlap graph is not realistic")
    return arr


# ---------------------------------------------------------------------------
# JSON wire format

def emit_overlap_json(g: OverlapGraph) -> str:
    """Canonical JSON: vertices sorted by magnitude, edge pairs sorted.

    Written as text, one join per vertex, in the bytes ``json.dumps`` gives
    with separators (",", ":"); no list of edges is built.
    """
    vertices = ",".join(f'{{"p":{p},"sign":"{g.sign(p)}"}}' for p in g.vertex_order)
    closers = [f"{q}]" for q in g.vertex_order]
    edges = ",".join(f"[{p}," + f",[{p},".join(above)
                     for p, above in g.neighbors_above(closers))
    return '{"vertices":[' + vertices + '],"edges":[' + edges + "]}"


_GRAPH_KEYS = frozenset({"vertices", "edges"})
_VERTEX_KEYS = frozenset({"p", "sign"})


def parse_overlap_json(text: str) -> OverlapGraph:
    """The graph ``emit_overlap_json`` writes; anything else is a ``ParseError`` saying what.

    ``json.loads`` builds only exact dicts, lists and ints (or bools), so
    the type tests are ``type(x) is``.  An edge whose ends are both ints
    naming two different vertices is joined at once; any other edge goes
    to ``_edge_error``, which tells which check it fails.
    """
    import json

    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if type(payload) is not dict or payload.keys() != _GRAPH_KEYS:
        raise ParseError("overlap graph JSON needs exactly 'vertices' and 'edges'")
    for key in ("vertices", "edges"):
        if type(payload[key]) is not list:
            raise ParseError(f"overlap graph JSON '{key}' must be a list, "
                             f"got {type(payload[key]).__name__}")
    signs = {}
    for entry in payload["vertices"]:
        if type(entry) is not dict or entry.keys() != _VERTEX_KEYS:
            raise ParseError(f"malformed vertex entry {entry!r}")
        p = entry["p"]
        if type(p) is not int or p < 2:  # a bool fails either way: it is below 2
            raise ParseError(f"vertex magnitude must be an integer >= 2, got {p!r}")
        if p in signs:
            raise ParseError(f"duplicate vertex {p}")
        sign = entry["sign"]
        if sign not in ("+", "-"):
            raise ParseError(f"vertex sign must be '+' or '-', got {sign!r}")
        signs[p] = sign
    order = tuple(sorted(signs))
    slot = {}
    positive = 0
    for s, p in enumerate(order, 2):
        slot[p] = s
        if signs[p] == "+":
            positive |= 1 << s
    masks = _slot_masks(len(order))
    for pair in payload["edges"]:
        if type(pair) is not list or len(pair) != 2:
            raise ParseError(f"malformed edge {pair!r}")
        p, q = pair
        s = slot.get(p) if type(p) is int else None
        t = slot.get(q) if type(q) is int else None
        if s is None or t is None or s == t:
            _edge_error(pair)
        masks[s] |= 1 << t
        masks[t] |= 1 << s
    return OverlapGraph._from_masks(order, positive, masks)


def _edge_error(pair):
    """Raise the ``ParseError`` for an edge that does not join two vertices, checks in order."""
    p, q = pair
    if not isinstance(p, int) or not isinstance(q, int):
        raise ParseError(f"malformed edge {pair!r}")
    if p == q:
        raise ParseError(f"self-loop on {p}")
    raise ParseError(f"edge ({p}, {q}) references a missing vertex")
