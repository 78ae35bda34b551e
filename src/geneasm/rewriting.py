"""String and graph pointer reduction rules, search, and successfulness.

Rule bodies follow the standard gene-assembly definitions.  String side:
the negative rule drops an adjacent equal pair (u1 p p u2 -> u1 u2), the
positive rule drops a complementary pair and inverts the enclosed factor
(u1 p u2 p- u3 -> u1 inv(u2) u3), the double rule drops two interleaved
negative pairs and swaps the segments between them
(u1 p u2 q u3 p u4 q u5 -> u1 u4 u3 u2 u5).  Graph side: the negative
rule removes an isolated negative vertex, the positive rule locally
complements at a positive vertex (toggling edges among its neighbors and
flipping their signs) before removing it, and the double rule removes
two adjacent negative vertices, toggling each outside pair that is seen
an odd number of times across the two neighborhoods.

Reduction sequences are serialized in composition order (rightmost rule
applied first), e.g. ``gnr_4 gdr_{5,7} gnr_2 gdr_{3,6}``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import permutations

from . import pointers
from .errors import CapError, ParseError
from .overlap import OverlapGraph, make_edge

STRING_KINDS = ("snr", "spr", "sdr")
GRAPH_KINDS = ("gnr", "gpr", "gdr")

ALL_STRING_RULES = frozenset(STRING_KINDS)
ALL_GRAPH_RULES = frozenset(GRAPH_KINDS)

DEFAULT_STRING_DOMAIN_CAP = 6
DEFAULT_GRAPH_KAPPA_CAP = 7


@dataclass(frozen=True)
class StringRule:
    kind: str
    params: tuple[int, ...]

    def __str__(self) -> str:
        if len(self.params) == 1:
            return f"{self.kind}_{self.params[0]}"
        return f"{self.kind}_{{{self.params[0]},{self.params[1]}}}"


@dataclass(frozen=True)
class GraphRule:
    kind: str
    params: tuple[int, ...]

    def __str__(self) -> str:
        if len(self.params) == 1:
            return f"{self.kind}_{self.params[0]}"
        return f"{self.kind}_{{{self.params[0]},{self.params[1]}}}"


def _check_kinds(kinds, allowed):
    kinds = frozenset(kinds)
    if not kinds <= frozenset(allowed):
        raise ValueError(f"unknown rule kinds {sorted(kinds - frozenset(allowed))}")
    return kinds


# ---------------------------------------------------------------------------
# string rules

def applicable_string_rules(u, kinds=ALL_STRING_RULES) -> list[StringRule]:
    """Rules applicable to a legal string, deterministically ordered."""
    kinds = _check_kinds(kinds, STRING_KINDS)
    u = tuple(u)
    dom = sorted(pointers.domain(u))
    pos = pointers.positive_set(u)
    out = []
    if "snr" in kinds:
        for p in dom:
            i, j = pointers.occurrence_positions(u, p)
            if j == i + 1 and u[i - 1] == u[j - 1]:
                out.append(StringRule("snr", (p,)))
    if "spr" in kinds:
        for p in dom:
            if p in pos:
                out.append(StringRule("spr", (p,)))
    if "sdr" in kinds:
        for a in range(len(dom)):
            for b in range(len(dom)):
                if a == b:
                    continue
                p, q = dom[a], dom[b]
                if p in pos or q in pos:
                    continue
                i1, i2 = pointers.occurrence_positions(u, p)
                j1, j2 = pointers.occurrence_positions(u, q)
                if i1 < j1 < i2 < j2:
                    out.append(StringRule("sdr", (p, q)))
    return out


def apply_string_rule(u, rule: StringRule):
    """Apply one rule; the result is legal with a strictly smaller domain."""
    u = tuple(u)
    if rule not in applicable_string_rules(u, kinds=(rule.kind,)):
        raise ValueError(f"rule {rule} is not applicable to {u}")
    if rule.kind == "snr":
        (p,) = rule.params
        i, j = pointers.occurrence_positions(u, p)
        return u[: i - 1] + u[j:]
    if rule.kind == "spr":
        (p,) = rule.params
        i, j = pointers.occurrence_positions(u, p)
        return u[: i - 1] + pointers.inverse(u[i : j - 1]) + u[j:]
    p, q = rule.params
    i1, i2 = pointers.occurrence_positions(u, p)
    j1, j2 = pointers.occurrence_positions(u, q)
    return (
        u[: i1 - 1]
        + u[i2 : j2 - 1]  # segment between the second p and the second q
        + u[j1 : i2 - 1]  # segment between the first q and the second p
        + u[i1 : j1 - 1]  # segment between the first p and the first q
        + u[j2:]
    )


def successful_string_reductions(u, kinds=ALL_STRING_RULES, max_domain=DEFAULT_STRING_DOMAIN_CAP):
    """Yield every rule sequence (application order) reducing u to the empty string.

    Plain depth-first enumeration; per-string successor lists are memoized
    on the exact string so shared substructure is computed once.
    """
    kinds = _check_kinds(kinds, STRING_KINDS)
    u = tuple(u)
    if len(pointers.domain(u)) > max_domain:
        raise CapError(f"domain exceeds the search cap {max_domain}")
    edges: dict[tuple, list[tuple[StringRule, tuple]]] = {}

    def successors(v):
        if v not in edges:
            edges[v] = [(r, apply_string_rule(v, r)) for r in applicable_string_rules(v, kinds)]
        return edges[v]

    prefix: list[StringRule] = []

    def walk(v):
        if not v:
            yield list(prefix)
            return
        for rule, w in successors(v):
            prefix.append(rule)
            yield from walk(w)
            prefix.pop()

    yield from walk(u)


def is_successful_string(u, kinds=ALL_STRING_RULES, max_domain=DEFAULT_STRING_DOMAIN_CAP) -> bool:
    """Decision variant with memoization on exact strings."""
    kinds = _check_kinds(kinds, STRING_KINDS)
    u = tuple(u)
    if len(pointers.domain(u)) > max_domain:
        raise CapError(f"domain exceeds the search cap {max_domain}")
    memo: dict[tuple, bool] = {}

    def walk(v):
        if not v:
            return True
        if v in memo:
            return memo[v]
        memo[v] = False
        for rule in applicable_string_rules(v, kinds):
            if walk(apply_string_rule(v, rule)):
                memo[v] = True
                break
        return memo[v]

    return walk(u)


# ---------------------------------------------------------------------------
# graph rules

def applicable_graph_rules(g: OverlapGraph, kinds=ALL_GRAPH_RULES) -> list[GraphRule]:
    kinds = _check_kinds(kinds, GRAPH_KINDS)
    out = []
    if "gnr" in kinds:
        for p in sorted(g.negative):
            if not g.neighbors(p):
                out.append(GraphRule("gnr", (p,)))
    if "gpr" in kinds:
        for p in sorted(g.positive):
            out.append(GraphRule("gpr", (p,)))
    if "gdr" in kinds:
        for p, q in sorted(g.edges):
            if p in g.negative and q in g.negative:
                out.append(GraphRule("gdr", (p, q)))
    return out


def apply_graph_rule(g: OverlapGraph, rule: GraphRule) -> OverlapGraph:
    if rule not in applicable_graph_rules(g, kinds=(rule.kind,)):
        raise ValueError(f"rule {rule} is not applicable")
    if rule.kind == "gnr":
        (p,) = rule.params
        return OverlapGraph(
            vertices=g.vertices - {p},
            positive=g.positive,
            edges=g.edges,
        )
    if rule.kind == "gpr":
        (p,) = rule.params
        nbrs = g.neighbors(p)
        keep = g.vertices - {p}
        edges = {e for e in g.edges if p not in e}
        for x in sorted(nbrs):
            for y in sorted(nbrs):
                if x < y:
                    e = make_edge(x, y)
                    if e in edges:
                        edges.remove(e)
                    else:
                        edges.add(e)
        return OverlapGraph(
            vertices=frozenset(keep),
            positive=(g.positive - {p}) ^ nbrs,
            edges=frozenset(edges),
        )
    p, q = rule.params
    np_, nq = g.neighbors(p), g.neighbors(q)
    keep = g.vertices - {p, q}
    edges = {e for e in g.edges if p not in e and q not in e}
    for x in sorted(keep):
        for y in sorted(keep):
            if x >= y:
                continue
            hits = int(x in np_ and y in nq) + int(x in nq and y in np_)
            if hits % 2 == 1:
                e = make_edge(x, y)
                if e in edges:
                    edges.remove(e)
                else:
                    edges.add(e)
    return OverlapGraph(
        vertices=frozenset(keep),
        positive=g.positive & keep,
        edges=frozenset(edges),
    )


def canonical_graph_key(g: OverlapGraph) -> str:
    """Canonical encoding up to sign-preserving relabeling.

    Vertices are partitioned by iterated (sign, neighbor-class) refinement;
    the key is the minimum adjacency encoding over the bijections that
    respect the final classes, so isomorphic graphs share keys exactly.
    """
    verts = sorted(g.vertices)
    colour = {v: (g.sign(v),) for v in verts}
    while True:
        refined = {
            v: (colour[v], tuple(sorted(colour[w] for w in g.neighbors(v))))
            for v in verts
        }
        if len(set(refined.values())) == len(set(colour.values())):
            colour = refined
            break
        colour = refined
    classes: dict = {}
    for v in verts:
        classes.setdefault(colour[v], []).append(v)
    ordered = [classes[c] for c in sorted(classes, key=repr)]

    best = None
    for perm_parts in _class_permutations(ordered):
        index = {}
        for slot, v in enumerate(perm_parts):
            index[v] = slot
        signs = tuple(g.sign(v) for v in perm_parts)
        bits = 0
        for p, q in g.edges:
            a, b = index[p], index[q]
            if a > b:
                a, b = b, a
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


def successful_graph_reductions(g: OverlapGraph, kinds=ALL_GRAPH_RULES, max_kappa=DEFAULT_GRAPH_KAPPA_CAP):
    """Yield every rule sequence (application order) reducing g to the empty graph."""
    kinds = _check_kinds(kinds, GRAPH_KINDS)
    if len(g.vertices) + 1 > max_kappa:
        raise CapError(f"kappa exceeds the search cap {max_kappa}")
    prefix: list[GraphRule] = []

    def walk(h):
        if not h.vertices:
            yield list(prefix)
            return
        for rule in applicable_graph_rules(h, kinds):
            prefix.append(rule)
            yield from walk(apply_graph_rule(h, rule))
            prefix.pop()

    yield from walk(g)


def successful_in(g: OverlapGraph, kinds, max_kappa=DEFAULT_GRAPH_KAPPA_CAP) -> bool:
    """Exhaustive search decision, memoized on canonical graph keys."""
    kinds = _check_kinds(kinds, GRAPH_KINDS)
    if len(g.vertices) + 1 > max_kappa:
        raise CapError(f"kappa exceeds the search cap {max_kappa}")
    memo: dict[str, bool] = {}

    def walk(h):
        if not h.vertices:
            return True
        key = canonical_graph_key(h)
        if key in memo:
            return memo[key]
        memo[key] = False
        for rule in applicable_graph_rules(h, kinds):
            if walk(apply_graph_rule(h, rule)):
                memo[key] = True
                break
        return memo[key]

    return walk(g)


def successful_in_classifier(g: OverlapGraph, kinds, reduction_components: int) -> bool:
    """Closed-form successfulness for realistic overlap graphs.

    ``reduction_components`` is the component count of the directly
    constructed reduction graph; connectivity of that graph is the only
    global ingredient the classification needs.
    """
    kinds = _check_kinds(kinds, GRAPH_KINDS)
    connected = reduction_components == 1
    components = g.components()
    all_negative = not g.positive
    if kinds == frozenset():
        return not g.vertices
    if kinds == {"gnr"}:
        return g.is_discrete() and all_negative
    if kinds == {"gpr"}:
        return connected and all(comp & g.positive for comp in components)
    if kinds == {"gdr"}:
        return connected and all_negative
    if kinds == {"gnr", "gpr"}:
        return all(len(comp) == 1 or comp & g.positive for comp in components)
    if kinds == {"gnr", "gdr"}:
        return all_negative
    if kinds == {"gpr", "gdr"}:
        return connected
    return True  # {gnr, gpr, gdr} always succeeds


# ---------------------------------------------------------------------------
# negative-rule counting

def predicted_negative_rule_count(x) -> int:
    """Component count of the associated reduction graph, minus one.

    Accepts a non-empty legal string (string side) or a realistic overlap
    graph with contiguous domain (graph side).
    """
    from . import direct, reduction

    if isinstance(x, OverlapGraph):
        if not x.vertices or not x.contiguous_domain():
            raise ValueError("graph-side prediction needs vertex set {2..kappa}")
        return direct.direct_reduction_graph(x).component_count() - 1
    seq = tuple(x)
    if not seq:
        raise ValueError("prediction is undefined for the empty string")
    return reduction.ReductionGraph(seq).component_count() - 1


# ---------------------------------------------------------------------------
# sequence serialization (composition order, rightmost applied first)

def format_rule_sequence(rules) -> str:
    return " ".join(str(r) for r in reversed(list(rules)))


_RULE_RE = re.compile(r"^(snr|spr|sdr|gnr|gpr|gdr)_(?:([0-9]+)|\{([0-9]+),([0-9]+)\})$")


def parse_rule_sequence(text: str):
    """Parse a serialized sequence back into application order."""
    rules = []
    for tok in text.split():
        m = _RULE_RE.match(tok)
        if not m:
            raise ParseError(f"malformed rule token {tok!r}")
        kind = m.group(1)
        if m.group(2) is not None:
            params: tuple[int, ...] = (int(m.group(2)),)
            if kind in ("sdr", "gdr"):
                raise ParseError(f"rule {tok!r} needs two parameters")
        else:
            params = (int(m.group(3)), int(m.group(4)))
            if kind not in ("sdr", "gdr"):
                raise ParseError(f"rule {tok!r} takes a single parameter")
        cls = StringRule if kind in STRING_KINDS else GraphRule
        rules.append(cls(kind, params))
    return list(reversed(rules))
