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

The graph rules act on bitmask states (V, P, adj) over the slots of
``OverlapGraph``, where each rule is one XOR per neighbour;
``applicable_graph_rules``, ``apply_graph_rule`` and both searches share
that one implementation, and name vertices by magnitude only in the rules
they hand out.  The string searches find each string's occurrence
positions once and apply its rules without re-checking them.

Reduction sequences are serialized in composition order (rightmost rule
applied first), e.g. ``gnr_4 gdr_{5,7} gnr_2 gdr_{3,6}``.
"""

from __future__ import annotations

import re

from . import pointers
from .errors import CapError, ParseError
from .overlap import OverlapGraph, _slot_masks, bits
from .record import Record

STRING_KINDS = ("snr", "spr", "sdr")
GRAPH_KINDS = ("gnr", "gpr", "gdr")

ALL_STRING_RULES = frozenset(STRING_KINDS)
ALL_GRAPH_RULES = frozenset(GRAPH_KINDS)

DEFAULT_STRING_DOMAIN_CAP = 6
DEFAULT_GRAPH_KAPPA_CAP = 7


class Rule(Record):
    """One rule application: its kind (``snr`` ... ``gdr``) and pointer parameters."""

    __slots__ = ("kind", "params")

    def __init__(self, kind: str, params: tuple[int, ...]):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)

    def __str__(self) -> str:
        if len(self.params) == 1:
            return f"{self.kind}_{self.params[0]}"
        return f"{self.kind}_{{{self.params[0]},{self.params[1]}}}"


# the string and graph systems share one rule class; the kind tells them apart
StringRule = GraphRule = Rule


def _check_kinds(kinds, allowed):
    kinds = frozenset(kinds)
    if not kinds <= frozenset(allowed):
        raise ValueError(f"unknown rule kinds {sorted(kinds - frozenset(allowed))}")
    return kinds


# ---------------------------------------------------------------------------
# string rules

def _string_rules(u, kinds, at) -> list[StringRule]:
    """Rules applicable to the legal string u with occurrence table at."""
    dom = sorted(at)
    negative = [p for p in dom if u[at[p][0] - 1] == u[at[p][1] - 1]]
    out = []
    if "snr" in kinds:
        out += [StringRule("snr", (p,)) for p in negative if at[p][1] == at[p][0] + 1]
    if "spr" in kinds:
        out += [StringRule("spr", (p,)) for p in dom if u[at[p][0] - 1] != u[at[p][1] - 1]]
    if "sdr" in kinds:
        for p in negative:
            i1, i2 = at[p]
            out += [StringRule("sdr", (p, q)) for q in negative if i1 < at[q][0] < i2 < at[q][1]]
    return out


def _string_step(u, rule: StringRule, at):
    """Apply a rule known to be applicable to u."""
    i1, i2 = at[rule.params[0]]
    if rule.kind == "snr":
        return u[: i1 - 1] + u[i2:]
    if rule.kind == "spr":
        return u[: i1 - 1] + pointers.inverse(u[i1 : i2 - 1]) + u[i2:]
    j1, j2 = at[rule.params[1]]
    return (
        u[: i1 - 1]
        + u[i2 : j2 - 1]  # segment between the second p and the second q
        + u[j1 : i2 - 1]  # segment between the first q and the second p
        + u[i1 : j1 - 1]  # segment between the first p and the first q
        + u[j2:]
    )


def _string_successors(u, kinds):
    at = pointers.occurrence_index(u)
    return [(rule, _string_step(u, rule, at)) for rule in _string_rules(u, kinds, at)]


def applicable_string_rules(u, kinds=ALL_STRING_RULES) -> list[StringRule]:
    """Rules applicable to a legal string, deterministically ordered."""
    kinds = _check_kinds(kinds, STRING_KINDS)
    u = tuple(u)
    pointers.positive_set(u)  # raises unless u is legal
    return _string_rules(u, kinds, pointers.occurrence_index(u))


def apply_string_rule(u, rule: StringRule):
    """Apply one rule; the result is legal with a strictly smaller domain."""
    u = tuple(u)
    if rule not in applicable_string_rules(u, kinds=(rule.kind,)):
        raise ValueError(f"rule {rule} is not applicable to {u}")
    return _string_step(u, rule, pointers.occurrence_index(u))


def successful_string_reductions(u, kinds=ALL_STRING_RULES, max_domain=DEFAULT_STRING_DOMAIN_CAP):
    """Yield every rule sequence (application order) reducing u to the empty string.

    Plain depth-first enumeration; per-string successor lists are memoized
    on the exact string so shared substructure is computed once.
    """
    kinds = _check_kinds(kinds, STRING_KINDS)
    u = tuple(u)
    if len(pointers.domain(u)) > max_domain:
        raise CapError(f"domain exceeds the search cap {max_domain}")
    pointers.positive_set(u)  # raises unless u is legal; every rule keeps legality
    edges: dict[tuple, list[tuple[StringRule, tuple]]] = {}

    def successors(v):
        if v not in edges:
            edges[v] = _string_successors(v, kinds)
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
    pointers.positive_set(u)  # raises unless u is legal; every rule keeps legality
    memo: dict[tuple, bool] = {}

    def walk(v):
        if not v:
            return True
        if v in memo:
            return memo[v]
        memo[v] = False
        for _, w in _string_successors(v, kinds):
            if walk(w):
                memo[v] = True
                break
        return memo[v]

    return walk(u)


# ---------------------------------------------------------------------------
# graph rules on bitmask states (V, P, adj): vertex mask, positive mask, and
# adj[s] the neighbour mask of slot s (0 once s is removed), over the slots of
# the OverlapGraph the search starts from; rules in a state name slots

def _graph_state(g: OverlapGraph):
    return g.vertex_mask, g.positive_mask, g.neighbor_masks


def _named(rule: GraphRule, order) -> GraphRule:
    """The rule with its slots replaced by the magnitudes of the vertices in them."""
    return GraphRule(rule.kind, tuple(order[s - 2] for s in rule.params))


def _overlap_of(state, order) -> OverlapGraph:
    """The graph of a state, its slots renumbered past the removed ones."""
    vertices, positive, adj = state
    kept = {s: new for new, s in enumerate(bits(vertices), 2)}

    def moved(mask):
        return sum(1 << kept[t] for t in bits(mask))

    masks = _slot_masks(len(kept))
    for s, new in kept.items():
        masks[new] = moved(adj[s])
    return OverlapGraph._from_masks(tuple(order[s - 2] for s in kept), moved(positive), masks)


def _graph_rules(state, kinds) -> list[GraphRule]:
    """Applicable rules: gnr, then gpr, then gdr in sorted edge order."""
    vertices, positive, adj = state
    negative = vertices & ~positive
    out = []
    if "gnr" in kinds:
        out += [GraphRule("gnr", (p,)) for p in bits(negative) if not adj[p]]
    if "gpr" in kinds:
        out += [GraphRule("gpr", (p,)) for p in bits(positive)]
    if "gdr" in kinds:
        for p in bits(negative):
            above = -(2 << p)  # the bits of q > p
            out += [GraphRule("gdr", (p, q)) for q in bits(adj[p] & negative & above)]
    return out


def _graph_step(state, rule: GraphRule):
    """Apply a rule known to be applicable to the state."""
    vertices, positive, adj = state
    if rule.kind == "gnr":  # p is isolated, so only its vertex bit goes
        return vertices & ~(1 << rule.params[0]), positive, adj
    adj = list(adj)
    if rule.kind == "gpr":
        # local complementation at p: toggle every pair of neighbours, flip their signs
        (p,) = rule.params
        nbrs, keep = adj[p], ~(1 << p)
        for x in bits(nbrs):
            adj[x] = (adj[x] ^ nbrs ^ (1 << x)) & keep
        adj[p] = 0
        return vertices & keep, (positive & keep) ^ nbrs, tuple(adj)
    # toggle x-y when x is in N(p) and y in N(q), or the other way round; a
    # vertex in both receives N(p) ^ N(q), in which its own bit cancels
    p, q = rule.params
    np_, nq = adj[p], adj[q]
    keep = ~((1 << p) | (1 << q))
    for x in bits((np_ | nq) & keep):
        a = adj[x]
        if np_ >> x & 1:
            a ^= nq
        if nq >> x & 1:
            a ^= np_
        adj[x] = a & keep
    adj[p] = adj[q] = 0
    return vertices & keep, positive, tuple(adj)


def applicable_graph_rules(g: OverlapGraph, kinds=ALL_GRAPH_RULES) -> list[GraphRule]:
    rules = _graph_rules(_graph_state(g), _check_kinds(kinds, GRAPH_KINDS))
    return [_named(rule, g.vertex_order) for rule in rules]


def apply_graph_rule(g: OverlapGraph, rule: GraphRule) -> OverlapGraph:
    state = _graph_state(g)
    kinds = _check_kinds((rule.kind,), GRAPH_KINDS)
    in_slots = {_named(r, g.vertex_order): r for r in _graph_rules(state, kinds)}
    if rule not in in_slots:
        raise ValueError(f"rule {rule} is not applicable")
    return _overlap_of(_graph_step(state, in_slots[rule]), g.vertex_order)


def successful_graph_reductions(g: OverlapGraph, kinds=ALL_GRAPH_RULES, max_kappa=DEFAULT_GRAPH_KAPPA_CAP):
    """Yield every rule sequence (application order) reducing g to the empty graph."""
    kinds = _check_kinds(kinds, GRAPH_KINDS)
    if len(g.vertices) + 1 > max_kappa:
        raise CapError(f"kappa exceeds the search cap {max_kappa}")
    prefix: list[GraphRule] = []

    def walk(state):
        if not state[0]:
            yield [_named(rule, g.vertex_order) for rule in prefix]
            return
        for rule in _graph_rules(state, kinds):
            prefix.append(rule)
            yield from walk(_graph_step(state, rule))
            prefix.pop()

    yield from walk(_graph_state(g))


def successful_in(g: OverlapGraph, kinds, max_kappa=DEFAULT_GRAPH_KAPPA_CAP) -> bool:
    """Exhaustive search decision, memoized on the exact bitmask state.

    A canonical form would also merge isomorphic states, but computing it
    at every node costs more than the repeated searches it saves.
    """
    kinds = _check_kinds(kinds, GRAPH_KINDS)
    if len(g.vertices) + 1 > max_kappa:
        raise CapError(f"kappa exceeds the search cap {max_kappa}")
    memo: dict[tuple, bool] = {}

    def walk(state):
        if not state[0]:
            return True
        if state in memo:
            return memo[state]
        memo[state] = False
        for rule in _graph_rules(state, kinds):
            if walk(_graph_step(state, rule)):
                memo[state] = True
                break
        return memo[state]

    return walk(_graph_state(g))


def successful_in_classifier(g: OverlapGraph, kinds, reduction_components: int) -> bool:
    """Closed-form successfulness for realistic overlap graphs.

    ``reduction_components`` is the component count of the directly
    constructed reduction graph; connectivity of that graph is the only
    global ingredient the classification needs.
    """
    kinds = _check_kinds(kinds, GRAPH_KINDS)
    connected = reduction_components == 1
    components = g.component_masks
    positive = g.positive_mask
    all_negative = not positive
    if kinds == frozenset():
        return not g.vertex_mask
    if kinds == {"gnr"}:
        return g.is_discrete() and all_negative
    if kinds == {"gpr"}:
        return connected and all(comp & positive for comp in components)
    if kinds == {"gdr"}:
        return connected and all_negative
    if kinds == {"gnr", "gpr"}:
        # a component of one vertex has one bit set
        return all(not comp & (comp - 1) or comp & positive for comp in components)
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
        rules.append(Rule(kind, params))
    return list(reversed(rules))
