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

Inside the module a rule is a slot tuple (kind index, p, q), q None for
the one-pointer rules, and a rule set is a 3-bit code (bit k for the k-th
kind: snr or gnr 1, spr or gpr 2, sdr or gdr 4).  ``Rule`` records are
built only for what leaves the module.  Each side has one rule
implementation that the public rule functions and the searches share.

String side: ``_string_successors`` pairs each applicable rule's slot
tuple with its successor string, from one occurrence pass per state.
Every rule keeps legality, so only a search's input is checked.
``successful_string_reductions``, the only string search and the only
one with a domain cap, memoizes each exact string state's completions
(the rule tuples that take it to the empty string) and names each slot
tuple once per call.  How many snr rules a successful reduction uses is
not searched: it is comps(R_u) - 1, proved in
``predicted_negative_rule_count``'s docstring.

Graph side: the rules act on bitmask states (V, P, adj) over the slots of
``OverlapGraph``, each rule one XOR per neighbour, and the ``Rule``
records handed out name vertices by magnitude.  Whether a rule set S of
{gnr, gpr, gdr} reduces a graph is decided in closed form, with all eight
cases proved in ``successful_in_classifier``'s docstring, from the GF(2)
nullity and the components; ``successful_in`` and
``successful_rule_sets`` feed it ``nullity() + 1`` and answer at every
kappa.  Only the enumerator ``successful_graph_reductions`` searches, and
only it has a kappa cap.

Reduction sequences are serialized in composition order (rightmost rule
applied first), e.g. ``gnr_4 gdr_{5,7} gnr_2 gdr_{3,6}``.
"""

from __future__ import annotations

import re
from itertools import combinations

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
    """One rule application: its kind (``snr`` ... ``gdr``) and pointer parameters.

    String and graph rules share this class; the kind tells them apart.
    """

    __slots__ = ("kind", "params")

    def __init__(self, kind: str, params: tuple[int, ...]):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)

    def __str__(self) -> str:
        if len(self.params) == 1:
            return f"{self.kind}_{self.params[0]}"
        return f"{self.kind}_{{{self.params[0]},{self.params[1]}}}"


def _codes(names: tuple[str, ...]) -> dict[frozenset, int]:
    """Each rule set over names to its 3-bit code, bit k set when it holds names[k].

    In the order of ``SET_ORDER``: by size, then in names order.
    """
    return {frozenset(s): sum(1 << names.index(x) for x in s)
            for r in range(4) for s in combinations(names, r)}


_STRING_CODE = _codes(STRING_KINDS)
_CODE = _codes(GRAPH_KINDS)
# the eight rule sets over GRAPH_KINDS, by size, then gnr < gpr < gdr: the order
# of ``successful_rule_sets`` and of the lines ``classify`` prints
SET_ORDER = tuple(_CODE)


def _check_kinds(kinds, codes: dict[frozenset, int]) -> int:
    """The code of a rule set in ``codes``; a kind outside them raises ``ValueError``."""
    kinds = frozenset(kinds)
    code = codes.get(kinds)
    if code is None:
        allowed = frozenset().union(*codes)
        raise ValueError(f"unknown rule kinds {sorted(kinds - allowed)}")
    return code


# ---------------------------------------------------------------------------
# string rules on pointer tuples; a slot tuple (k, p, q) names STRING_KINDS[k]
# on the pointers p and q

def _string_successors(u, kinds: int) -> list[tuple[tuple, tuple]]:
    """(slot tuple, successor) for each rule of the kinds in the code that applies to u.

    u must be legal; every rule keeps legality, so nothing is checked.  The
    rules come as snr, spr, sdr, each by p and then q, all from one pass
    that finds the two occurrences of each pointer.
    """
    first: dict[int, int] = {}
    at = []  # (p, i, j): p occurs at the 0-based positions i < j
    for j, x in enumerate(u):
        p = -x if x < 0 else x
        if p in first:
            at.append((p, first[p], j))
        else:
            first[p] = j
    at.sort()
    negative = [(p, i, j) for p, i, j in at if u[i] == u[j]]
    out = []
    if kinds & 1:
        for p, i, j in negative:
            if j == i + 1:
                out.append(((0, p, None), u[:i] + u[j + 1:]))
    if kinds & 2:
        for p, i, j in at:
            if u[i] != u[j]:
                out.append(((1, p, None), u[:i] + tuple([-x for x in u[j - 1:i:-1]]) + u[j + 1:]))
    if kinds & 4:
        for p, i1, i2 in negative:
            for q, j1, j2 in negative:
                if i1 < j1 < i2 < j2:
                    # swap the segments between the first p and the first q and
                    # between the second p and the second q
                    out.append(((2, p, q), u[:i1] + u[i2 + 1:j2] + u[j1 + 1:i2]
                                + u[i1 + 1:j1] + u[j2 + 1:]))
    return out


def _string_rule(slot) -> Rule:
    k, p, q = slot
    return Rule(STRING_KINDS[k], (p,) if q is None else (p, q))


def applicable_string_rules(u, kinds=ALL_STRING_RULES) -> list[Rule]:
    """Rules applicable to a legal string, deterministically ordered."""
    code = _check_kinds(kinds, _STRING_CODE)
    u = tuple(u)
    pointers.occurrence_index(u)  # raises unless u is legal
    return [_string_rule(slot) for slot, _ in _string_successors(u, code)]


def apply_string_rule(u, rule: Rule):
    """Apply one rule; the result is legal with a strictly smaller domain."""
    code = _check_kinds((rule.kind,), _STRING_CODE)
    u = tuple(u)
    pointers.occurrence_index(u)  # raises unless u is legal
    for slot, v in _string_successors(u, code):
        if _string_rule(slot) == rule:
            return v
    raise ValueError(f"rule {rule} is not applicable to {u}")


def successful_string_reductions(u, kinds=ALL_STRING_RULES, max_domain=DEFAULT_STRING_DOMAIN_CAP):
    """Yield every rule sequence (application order) reducing u to the empty string.

    Depth-first order: a state's rules in ``applicable_string_rules`` order,
    each followed by every completion of its successor.  A memo on the exact
    string holds each state's completions, the rule tuples that take it to
    the empty string, so shared substructure is computed once and each rule
    becomes a ``Rule`` once per call.  All sequences are built before the
    first is yielded.
    """
    code = _check_kinds(kinds, _STRING_CODE)
    u = tuple(u)
    # every rule keeps legality, so only the start is checked, and before the cap
    if len(pointers.occurrence_index(u)) > max_domain:
        raise CapError(f"domain exceeds the search cap {max_domain}")
    named: dict[tuple, Rule] = {}
    memo: dict[tuple, list[tuple]] = {(): [()]}

    def rule(slot):
        r = named.get(slot)
        if r is None:
            r = named[slot] = _string_rule(slot)
        return r

    def completions(v):
        done = memo.get(v)
        if done is None:
            if len(v) == 2:  # one pair: p p takes snr, p -p spr, and sdr never applies
                k = 0 if v[0] == v[1] else 1
                done = [(rule((k, abs(v[0]), None)),)] if code >> k & 1 else []
            else:
                done = []
                for slot, w in _string_successors(v, code):
                    r = rule(slot)
                    done += [(r, *rest) for rest in completions(w)]
            memo[v] = done
        return done

    for seq in completions(u):
        yield list(seq)


# ---------------------------------------------------------------------------
# graph rules on bitmask states (V, P, adj): vertex mask, positive mask, and
# adj[s] the neighbour mask of slot s (0 once s is removed), over the slots of
# the OverlapGraph the search starts from.  Inside the module a rule is a slot
# tuple (kind index into GRAPH_KINDS, p, q), q None for gnr and gpr; a rule set
# is a 3-bit code, bit k set when it holds GRAPH_KINDS[k]

def _graph_state(g: OverlapGraph):
    return g.vertex_mask, g.positive_mask, g.neighbor_masks


def _named(rule, order) -> Rule:
    """The slot tuple as a Rule on the magnitudes of the vertices in its slots."""
    k, p, q = rule
    return Rule(GRAPH_KINDS[k], (order[p - 2],) if q is None else (order[p - 2], order[q - 2]))


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


def _graph_rules(state, kinds: int) -> list[tuple]:
    """Applicable rules of the kinds in the code: gnr, then gpr, then gdr in sorted edge order.

    Each loop peels the lowest set bit off a mask, as ``overlap.bits`` does.
    """
    vertices, positive, adj = state
    negative = vertices & ~positive
    out = []
    if kinds & 1:
        m = negative
        while m:
            low = m & -m
            m ^= low
            p = low.bit_length() - 1
            if not adj[p]:
                out.append((0, p, None))
    if kinds & 2:
        m = positive
        while m:
            low = m & -m
            m ^= low
            out.append((1, low.bit_length() - 1, None))
    if kinds & 4:
        m = negative
        while m:
            low = m & -m
            m ^= low
            p = low.bit_length() - 1
            partners = adj[p] & m  # the negative neighbours q > p
            while partners:
                high = partners & -partners
                partners ^= high
                out.append((2, p, high.bit_length() - 1))
    return out


def _graph_step(state, kind: int, p: int, q):
    """Apply a rule known to be applicable to the state."""
    vertices, positive, adj = state
    if kind == 0:  # p is isolated, so only its vertex bit goes
        return vertices & ~(1 << p), positive, adj
    adj = list(adj)
    if kind == 1:
        # local complementation at p: toggle every pair of neighbours, flip their signs
        nbrs, keep = adj[p], ~(1 << p)
        m = nbrs
        while m:
            low = m & -m
            m ^= low
            x = low.bit_length() - 1
            adj[x] = (adj[x] ^ nbrs ^ low) & keep
        adj[p] = 0
        return vertices & keep, (positive & keep) ^ nbrs, tuple(adj)
    # toggle x-y when x is in N(p) and y in N(q), or the other way round; a
    # vertex in both receives N(p) ^ N(q), in which its own bit cancels
    np_, nq = adj[p], adj[q]
    keep = ~((1 << p) | (1 << q))
    m = (np_ | nq) & keep
    while m:
        low = m & -m
        m ^= low
        x = low.bit_length() - 1
        a = adj[x]
        if np_ & low:
            a ^= nq
        if nq & low:
            a ^= np_
        adj[x] = a & keep
    adj[p] = adj[q] = 0
    return vertices & keep, positive, tuple(adj)


def applicable_graph_rules(g: OverlapGraph, kinds=ALL_GRAPH_RULES) -> list[Rule]:
    rules = _graph_rules(_graph_state(g), _check_kinds(kinds, _CODE))
    return [_named(rule, g.vertex_order) for rule in rules]


def apply_graph_rule(g: OverlapGraph, rule: Rule) -> OverlapGraph:
    """The graph one rule leaves; a gdr rule acts on an edge, named either way round."""
    state = _graph_state(g)
    kinds = _check_kinds((rule.kind,), _CODE)
    if rule.kind == "gdr":
        rule = Rule("gdr", tuple(sorted(rule.params)))
    in_slots = {_named(r, g.vertex_order): r for r in _graph_rules(state, kinds)}
    if rule not in in_slots:
        raise ValueError(f"rule {rule} is not applicable")
    return _overlap_of(_graph_step(state, *in_slots[rule]), g.vertex_order)


def successful_graph_reductions(g: OverlapGraph, kinds=ALL_GRAPH_RULES, max_kappa=DEFAULT_GRAPH_KAPPA_CAP):
    """Yield every rule sequence (application order) reducing g to the empty graph."""
    kinds = _check_kinds(kinds, _CODE)
    if len(g.vertex_order) + 1 > max_kappa:
        raise CapError(f"kappa exceeds the search cap {max_kappa}")
    prefix: list[tuple] = []

    def walk(state):
        if not state[0]:
            yield [_named(rule, g.vertex_order) for rule in prefix]
            return
        for rule in _graph_rules(state, kinds):
            prefix.append(rule)
            yield from walk(_graph_step(state, *rule))
            prefix.pop()

    yield from walk(_graph_state(g))


def successful_rule_sets(g: OverlapGraph) -> list[frozenset]:
    """The rule sets S of {gnr, gpr, gdr} that reduce g to the empty graph, by the classifier.

    In the order of ``SET_ORDER``: by size, then gnr < gpr < gdr.
    """
    comps = g.nullity() + 1
    return [kinds for kinds in SET_ORDER if successful_in_classifier(g, kinds, comps)]


def successful_in(g: OverlapGraph, kinds) -> bool:
    """Does some sequence of rules in ``kinds`` reduce g?  The classifier, given the nullity."""
    return successful_in_classifier(g, kinds, g.nullity() + 1)


def successful_in_classifier(g: OverlapGraph, kinds, reduction_components: int) -> bool:
    """Closed-form successfulness: does some sequence of rules in ``kinds`` reduce g?

    ``reduction_components`` is ``g.nullity() + 1``, the component count
    of the reduction graph on realistic graphs; whether it is 1 is the only
    global ingredient the classification needs.  With the nullity the
    answer holds on every signed graph, on any vertex set.  Every successful
    reduction uses exactly ``g.nullity()`` gnr rules (see
    ``OverlapGraph.nullity``), and a rule at p touches only p's component:

    * {}, {gnr} and {gnr, gpr, gdr} are immediate;
    * {gnr, gdr}: no rule in it removes or re-signs a positive vertex, and
      an all-negative graph always has an isolated vertex or an edge;
    * {gdr}: all vertices negative and nullity 0, as gdr keeps both;
    * {gpr, gdr}: nullity 0.  A positive vertex allows gpr; otherwise an
      invertible matrix has an edge for gdr; both keep nullity 0;
    * {gnr, gpr}: necessary, every component of two or more vertices has
      a positive vertex: an all-negative one has no applicable rule, and
      no rule elsewhere touches it.  Sufficient: proved below;
    * {gpr}: necessary, nullity 0 (gpr keeps it, and the empty graph has
      0) and a positive vertex in every component (gpr at p touches only
      p's component, so one with no positive vertex never shrinks).
      Sufficient: such a graph passes the {gnr, gpr} test, and a {gnr, gpr}
      reduction of it uses nullity = 0 gnr rules, so it is a {gpr} one.

    Sufficiency for {gnr, gpr}, by induction on the vertex count.  Write
    Φ(G) for "every component of two or more vertices has a positive
    vertex", P for the positive vertices and N[x] for N(x) ∪ {x}.  If G is
    not empty and Φ(G) holds, G has an isolated negative vertex, whose gnr
    keeps Φ, or a positive vertex.  Choose the positive p with the fewest
    positive neighbours, and among those one with the most neighbours.
    Then G' = gpr_p(G) satisfies Φ.  Suppose not: G' has a component C of
    two or more vertices, all negative.

    - C meets N(p).  Otherwise C would be a component of G other than p's,
      with its signs unchanged, and Φ(G) would give it a positive vertex.
    - Let A = C ∩ N(p).  A ⊆ P, since those vertices flipped to negative,
      and C ∖ N(p) holds no vertex of P.
    - Take a ∈ A.  A positive neighbour of a outside N[p] would keep its
      edge to a and lie in C ∖ N(p), so N(a) ∩ P ⊆ {p} ∪ N(p).  So the
      minimality of p forces N(p) ∩ P ⊆ N[a], and a is a minimizer too.
    - A vertex y ∈ N(p) ∖ N[a] would be joined to a in G', so it would lie
      in A ⊆ P ∩ N(p) ⊆ N[a], a contradiction.  So N[p] ⊆ N[a].
    - N[a] = N[p] would leave a isolated in G', against |C| ≥ 2.  So a is
      a minimizer with more neighbours than p, against the choice of p.

    So Φ(G') holds, G' has one vertex fewer, and induction reduces it.

    The most neighbours matter: on the path a - c - b with a and c
    positive, both have one positive neighbour, gpr_a leaves the edge
    c - b all negative, and the rule picks c.
    """
    code = _check_kinds(kinds, _CODE)  # gnr 1, gpr 2, gdr 4
    connected = reduction_components == 1
    positive = g.positive_mask
    if code == 0:
        return not g.vertex_mask
    if code == 1:
        return g.is_discrete() and not positive
    if code == 2:
        return connected and all(comp & positive for comp in g.component_masks)
    if code == 4:
        return connected and not positive
    if code == 3:
        # a component of one vertex has one bit set
        return all(not comp & (comp - 1) or comp & positive for comp in g.component_masks)
    if code == 5:
        return not positive
    if code == 6:
        return connected
    return True  # {gnr, gpr, gdr} always succeeds


# ---------------------------------------------------------------------------
# negative-rule counting

def predicted_negative_rule_count(x) -> int:
    """The number of negative rules in every successful reduction.

    Accepts any signed graph, on any vertex set, or a legal string.  Graph
    side: ``OverlapGraph.nullity``, with its proof in that docstring; on
    the overlap graph of a legal string it equals the string side's count.
    String side: comps(R_u) - 1, from one O(n) cycle walk, and 0 for the
    empty string, whose one reduction, the empty sequence, uses no snr.
    Count the empty string as one component.  Then every successful
    reduction of u uses exactly comps(R_u) - 1 snr rules:

    1. A rule always applies to a non-empty legal string.  Take a pointer
       p whose two occurrences enclose the shortest window.  A pointer
       between them occurs there once, or its own window would be shorter.
       So either p is adjacent to its twin, and snr or spr applies at p, or
       p overlaps a pointer q.  With any positive pointer, spr applies;
       otherwise p and q are overlapping negative pointers and take sdr.
       Every rule keeps legality and shrinks the domain, so every maximal
       rule sequence is a successful reduction.
    2. Each rule's effect on R_u.  Name a vertex by the letter end it is:
       I_i the left end of the i-th letter, I'_i its right end.  Every rule
       keeps the other pointers' desire edges on the same vertex objects.
       Moving a segment (sdr) keeps each letter's two ends.  Inverting one
       (spr) swaps them, and it flips the equal/complementary type of every
       pointer with one occurrence inside, so its straight or crossed edges
       land on the same vertices.  Each reality-desire-reality path through
       a removed occurrence becomes one reality edge of the result, and
       paths that meet across an empty segment chain into one.  So each
       cycle through a kept vertex becomes one cycle, and only the cycles
       made wholly of removed vertices go.  For spr and sdr the removed
       vertices, joined by their desire edges and by the reality edges
       across empty segments, form one ring that breaks at each non-empty
       segment between the removed occurrences, read cyclically.  It
       closes only when the result is empty, which counts as one
       component, so spr and sdr keep the cycle count.  For snr at
       positions i and i+1, I_i and I'_(i+1) form that ring, and snr also
       drops the 2-cycle that its adjacent equal pair forms with the
       reality edge between them: I'_i and I_(i+1) are joined by both.
    3. Induction on the length: each snr removes one component and the
       other rules none, so a reduction ending at the empty string, one
       component, uses comps(R_u) - 1 snr rules, and by step 1 one exists.
    """
    if isinstance(x, OverlapGraph):
        return x.nullity()
    from . import reduction

    seq = tuple(x)
    return reduction.ReductionGraph(seq).component_count() - 1 if seq else 0


# ---------------------------------------------------------------------------
# sequence serialization (composition order, rightmost applied first)

def format_rule_sequence(rules) -> str:
    return " ".join(str(r) for r in reversed(list(rules)))


_RULE_RE = re.compile(r"^(snr|spr|sdr|gnr|gpr|gdr)_(?:([0-9]+)|\{([0-9]+),([0-9]+)\})$")


def parse_rule_sequence(text: str):
    """Parse a serialized sequence back into application order.

    Each pointer has magnitude at least 2, and a double rule names two
    different pointers.
    """
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
            if params[0] == params[1]:
                raise ParseError(f"rule {tok!r} needs two different pointers")
        if min(params) < 2:
            raise ParseError(f"pointer magnitude must be >= 2, got {tok!r}")
        rules.append(Rule(kind, params))
    return list(reversed(rules))
