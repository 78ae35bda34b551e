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
``successful_string_reductions`` memoizes each exact string state's
completions (the rule tuples that take it to the empty string) and names
each slot tuple once per call; ``negative_rule_counts`` memoizes each
state's set of snr counts instead, so it costs the number of states, not
the number of sequences.

Graph side: the rules act on bitmask states (V, P, adj) over the slots of
``OverlapGraph``, each rule one XOR per neighbour, and the ``Rule``
records handed out name vertices by magnitude.  One memoized search
decides all eight rule sets S of {gnr, gpr, gdr} at once: a state's answer
is an 8-bit mask with bit code(S) set when S reduces it, and the walk
follows a rule of kind k only for the sets it still wants that hold k.
The first ``successful_in`` or ``successful_rule_sets`` call on a graph
object stores that mask on it.

Reduction sequences are serialized in composition order (rightmost rule
applied first), e.g. ``gnr_4 gdr_{5,7} gnr_2 gdr_{3,6}``.
"""

from __future__ import annotations

import re
from itertools import combinations

from . import pointers
from .errors import CapError, LegalityError, ParseError
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

    In the order of ``cli.SUBSET_ORDER``: by size, then in names order.
    """
    return {frozenset(s): sum(1 << names.index(x) for x in s)
            for r in range(4) for s in combinations(names, r)}


_STRING_CODE = _codes(STRING_KINDS)
_CODE = _codes(GRAPH_KINDS)


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


def _check_string_search(u, max_domain):
    """u as a tuple; raises unless its domain is within the cap and it is legal."""
    u = tuple(u)
    if len(pointers.domain(u)) > max_domain:
        raise CapError(f"domain exceeds the search cap {max_domain}")
    pointers.occurrence_index(u)  # every rule keeps legality, so only the start is checked
    return u


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
    u = _check_string_search(u, max_domain)
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


def negative_rule_counts(u, max_domain=DEFAULT_STRING_DOMAIN_CAP) -> set[int]:
    """The numbers of snr rules in the successful reductions of u, over all three string rules.

    The set ``{sum(r.kind == "snr" for r in seq) for seq in
    successful_string_reductions(u)}``, from a memo over the same states
    that holds each state's count set instead of its sequences:
    counts(v) is the union over the rules r of counts(r(v)), plus one for
    snr.  This costs the number of states, not the number of sequences.
    """
    u = _check_string_search(u, max_domain)
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
# graph rules on bitmask states (V, P, adj): vertex mask, positive mask, and
# adj[s] the neighbour mask of slot s (0 once s is removed), over the slots of
# the OverlapGraph the search starts from.  Inside the module a rule is a slot
# tuple (kind index into GRAPH_KINDS, p, q), q None for gnr and gpr; a rule set
# is a 3-bit code, bit k set when it holds GRAPH_KINDS[k]

# the rule sets in the order of ``cli.SUBSET_ORDER``; an 8-bit mask of rule sets
# has bit _CODE[S] set for each S in it
_SET_ORDER = tuple(_CODE)
_ALL_SETS = 0xFF
# _WITH[k]: the sets that hold GRAPH_KINDS[k]; gnr is in the sets with odd codes
_WITH = (0xAA, 0xCC, 0xF0)


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
    state = _graph_state(g)
    kinds = _check_kinds((rule.kind,), _CODE)
    in_slots = {_named(r, g.vertex_order): r for r in _graph_rules(state, kinds)}
    if rule not in in_slots:
        raise ValueError(f"rule {rule} is not applicable")
    return _overlap_of(_graph_step(state, *in_slots[rule]), g.vertex_order)


def _check_graph_cap(g: OverlapGraph, max_kappa) -> None:
    if len(g.vertex_order) + 1 > max_kappa:
        raise CapError(f"kappa exceeds the search cap {max_kappa}")


def successful_graph_reductions(g: OverlapGraph, kinds=ALL_GRAPH_RULES, max_kappa=DEFAULT_GRAPH_KAPPA_CAP):
    """Yield every rule sequence (application order) reducing g to the empty graph."""
    kinds = _check_kinds(kinds, _CODE)
    _check_graph_cap(g, max_kappa)
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


def _success_mask(g: OverlapGraph) -> int:
    """The 8-bit mask of the rule sets that reduce g, bit ``_CODE[S]`` for S: one search.

    ``walk(state, want)`` decides the sets in ``want`` for a state.  A rule
    of kind k helps exactly the sets that hold k, so it is followed only for
    the wanted sets with k not yet found successful, and the walk stops once
    every wanted set is found.  The memo holds (decided, succeeded) masks per
    state; every rule removes a vertex, so no state is met again while it is
    being decided, and an entry is final for the sets it has decided.  A
    state met again for more sets is searched for those only.

    An isolated negative vertex needs no choice: no rule but its own gnr
    removes it, and no other rule touches it (gpr and gdr act on neighbours
    only), so a state with one is reduced by exactly the sets with gnr that
    reduce it without that vertex.  So the walk always lists the gnr rules,
    which come first, and the first of them, if any, is its only branch.
    """
    memo: dict[tuple, tuple[int, int]] = {}

    def walk(state, want):
        if not state[0]:
            return _ALL_SETS
        decided, found = memo.get(state, (0, 0))
        left = want & ~decided & ~found
        if not left:
            return found
        rules = _graph_rules(state, 1 | (left & _WITH[1] and 2) | (left & _WITH[2] and 4))
        if rules and rules[0][0] == 0:
            if left & _WITH[0]:
                found |= walk(_graph_step(state, *rules[0]), left & _WITH[0]) & _WITH[0]
        else:
            for k, p, q in rules:
                sub = left & _WITH[k] & ~found
                if sub:
                    found |= walk(_graph_step(state, k, p, q), sub) & _WITH[k]
                    if not left & ~found:
                        break
        memo[state] = decided | want, found
        return found

    mask = g._rule_set_mask
    if mask is None:
        mask = walk(_graph_state(g), _ALL_SETS)
        # in the instance dict, as cached_property stores; not a field, so == and hash ignore it
        object.__setattr__(g, "_rule_set_mask", mask)
    return mask


def successful_rule_sets(g: OverlapGraph, max_kappa=DEFAULT_GRAPH_KAPPA_CAP) -> list[frozenset]:
    """The rule sets S of {gnr, gpr, gdr} that reduce g to the empty graph.

    In the order of ``cli.SUBSET_ORDER``: by size, then gnr < gpr < gdr.
    """
    _check_graph_cap(g, max_kappa)
    mask = _success_mask(g)
    return [kinds for kinds in _SET_ORDER if mask >> _CODE[kinds] & 1]


def successful_in(g: OverlapGraph, kinds, max_kappa=DEFAULT_GRAPH_KAPPA_CAP) -> bool:
    """Exhaustive search decision: does some sequence of rules in ``kinds`` reduce g?

    One search decides all eight rule sets at once (see ``_success_mask``):
    a set is a 3-bit code (gnr 1, gpr 2, gdr 4) and a state's answer an
    8-bit mask with bit ``code`` set when the set reduces it, so the empty
    graph answers 0xFF and S = {} fails on every other graph.  The first
    call on a graph object stores the mask on it, so the eight calls of a
    classifier check cost one search; the kinds and the cap are checked on
    every call.
    """
    code = _check_kinds(kinds, _CODE)
    _check_graph_cap(g, max_kappa)
    return bool(_success_mask(g) >> code & 1)


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
      no rule elsewhere touches it;
    * {gpr}: necessary, nullity 0 (gpr keeps it, and the empty graph has
      0) and a positive vertex in every component (gpr at p touches only
      p's component, so one with no positive vertex never shrinks).
      Sufficient: such a graph passes the {gnr, gpr} test, and a {gnr, gpr}
      reduction of it uses nullity = 0 gnr rules, so it is a {gpr} one.

    One case is checked, not proved: sufficiency for {gnr, gpr} on graphs
    that are not realistic.  The tests compare it with the search on every
    signed graph on {2..6} and on seeded graphs at kappa 7 and 8; a one-off
    run found no mismatch on all 2,097,152 signed graphs on {2..7}.
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

    Accepts a non-empty legal string (string side: the component count of
    its reduction graph, minus one, in O(n); the empty string raises
    ``LegalityError``) or any signed graph, on any vertex set (graph side:
    ``OverlapGraph.nullity``, which on the overlap graph of a legal string
    equals the string side's count).
    """
    if isinstance(x, OverlapGraph):
        return x.nullity()
    from . import reduction

    seq = tuple(x)
    if not seq:
        raise LegalityError("the empty string has no negative-rule prediction")
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
