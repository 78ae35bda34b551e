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

from geneasm.compress import LabelledGraph
from geneasm.errors import CapError


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
    the endpoints is a witness when the XOR of g.neighbors(t) over P equals
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


def per_candidate_direct_edges(g):
    """Edge set of the direct construction, testing one candidate at a time.

    The loop that the hash join in ``direct.direct_reduction_graph``
    replaced: prefix XORs S(k) of D(t) = N(t) ^ [t positive] (built from
    ``g.neighbors``, not from the mask view), then for every candidate
    pair the XOR over its core window and each choice of its optional
    endpoints, compared with its target.  Edges are frozensets of vertex ids.
    """
    kappa = len(g.vertices) + 1
    prefix = [0, 0]
    for t in range(2, kappa + 1):
        d = sum(1 << x for x in g.neighbors(t)) ^ ((1 << t) if t in g.positive else 0)
        prefix.append(prefix[-1] ^ d)

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
            value = value ^ g.neighbors(t)
        if value == (g.positive & subset) ^ frozenset(target):
            found.append((subset, value))
    return sorted(found, key=lambda w: sorted(w[0]))


def cps_edge_set(graph):
    """(labels, edges) of the desire-edge compression, edges as a frozenset of frozensets.

    The construction ``compress.cps`` used before labelled graphs held a
    neighbour table: collapsed vertices are the desire edges as sorted
    endpoint pairs, joined when a reality edge runs between two of them.
    """
    desire_of = {}
    labels = {}
    for e in graph.desire_edges:
        vid = tuple(sorted(e))
        labels[vid] = graph.label(vid[0])
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


# ---------------------------------------------------------------------------
# canonical forms: least rotation by comparing every rotation, isomorphism
# by exhaustive label-respecting bijection search, and their test inputs


def least_rotation(seq, step):
    """Least of the rotations of seq by a multiple of step, by comparing them all."""
    return min(seq[r:] + seq[:r] for r in range(0, len(seq), step))


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
    return LabelledGraph(labels=labels, edges=frozenset(edges))


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
