"""Acceptance checklist.

Each test covers one release criterion and prints a single pass/fail
line (run pytest with -s to see them all).  Criteria marked "exact" use
equality; the randomized ones use fixed seeds and report their timing.
"""

import random
import time
from itertools import permutations, product

import oracles
from builders import edge
from geneasm import (
    compress,
    direct,
    iso,
    overlap,
    pointers,
    reduction,
    rewriting,
    sampling,
)


def _report(tag, description, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {description}: {verdict}{suffix}")
    assert ok, f"{tag} {description}{suffix}"


def parse(text):
    return pointers.parse_pointer_string(text)


def _all_arrangements(kappa):
    for entries in permutations(range(1, kappa + 1)):
        for signs in product((1, -1), repeat=kappa):
            yield tuple(k * s for k, s in zip(entries, signs))


ROOT_CHAIN_7 = {edge(f"Jp{p}", f"Jp{p + 1}") for p in range(2, 7)}


def test_a01_overlap_graph_golden_figure():
    g = overlap.overlap_graph(parse("24535423"))
    ok = (
        g.vertices == {2, 3, 4, 5}
        and g.positive == frozenset()
        and g.edges == {(2, 3), (3, 4), (3, 5)}
    )
    _report("A01", "overlap graph of 24535423 matches the worked figure", ok)


def test_a02_reduction_graph_golden_figure():
    rg = reduction.ReductionGraph(parse("32-43-24"))
    ok = (
        len(rg.vertices) == 12
        and len(rg.reality_edges) == 6
        and len(rg.desire_edges) == 6
        and sorted(len(c) for c in rg.components()) == [4, 8]
    )
    _report("A02", "reduction graph of 32-43-24 has 12 vertices, components {4,8}", ok)


def test_a03_direct_construction_all_negative_example():
    g = overlap.overlap_graph(parse("453475623267"))
    built = direct.direct_reduction_graph(g)
    extras = built.edges - ROOT_CHAIN_7
    ok = ROOT_CHAIN_7 <= built.edges and extras == {
        edge("J2", "J6"),
        edge("J4", "J7"),
        edge("J3", "J5"),
        edge("J5", "Jp7"),
        edge("Jp2", "J3"),
    }
    witnesses = {w.subset for w in direct.condition_witnesses(g, ("J2", "J6"))}
    ok = ok and {frozenset({3, 4, 5}), frozenset({2, 3, 4, 5, 6})} <= witnesses
    _report("A03", "direct construction reproduces the all-negative example table", ok)


def test_a04_direct_construction_signed_example():
    g = overlap.overlap_graph(parse("72673456-3-245"))
    built = direct.direct_reduction_graph(g)
    extras = built.edges - ROOT_CHAIN_7
    ok = ROOT_CHAIN_7 <= built.edges and extras == {
        edge("J3", "J7"),
        edge("J3", "J6"),
        edge("J2", "J6"),
        edge("J2", "J4"),
        edge("J4", "J5"),
        edge("J5", "J7"),
        edge("Jp2", "Jp7"),
    }
    _report("A04", "direct construction reproduces the signed example table", ok)


def _seeded_arrangements(count, max_kappa, seed):
    rng = random.Random(seed)
    for _ in range(count):
        yield sampling.random_arrangement(rng, rng.randint(2, max_kappa))


def test_a05_compression_equals_direct_construction():
    started = time.monotonic()
    failures = 0
    trials = 0
    for arr in _seeded_arrangements(500, 8, seed=1205):
        u = pointers.encode_arrangement(arr)
        built = direct.direct_reduction_graph(overlap.overlap_graph(u))
        collapsed = compress.cps(reduction.ReductionGraph(u))
        trials += 1
        if iso.canonical_labelled(collapsed) != iso.canonical_labelled(built):
            failures += 1
    exhaustive = 0
    for kappa in (2, 3, 4, 5):
        for arr in _all_arrangements(kappa):
            u = pointers.encode_arrangement(arr)
            built = direct.direct_reduction_graph(overlap.overlap_graph(u))
            collapsed = compress.cps(reduction.ReductionGraph(u))
            exhaustive += 1
            if iso.canonical_labelled(collapsed) != iso.canonical_labelled(built):
                failures += 1
    elapsed = time.monotonic() - started
    _report(
        "A05",
        "compressed reduction graph is isomorphic to the direct construction",
        failures == 0 and trials == 500 and elapsed < 300,
        f"500 seeded + {exhaustive} exhaustive, {elapsed:.1f}s",
    )


def test_a06_every_sampled_realistic_string_is_rooted():
    failures = 0
    for arr in _seeded_arrangements(500, 8, seed=1205):
        u = pointers.encode_arrangement(arr)
        if not reduction.is_rooted(reduction.ReductionGraph(u)):
            failures += 1
    _report("A06", "every sampled realistic string is rooted", failures == 0)


def test_a07_negative_rule_count_in_string_reductions():
    failures = 0
    checked_strings = set()
    for kappa in (2, 3, 4):
        for arr in _all_arrangements(kappa):
            u = pointers.encode_arrangement(arr)
            if u in checked_strings:
                continue
            checked_strings.add(u)
            want = reduction.ReductionGraph(u).component_count() - 1
            counts = {
                sum(1 for r in seq if r.kind == "snr")
                for seq in rewriting.successful_string_reductions(u)
            }
            if counts != {want}:
                failures += 1
    rng = random.Random(1207)
    sampled = 0
    while sampled < 50:
        u = sampling.random_legal_string(rng, max_domain=5)
        if not u:
            continue
        sampled += 1
        want = reduction.ReductionGraph(u).component_count() - 1
        counts = {
            sum(1 for r in seq if r.kind == "snr")
            for seq in rewriting.successful_string_reductions(u)
        }
        if counts != {want}:
            failures += 1
    _report(
        "A07",
        "every successful string reduction uses component count minus one negative rules",
        failures == 0,
        f"{len(checked_strings)} exhaustive strings + 50 seeded",
    )


def test_a08_published_reduction_sequences():
    u1 = parse("453475623267")
    u2 = parse("72673456-3-245")
    ok = rewriting.predicted_negative_rule_count(u1) == 2
    ok = ok and rewriting.predicted_negative_rule_count(u2) == 1
    for text, start in (
        ("gnr_4 gdr_{5,7} gnr_2 gdr_{3,6}", u1),
        ("gnr_2 gpr_4 gpr_5 gpr_7 gpr_6 gpr_3", u2),
    ):
        h = overlap.overlap_graph(start)
        for rule in rewriting.parse_rule_sequence(text):
            if (rule.kind, rule.params) not in oracles.applicable_graph_rules(h):
                ok = False
                break
            h = rewriting.apply_graph_rule(h, rule)
        ok = ok and not h.vertices
    _report("A08", "published graph reduction sequences replay step by step", ok)


def test_a09_classifier_agrees_with_exhaustive_search():
    started = time.monotonic()
    subsets = [
        frozenset(),
        frozenset({"gnr"}),
        frozenset({"gpr"}),
        frozenset({"gdr"}),
        frozenset({"gnr", "gpr"}),
        frozenset({"gnr", "gdr"}),
        frozenset({"gpr", "gdr"}),
        frozenset({"gnr", "gpr", "gdr"}),
    ]
    disagreements = 0
    for arr in _seeded_arrangements(100, 6, seed=1209):
        g = overlap.overlap_graph(pointers.encode_arrangement(arr))
        comps = direct.direct_reduction_graph(g).component_count()
        for kinds in subsets:
            brute = oracles.successful_in_per_set(g, kinds)
            closed = rewriting.successful_in_classifier(g, kinds, comps)
            if brute != closed:
                disagreements += 1
    elapsed = time.monotonic() - started
    _report(
        "A09",
        "closed-form successfulness matches exhaustive search on 100 graphs x 8 rule sets",
        disagreements == 0 and elapsed < 600,
        f"{elapsed:.1f}s",
    )


def test_a10_negative_controls():
    pairs = [("2653562434", "2563652434"), ("223344", "234432")]
    ok = True
    for a, b in pairs:
        u, v = parse(a), parse(b)
        ok = ok and overlap.overlap_graph(u) == overlap.overlap_graph(v)
        ok = ok and iso.canonical_2edge(reduction.ReductionGraph(u)) != iso.canonical_2edge(
            reduction.ReductionGraph(v)
        )
    ok = ok and len(reduction.find_root_subgraphs(reduction.ReductionGraph(parse("234234")))) == 2
    ok = ok and overlap.is_realistic_overlap(overlap.overlap_graph(parse("24535423"))) is None
    _report("A10", "equal-overlap non-isomorphic pairs and realism negatives hold", ok)


def test_a11_overlap_calculus_suite():
    rng = random.Random(1211)
    failures = 0
    strings = 0
    while strings < 200:
        u = sampling.random_legal_string(rng, max_domain=5)
        if not u:
            continue
        strings += 1
        failures += _check_window_identities(u, rng)
        failures += _check_reduction_windows(u)
        failures += _check_rooted_chain_identities(u)
    _report(
        "A11",
        "overlap-set identities hold across 200 seeded legal strings",
        failures == 0,
    )


def _check_window_identities(u, rng):
    bad = 0
    n = len(u)
    for _ in range(12):
        i, j, k = (rng.randint(0, n) for _ in range(3))
        lhs = oracles.positional_overlap(u, i, j) ^ oracles.positional_overlap(u, j, k)
        if lhs != oracles.positional_overlap(u, i, k):
            bad += 1
    for i in range(n + 1):
        if oracles.positional_overlap(u, i, n) != oracles.positional_overlap(u, 0, i):
            bad += 1
    return bad


def _check_reduction_windows(u):
    bad = 0
    rg = oracles.EdgeSetReductionGraph(u)
    pos = pointers.positive_set(u)
    for e in rg.desire_edges:
        v1, v2 = tuple(e)
        p = rg.label(v1)
        want = oracles.overlap_set(u, p)
        if p in pos:
            want = want ^ {p}
        if oracles.positional_overlap(u, rg.posn(v1), rg.posn(v2)) != want:
            bad += 1
    for i in range(1, len(u) + 1):
        window = oracles.positional_overlap(u, rg.posn((i, 0)), rg.posn((i, 1)))
        if window != {pointers.magnitude(u[i - 1])}:
            bad += 1
    bad += _check_alternating_paths(u, rg, pos)
    return bad


def _check_alternating_paths(u, rg, pos):
    # every reality-to-reality walk whose interior desire labels are distinct
    bad = 0
    for start in rg.vertices:
        e1 = rg.reality_edge_of(start)
        labels = []
        cursor = start
        while True:
            d = rg.desire_edge_of(cursor)
            labels.append(rg.label(cursor))
            if len(set(labels)) != len(labels):
                break
            far = next(v for v in d if v != cursor)
            e2 = rg.reality_edge_of(far)
            expected = frozenset(pos & set(labels))
            for t in labels:
                expected = expected ^ oracles.overlap_set(u, t)
            if oracles.positional_overlap(u, rg.posn_edge(e1), rg.posn_edge(e2)) != expected:
                bad += 1
            cursor = next(v for v in e2 if v != far)
            if rg.posn_edge(e2) == rg.posn_edge(e1):
                break
    return bad


def _check_rooted_chain_identities(u):
    bad = 0
    rg = oracles.EdgeSetReductionGraph(u)
    dom = sorted(pointers.domain(u))
    pos = pointers.positive_set(u)
    for chain in reduction.find_root_subgraphs(reduction.ReductionGraph(u)):
        on = oracles.chain_vertices(chain)
        for i in range(1, len(u) + 1):
            if ((i, 0) in on) + ((i, 1) in on) != 1:
                bad += 1
        off = [rg.posn_edge(e) for e in rg.reality_edges if e not in chain.reality_links]
        for i in off:
            for j in off:
                if (oracles.positional_overlap(u, i, j) == frozenset()) != (i == j):
                    bad += 1
        for a in range(len(dom)):
            for b in range(a + 1, len(dom)):
                p, q = dom[a], dom[b]
                exists = any(
                    not (v1 in on or v2 in on)
                    and {rg.label(v1), rg.label(v2)} == {p, q}
                    for v1, v2 in map(tuple, rg.reality_edges)
                )
                holds = False
                for extra in (set(), {p}, {q}, {p, q}):
                    window = set(range(p + 1, q)) | extra
                    value = frozenset()
                    for t in window:
                        value = value ^ oracles.overlap_set(u, t)
                    if value == (pos & window) ^ {p, q}:
                        holds = True
                        break
                if exists != holds:
                    bad += 1
    return bad


def test_a12_isomorphism_engine_agrees_with_brute_force():
    rng = random.Random(1212)
    disagreements = 0
    for _ in range(500):
        g1 = oracles.random_degree2_graph(rng, max_vertices=10)
        g2 = (
            oracles.shuffled_copy(rng, g1)
            if rng.random() < 0.5
            else oracles.random_degree2_graph(rng, max_vertices=10)
        )
        if (iso.canonical_labelled(g1) == iso.canonical_labelled(g2)) != (
            oracles.brute_force_isomorphic(g1, g2)
        ):
            disagreements += 1
    checked = 0
    while checked < 200:
        u = sampling.random_legal_string(rng, max_domain=2)
        v = sampling.random_legal_string(rng, max_domain=2)
        if len(u) > 5 or len(v) > 5:
            continue
        checked += 1
        gu = reduction.ReductionGraph(u)
        gv = reduction.ReductionGraph(v)
        if (iso.canonical_2edge(gu) == iso.canonical_2edge(gv)) != (
            oracles.brute_force_isomorphic_2edge(gu, gv)
        ):
            disagreements += 1
    _report(
        "A12",
        "canonical forms agree with the bijection oracle on 500 + 200 seeded pairs",
        disagreements == 0,
    )
