import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
import strategies
from builders import gamma
from geneasm import overlap, pointers, reduction, rewriting, sampling
from geneasm.errors import CapError, LegalityError, ParseError
from geneasm.rewriting import Rule


def _string_steps(u, kinds=rewriting.ALL_STRING_RULES):
    """(Rule, successor) for each rule of the kinds that applies to legal u, in the search's order."""
    code = rewriting._STRING_CODE[frozenset(kinds)]
    return [(rewriting._string_rule(slot), v)
            for slot, v in rewriting._string_successors(tuple(u), code)]


def _string_step(u, rule):
    """The successor of u under a rule that applies to it."""
    (v,) = [v for r, v in _string_steps(u, (rule.kind,)) if r == rule]
    return v


def _graph_rules(g, kinds=rewriting.ALL_GRAPH_RULES):
    """The rules of the kinds that apply to g, in the search's order."""
    state = rewriting._graph_state(g)
    return [rewriting._named(r, g.vertex_order)
            for r in rewriting._graph_rules(state, rewriting._CODE[frozenset(kinds)])]


class TestStringRules:
    def test_negative_rule(self):
        assert _string_step((2, 2), Rule("snr", (2,))) == ()
        assert _string_step((3, 2, 2, 3), Rule("snr", (2,))) == (3, 3)
        # barred adjacent pairs count as the same rule
        assert _string_step((-2, -2), Rule("snr", (2,))) == ()

    def test_positive_rule(self):
        assert _string_step((2, 3, -2, 3), Rule("spr", (2,))) == (-3, 3)
        assert _string_step((2, -2), Rule("spr", (2,))) == ()

    def test_double_rule(self):
        assert _string_step((2, 3, 2, 3), Rule("sdr", (2, 3))) == ()
        assert _string_step((4, 2, 3, 2, 3, 4), Rule("sdr", (2, 3))) == (4, 4)
        # segments swap around the removed occurrences
        assert _string_step((2, 4, 4, 3, 2, 5, 5, 3), Rule("sdr", (2, 3))) == (5, 5, 4, 4)

    def test_applicability(self):
        u = (2, 3, 2, 3)
        assert [r for r, _ in _string_steps(u)] == [Rule("sdr", (2, 3))]
        v = (2, 3, -2, 3)
        assert [r for r, _ in _string_steps(v)] == [Rule("spr", (2,))]
        assert _string_steps(v, kinds=("snr",)) == []

    def test_rules_shrink_domain_and_preserve_legality(self):
        rng = random.Random(91)
        for _ in range(150):
            u = sampling.random_legal_string(rng, gaps=False)
            for _, v in _string_steps(u):
                assert pointers.is_legal(v)
                assert pointers.domain(v) < pointers.domain(u)

    def test_every_legal_string_fully_reduces(self):
        rng = random.Random(92)
        for _ in range(100):
            u = sampling.random_legal_string(rng, 4, gaps=False)
            assert next(rewriting.successful_string_reductions(u), None) is not None

    def test_search_cap(self):
        u = tuple(range(2, 9)) + tuple(range(2, 9))
        with pytest.raises(CapError):
            list(rewriting.successful_string_reductions(u))


class TestNegativeRuleCounts:
    def test_worked_examples(self):
        assert rewriting.predicted_negative_rule_count(
            pointers.parse_pointer_string("453475623267")
        ) == 2
        assert rewriting.predicted_negative_rule_count(
            pointers.parse_pointer_string("72673456-3-245")
        ) == 1
        assert rewriting.predicted_negative_rule_count((2, 2)) == 1
        assert rewriting.predicted_negative_rule_count((2, -2)) == 0

    def test_empty_string_counts_zero(self):
        # its one reduction, the empty sequence, uses no snr
        (count,) = oracles.negative_rule_counts(())
        assert rewriting.predicted_negative_rule_count(()) == count
        assert rewriting.predicted_negative_rule_count(gamma("")) == count

    def test_graph_side_counts_on_any_vertex_set(self):
        # {2, 4}, two isolated negative vertices: every reduction is two gnr
        g = gamma("2244")
        assert rewriting.predicted_negative_rule_count(g) == 2
        assert _gnr_counts(g) == {2}

    def test_string_reductions_use_exactly_the_predicted_count(self):
        rng = random.Random(93)
        for _ in range(60):
            u = sampling.random_legal_string(rng, 4, gaps=False)
            if not u:
                continue
            want = rewriting.predicted_negative_rule_count(u)
            counts = {
                sum(1 for r in seq if r.kind == "snr")
                for seq in rewriting.successful_string_reductions(u)
            }
            assert counts == {want}

    def test_single_pair_string(self):
        seqs = list(rewriting.successful_string_reductions((2, 2)))
        assert seqs == [[Rule("snr", (2,))]]

    def test_the_proved_count_is_the_searched_count_on_every_string_over_2_to_4(self):
        checked = 0
        for size in range(1, 4):
            for domain in combinations((2, 3, 4), size):
                for u in oracles.legal_strings_on(domain):
                    assert oracles.negative_rule_counts(u) == {
                        rewriting.predicted_negative_rule_count(u)}, u
                    checked += 1
        assert checked == 6060

    def test_the_proved_count_has_no_cap(self):
        u = sampling.random_realistic_string(random.Random(113), 41)
        assert len(pointers.domain(u)) == 40
        want = reduction.ReductionGraph(u).component_count() - 1
        assert rewriting.predicted_negative_rule_count(u) == want
        with pytest.raises(CapError):
            list(rewriting.successful_string_reductions(u))


STRING_SUBSETS = [frozenset(s) for r in range(4) for s in combinations(rewriting.STRING_KINDS, r)]


def _string_corpus():
    """Seeded legal strings of domain <= 6, some with gaps, and realistic strings at kappa 2..7."""
    rng = random.Random(102)
    corpus = [(), (2, 2), (-2, -2), (2, -2), (2, 3, 2, 3), (2, 3, -2, 3), (3, 2, 2, 3)]
    for _ in range(150):
        size = rng.randint(1, 6)
        mags = rng.sample(range(2, 40), size) if rng.random() < 0.3 else range(2, size + 2)
        letters = [-m if rng.random() < 0.5 else m for m in mags for _ in range(2)]
        rng.shuffle(letters)
        corpus.append(tuple(letters))
    corpus += [sampling.random_realistic_string(rng, kappa)
               for kappa in range(2, 8) for _ in range(12)]
    return corpus


def _snr_counts(seqs):
    return {sum(1 for r in seq if r.kind == "snr") for seq in seqs}


class TestStringSearchAgainstTheDFS:
    """The slot-tuple rules, the completion memo and the count-set search in
    tests/oracles.py, against the depth-first enumeration the first two replaced
    (``oracles.successful_string_reductions``)."""

    CORPUS = _string_corpus()

    def test_same_sequences_in_the_same_order_for_every_kind_subset(self):
        for u in self.CORPUS:
            for kinds in STRING_SUBSETS:
                assert list(rewriting.successful_string_reductions(u, kinds)) == list(
                    oracles.successful_string_reductions(u, kinds)
                ), (u, kinds)

    def test_negative_rule_counts_are_the_enumerated_snr_counts(self):
        for u in self.CORPUS:
            assert oracles.negative_rule_counts(u) == _snr_counts(
                oracles.successful_string_reductions(u)
            ), u

    def test_rule_lists_and_successors(self):
        for u in self.CORPUS:
            at = pointers.occurrence_index(u)
            for kinds in STRING_SUBSETS:
                rules = [r for r, _ in _string_steps(u, kinds)]
                assert rules == oracles._string_rules(u, kinds, at)
            for rule, v in _string_steps(u):
                assert v == oracles._string_step(u, rule, at)

    def test_each_rule_is_built_once_per_call(self):
        u = (2, 3, 4, 2, 3, 4, 5, 5)
        seqs = list(rewriting.successful_string_reductions(u))
        rules = [r for seq in seqs for r in seq]
        assert len(seqs) > 1
        assert len({id(r) for r in rules}) == len(set(rules))
        # each sequence is a list of its own, as the depth-first enumeration yields
        seqs[0].append(None)
        assert seqs[0] != seqs[1] and None not in seqs[1]

    def test_raised_caps_reach_kappa_12(self):
        rng = random.Random(103)
        for kappa in (8, 10, 12):
            u = sampling.random_realistic_string(rng, kappa)
            counts = oracles.negative_rule_counts(u, max_domain=kappa - 1)
            assert counts == {rewriting.predicted_negative_rule_count(u)}
            assert counts == {reduction.ReductionGraph(u).component_count() - 1}
            if kappa == 8:
                seqs = rewriting.successful_string_reductions(u, max_domain=7)
                assert _snr_counts(seqs) == counts

    @pytest.mark.parametrize("u, kinds, max_domain, error", [
        (tuple(range(2, 9)) * 2, rewriting.ALL_STRING_RULES, 6, CapError),
        (tuple(range(2, 9)) * 2, rewriting.ALL_STRING_RULES, 7, None),
        ((2, 3, 4, 2, 3, 4), rewriting.ALL_STRING_RULES, 2, CapError),
        (tuple(range(2, 16, 2)) * 2, rewriting.ALL_STRING_RULES, 6, CapError),  # 7 pointers, gaps
        ((2, 3, 2), rewriting.ALL_STRING_RULES, 6, LegalityError),
        ((2, 2, 2, 2), rewriting.ALL_STRING_RULES, 6, LegalityError),
        ((2, 2), ("snr", "gnr"), 6, ValueError),
        (tuple(range(2, 9)), ("snr", "bogus"), 6, ValueError),  # the kinds come before the cap
        (tuple(range(2, 9)), rewriting.ALL_STRING_RULES, 6, LegalityError),  # legality too
    ])
    def test_the_same_errors_as_the_dfs(self, u, kinds, max_domain, error):
        def outcome(search, *args):
            try:
                return "done", len(list(search(u, *args, max_domain=max_domain)))
            except ValueError as exc:
                return type(exc), str(exc)

        want = outcome(oracles.successful_string_reductions, kinds)
        assert want[0] == (error or "done")
        assert outcome(rewriting.successful_string_reductions, kinds) == want
        if kinds == rewriting.ALL_STRING_RULES:
            counts = outcome(oracles.negative_rule_counts)
            assert counts[0] == want[0] and (error is None or counts == want)


@settings(max_examples=200, deadline=None)
@given(strategies.legal_strings(max_domain=8))
def test_every_successful_string_reduction_uses_components_minus_one_snr(u):
    """The paper's string-side count: components(R_u) - 1 negative rules, on every sequence."""
    assume(u)
    reality, desire = oracles.reduction_edges(u)
    components = oracles.component_count(len(u), [reality, desire])
    assert oracles.negative_rule_counts(u, max_domain=8) == {components - 1}
    assert rewriting.predicted_negative_rule_count(u) == components - 1


@settings(max_examples=200, deadline=None)
@given(strategies.legal_strings())
def test_a_rule_applies_to_every_non_empty_legal_string(u):
    """Step 1 of the proof in ``predicted_negative_rule_count``: no legal string is stuck."""
    assert bool(_string_steps(u)) == bool(u)


def _components(u):
    """R_u's component count, the empty string counted as one component (R_() has none)."""
    return reduction.ReductionGraph(u).component_count() if u else 1


@settings(max_examples=200, deadline=None)
@given(strategies.legal_strings())
def test_each_string_rule_moves_the_component_count_by_its_kind(u):
    """Per rule: snr removes one component of R_u, spr and sdr keep the count."""
    before = _components(u)
    for rule, v in _string_steps(u):
        assert _components(v) == before - (rule.kind == "snr")


@settings(max_examples=200, deadline=None)
@given(strategies.graphs_on_domain())
def test_each_graph_rule_moves_the_nullity_by_its_kind(g):
    """Per rule: gnr lowers the GF(2) nullity by one, gpr and gdr keep it."""
    before = g.nullity()
    for rule in _graph_rules(g):
        assert rewriting.apply_graph_rule(g, rule).nullity() == before - (rule.kind == "gnr")


class TestGraphRules:
    def test_negative_rule_removes_isolated_vertex(self):
        g = gamma("22")
        out = rewriting.apply_graph_rule(g, Rule("gnr", (2,)))
        assert not out.vertices

    def test_positive_rule_locally_complements(self):
        g = gamma("72673456-3-245")
        out = rewriting.apply_graph_rule(g, Rule("gpr", (3,)))
        # neighbors of 3 were {4,5,6}: pairwise edges toggle off, signs flip
        assert out.vertices == {2, 4, 5, 6, 7}
        assert out.positive == {2, 4, 5, 6}
        assert out.edges == {(2, 4), (2, 5), (2, 7), (6, 7)}

    def test_double_rule_toggles_odd_pairs(self):
        g = gamma("453475623267")
        out = rewriting.apply_graph_rule(g, Rule("gdr", (3, 6)))
        assert out.vertices == {2, 4, 5, 7}
        assert out.positive == frozenset()
        assert out.edges == {(4, 5), (5, 7)}

    def test_inapplicable_rules(self):
        g = gamma("72673456-3-245")
        with pytest.raises(ValueError):
            rewriting.apply_graph_rule(g, Rule("gnr", (2,)))  # 2 is positive
        with pytest.raises(ValueError):
            rewriting.apply_graph_rule(g, Rule("gdr", (2, 4)))  # 2 is positive
        with pytest.raises(ValueError):
            rewriting.apply_graph_rule(gamma("2233"), Rule("gdr", (2, 3)))

    def test_double_rule_takes_its_edge_in_either_order(self):
        g = overlap.OverlapGraph({2, 3}, set(), {(2, 3)})
        for params in ((2, 3), (3, 2)):
            assert not rewriting.apply_graph_rule(g, Rule("gdr", params)).vertices
        g = gamma("453475623267")
        assert (rewriting.apply_graph_rule(g, Rule("gdr", (6, 3)))
                == rewriting.apply_graph_rule(g, Rule("gdr", (3, 6))))

    def test_rules_shrink_vertex_count(self):
        rng = random.Random(94)
        for _ in range(80):
            g = overlap.overlap_graph(sampling.random_legal_string(rng, gaps=False))
            for rule in _graph_rules(g):
                out = rewriting.apply_graph_rule(g, rule)
                assert len(out.vertices) < len(g.vertices)
                assert out.positive <= out.vertices


class TestPublishedReductions:
    def test_all_negative_sequence(self):
        g = gamma("453475623267")
        rules = rewriting.parse_rule_sequence("gnr_4 gdr_{5,7} gnr_2 gdr_{3,6}")
        h = g
        for rule in rules:
            assert rule in _graph_rules(h)
            h = rewriting.apply_graph_rule(h, rule)
        assert not h.vertices
        assert sum(1 for r in rules if r.kind == "gnr") == 2

    def test_signed_sequence(self):
        g = gamma("72673456-3-245")
        rules = rewriting.parse_rule_sequence("gnr_2 gpr_4 gpr_5 gpr_7 gpr_6 gpr_3")
        h = g
        for rule in rules:
            assert rule in _graph_rules(h)
            h = rewriting.apply_graph_rule(h, rule)
        assert not h.vertices
        assert sum(1 for r in rules if r.kind == "gnr") == 1

    def test_sequence_serialization_round_trip(self):
        text = "gnr_4 gdr_{5,7} gnr_2 gdr_{3,6}"
        rules = rewriting.parse_rule_sequence(text)
        assert rules[0] == Rule("gdr", (3, 6))  # rightmost applies first
        assert rewriting.format_rule_sequence(rules) == text

    @pytest.mark.parametrize("bad", ["xyz_2", "snr", "snr_{2,3}", "sdr_2", "gdr_4", "snr_0",
                                     "spr_1", "gnr_01", "sdr_{1,3}", "gdr_{3,0}", "gdr_{3,3}",
                                     "sdr_{2,2}", "snr_0 spr_1 gdr_{3,3}"])
    def test_malformed_sequences(self, bad):
        with pytest.raises(ParseError):
            rewriting.parse_rule_sequence(bad)


# every signed graph on {2..kappa} for kappa 2..5, realistic or not: 1,098 graphs
SMALL_GRAPHS = [
    overlap.OverlapGraph(frozenset(range(2, kappa + 1)), positive, edges)
    for kappa in range(2, 6)
    for edges, positive in oracles.signed_graphs(kappa)
]


def _classified(g):
    """The rule sets the classifier, given the nullity, calls successful, in search order."""
    comps = g.nullity() + 1
    return [s for s in TestSuccessfulness.SUBSETS
            if rewriting.successful_in_classifier(g, s, comps)]


def _searched(g):
    """The rule sets the per-set search in tests/oracles.py finds successful, in search order."""
    return [s for s in TestSuccessfulness.SUBSETS if oracles.successful_in_per_set(g, s)]


def _gnr_counts(g):
    return {sum(1 for r in seq if r.kind == "gnr")
            for seq in rewriting.successful_graph_reductions(g)}


class TestGraphCounts:
    """Every successful reduction of every graph, realistic or not, uses ``nullity`` gnr rules."""

    def test_graph_reductions_use_exactly_the_predicted_count(self):
        assert len(SMALL_GRAPHS) == 1098
        for g in SMALL_GRAPHS:
            want = g.nullity()
            assert rewriting.predicted_negative_rule_count(g) == want
            assert _gnr_counts(g) == {want}

    @settings(max_examples=150, deadline=None)
    @given(strategies.graphs_on_domain(max_kappa=6))
    def test_every_reduction_of_a_graph_uses_nullity_gnr(self, g):
        assert rewriting.predicted_negative_rule_count(g) == g.nullity()
        assert _gnr_counts(g) == {g.nullity()}
        assert _classified(g) == _searched(g)

    def test_a_graph_that_is_not_realistic(self):
        # the direct construction's component count - 1 is 3 here, but both
        # successful reductions, gpr_3 and gdr_{2,4} in either order, use no gnr
        g = overlap.OverlapGraph({2, 3, 4}, {3}, {(2, 4)})
        assert overlap.is_realistic_overlap(g) is None
        assert rewriting.predicted_negative_rule_count(g) == 0
        assert _gnr_counts(g) == {0}

    @settings(max_examples=150, deadline=None)
    @given(strategies.graphs_on_domain(max_kappa=7), st.data())
    def test_a_gapped_vertex_set_changes_no_answer(self, g, data):
        # on such a set a vertex's slot is not its magnitude; 10**6 is always a vertex
        n = len(g.vertex_order)
        others = data.draw(st.lists(st.integers(2, 40), min_size=n - 1, max_size=n - 1,
                                    unique=True))
        name = dict(zip(g.vertex_order, data.draw(st.permutations([10**6, *others]))))
        h = overlap.OverlapGraph({name[p] for p in g.vertices}, {name[p] for p in g.positive},
                                 {tuple(sorted((name[p], name[q]))) for p, q in g.edges})
        assert not h.contiguous_domain()
        assert h.nullity() == rewriting.predicted_negative_rule_count(h) == g.nullity()
        assert _searched(h) == _searched(g)
        assert _classified(h) == _classified(g)

    def test_string_and_graph_predictions_agree_on_realistic_strings(self):
        rng = random.Random(96)
        for _ in range(60):
            u = sampling.random_realistic_string(rng, rng.randint(2, 7))
            assert rewriting.predicted_negative_rule_count(
                u
            ) == rewriting.predicted_negative_rule_count(overlap.overlap_graph(u))


class TestSuccessfulness:
    SUBSETS = [
        frozenset(),
        frozenset({"gnr"}),
        frozenset({"gpr"}),
        frozenset({"gdr"}),
        frozenset({"gnr", "gpr"}),
        frozenset({"gnr", "gdr"}),
        frozenset({"gpr", "gdr"}),
        frozenset({"gnr", "gpr", "gdr"}),
    ]

    def test_worked_example_subsets(self):
        from geneasm import direct

        g = gamma("453475623267")
        comps = direct.direct_reduction_graph(g).component_count()
        assert comps == 3
        assert rewriting.successful_in_classifier(g, {"gnr", "gdr"}, comps)
        assert not rewriting.successful_in_classifier(g, {"gpr", "gdr"}, comps)
        assert oracles.successful_in_per_set(g, {"gnr", "gdr"})
        assert not oracles.successful_in_per_set(g, {"gpr", "gdr"})

    def test_classifier_agrees_with_search_exhaustively_small(self):
        from geneasm import direct

        for kappa in (2, 3):
            for entries in permutations(range(1, kappa + 1)):
                for signs in product((1, -1), repeat=kappa):
                    arr = tuple(k * s for k, s in zip(entries, signs))
                    g = overlap.overlap_graph(pointers.encode_arrangement(arr))
                    comps = direct.direct_reduction_graph(g).component_count()
                    for kinds in self.SUBSETS:
                        assert oracles.successful_in_per_set(
                            g, kinds
                        ) == rewriting.successful_in_classifier(g, kinds, comps)

    def test_classifier_with_the_nullity_agrees_with_search_on_every_small_graph(self):
        graphs = 0
        for kappa in range(2, 7):
            vertices = frozenset(range(2, kappa + 1))
            for edges, positive in oracles.signed_graphs(kappa):
                g = overlap.OverlapGraph(vertices, positive, edges)
                assert _classified(g) == _searched(g)
                graphs += 1
        assert graphs == 1098 + 32768

    def test_classifier_agrees_with_search_on_seeded_graphs_at_kappa_7_and_8(self):
        # sparse to dense, few to many positive vertices: single vertices,
        # several components and all-negative ones all occur
        rng = random.Random(108)
        for _ in range(300):
            kappa = rng.randint(7, 8)
            vertices = range(2, kappa + 1)
            density, positive_share = rng.choice((0.15, 0.3, 0.5)), rng.choice((0.0, 0.2, 0.5))
            g = overlap.OverlapGraph(
                vertices=frozenset(vertices),
                positive=frozenset(v for v in vertices if rng.random() < positive_share),
                edges=frozenset(e for e in combinations(vertices, 2) if rng.random() < density),
            )
            assert _classified(g) == _searched(g)

    def test_classifier_agrees_with_search_random(self):
        from geneasm import direct

        rng = random.Random(97)
        for _ in range(40):
            u = sampling.random_realistic_string(rng, rng.randint(2, 6))
            g = overlap.overlap_graph(u)
            comps = direct.direct_reduction_graph(g).component_count()
            for kinds in self.SUBSETS:
                assert oracles.successful_in_per_set(
                    g, kinds
                ) == rewriting.successful_in_classifier(g, kinds, comps)

    def test_full_rule_set_always_succeeds(self):
        rng = random.Random(98)
        for _ in range(40):
            u = sampling.random_realistic_string(rng, rng.randint(2, 6))
            g = overlap.overlap_graph(u)
            assert oracles.successful_in_per_set(g, rewriting.ALL_GRAPH_RULES)
            assert rewriting.successful_in(g, rewriting.ALL_GRAPH_RULES)

    def test_search_cap(self):
        # the deciders answer at any kappa; only the enumerator has a cap
        g = overlap.overlap_graph(pointers.encode_arrangement(tuple(range(1, 10))))
        assert len(g.vertices) + 1 == 9
        assert rewriting.successful_in(g, {"gnr"})  # nine segments in order: all isolated
        assert rewriting.successful_rule_sets(g) == [s for s in self.SUBSETS if "gnr" in s]
        with pytest.raises(CapError):
            list(rewriting.successful_graph_reductions(g))

    def test_unknown_rule_kinds_rejected(self):
        with pytest.raises(ValueError):
            next(rewriting.successful_string_reductions((2, 2), kinds=("snr", "bogus")))
        with pytest.raises(ValueError):
            rewriting.successful_in(gamma("22"), {"gnr", "nope"})

    def test_string_sequence_formatting(self):
        rules = [Rule("sdr", (2, 3)), Rule("snr", (4,))]
        assert rewriting.format_rule_sequence(rules) == "snr_4 sdr_{2,3}"
        assert rewriting.parse_rule_sequence("snr_4 sdr_{2,3}") == rules

    def test_canonical_key_respects_isomorphism(self):
        g1 = gamma("2233")
        g2 = gamma("3322")
        assert oracles.canonical_graph_key(g1) == oracles.canonical_graph_key(g2)
        g3 = gamma("2323")
        assert oracles.canonical_graph_key(g1) != oracles.canonical_graph_key(g3)


@settings(max_examples=300, deadline=None)
@given(strategies.legal_strings(max_domain=6))
def test_string_and_graph_rules_commute(u):
    """gamma(r(u)) == r^(gamma(u)) with snr->gnr, spr->gpr, sdr->gdr (params sorted)."""
    g = overlap.overlap_graph(u)
    for rule, v in _string_steps(u):
        hat = Rule("g" + rule.kind[1:], tuple(sorted(rule.params)))
        assert overlap.overlap_graph(v) == rewriting.apply_graph_rule(g, hat)


def _random_signed_graph(rng, kappa):
    vertices = range(2, kappa + 1)
    return overlap.OverlapGraph(
        vertices=frozenset(vertices),
        positive=frozenset(v for v in vertices if rng.random() < 0.5),
        edges=frozenset(e for e in combinations(vertices, 2) if rng.random() < 0.5),
    )


def _plain(rules):
    return [(r.kind, r.params) for r in rules]


class TestAgainstOracles:
    """The bitmask rules, the enumerator and the classifier against the edge-set search in
    tests/oracles.py."""

    def test_rule_lists_and_successors_on_every_small_graph(self):
        for g in SMALL_GRAPHS:
            rules = _graph_rules(g)
            assert _plain(rules) == oracles.applicable_graph_rules(g)
            for rule in rules:
                out = rewriting.apply_graph_rule(g, rule)
                assert oracles.Graph(out.vertices, out.positive, out.edges) == (
                    oracles.apply_graph_rule(g, (rule.kind, rule.params))
                )

    def test_successful_in_on_every_small_graph(self):
        for g in SMALL_GRAPHS:
            for kinds in TestSuccessfulness.SUBSETS:
                assert rewriting.successful_in(g, kinds) == oracles.successful_in(g, kinds)

    def test_successful_in_on_random_graphs(self):
        rng = random.Random(99)
        for _ in range(30):
            g = _random_signed_graph(rng, rng.randint(6, 7))
            for kinds in TestSuccessfulness.SUBSETS:
                assert rewriting.successful_in(g, kinds) == oracles.successful_in(g, kinds)

    def test_reduction_sequences_in_order(self):
        rng = random.Random(100)
        for _ in range(60):
            g = _random_signed_graph(rng, rng.randint(2, 5))
            for kinds in TestSuccessfulness.SUBSETS:
                got = [_plain(seq) for seq in rewriting.successful_graph_reductions(g, kinds)]
                assert got == oracles.successful_graph_reductions(g, kinds)


class TestOneClassifierCallPerSet:
    """``successful_rule_sets``, one classifier call per set, against the per-set search."""

    @settings(max_examples=200, deadline=None)
    @given(strategies.graphs_on_domain(max_kappa=8))
    def test_matches_the_per_set_search_and_the_oracle(self, g):
        sets = rewriting.successful_rule_sets(g)
        assert sets == _searched(g)
        if len(g.vertices) + 1 <= 5:
            assert sets == [s for s in TestSuccessfulness.SUBSETS if oracles.successful_in(g, s)]

    def test_order_is_set_order(self):
        # SET_ORDER is also the order of the lines classify prints
        g = gamma("2233")  # two isolated negative vertices: every set with gnr succeeds
        assert rewriting.successful_rule_sets(g) == [s for s in rewriting.SET_ORDER if "gnr" in s]
        assert rewriting.successful_rule_sets(gamma("")) == TestSuccessfulness.SUBSETS


@settings(max_examples=200, deadline=None)
@given(strategies.arrangements(max_kappa=7))
def test_classifier_equals_search_on_encoded_arrangements(arr):
    from geneasm import direct

    g = overlap.overlap_graph(pointers.encode_arrangement(arr))
    comps = direct.direct_reduction_graph(g).component_count()
    for kinds in TestSuccessfulness.SUBSETS:
        assert rewriting.successful_in_classifier(g, kinds, comps) == (
            oracles.successful_in_per_set(g, kinds)
        )


# ---------------------------------------------------------------------------
# the proof of {gnr, gpr} sufficiency in ``successful_in_classifier``'s docstring

def _phi(g):
    """Every component of two or more vertices has a positive vertex."""
    return all(not comp & (comp - 1) or comp & g.positive_mask for comp in g.component_masks)


def _proof_choice(g):
    """The proof's p: a positive vertex with the fewest positive neighbours, then the most."""
    adj, positive = g.neighbor_masks, g.positive_mask
    slot = min(overlap.bits(positive),
               key=lambda s: ((adj[s] & positive).bit_count(), -adj[s].bit_count()))
    return g.vertex_order[slot - 2]


def _proof_reduction(g):
    """The proof's greedy sequence, each rule replayed through ``apply_graph_rule``.

    gnr on the smallest isolated negative vertex, else gpr at ``_proof_choice``;
    on a graph with neither left, ``min`` raises ``ValueError``.
    """
    rules = []
    while g.vertices:
        adj = g.neighbor_masks
        isolated = [s for s in overlap.bits(g.vertex_mask & ~g.positive_mask) if not adj[s]]
        if isolated:
            rule = Rule("gnr", (g.vertex_order[isolated[0] - 2],))
        else:
            rule = Rule("gpr", (_proof_choice(g),))
        g = rewriting.apply_graph_rule(g, rule)
        rules.append(rule)
    return rules


def _choice_keeps_phi(g) -> bool:
    """Φ holds after gpr at the proof's p, or the proof's hypothesis fails."""
    if not (_phi(g) and g.positive_mask):
        return True
    return _phi(rewriting.apply_graph_rule(g, Rule("gpr", (_proof_choice(g),))))


class TestGnrGprProof:
    @settings(max_examples=300, deadline=None)
    @given(strategies.graphs_on_domain())
    def test_the_choice_keeps_phi(self, g):
        assert _choice_keeps_phi(g)

    def test_the_choice_keeps_phi_on_every_small_graph(self):
        checked = 0
        for kappa in range(2, 7):
            vertices = frozenset(range(2, kappa + 1))
            for edges, positive in oracles.signed_graphs(kappa):
                g = overlap.OverlapGraph(vertices, positive, edges)
                assert _choice_keeps_phi(g)
                checked += bool(_phi(g) and positive)
        # of the 1,098 + 32,768 graphs, those that satisfy Φ and have a positive vertex
        assert checked == 31737

    def test_the_choice_on_a_path(self):
        # a - c - b, with a = 2 and c = 3 positive: each has one positive neighbour, and
        # gpr_2 leaves the edge 3-4 all negative; c has more neighbours, and gpr_3 works
        g = overlap.OverlapGraph({2, 3, 4}, {2, 3}, {(2, 3), (3, 4)})
        assert _proof_choice(g) == 3
        assert not _phi(rewriting.apply_graph_rule(g, Rule("gpr", (2,))))
        assert _phi(rewriting.apply_graph_rule(g, Rule("gpr", (3,))))
        assert _proof_reduction(g) == [Rule("gpr", (3,)), Rule("gpr", (4,)), Rule("gpr", (2,))]

    def test_the_greedy_sequence_replays_at_large_kappa(self):
        sets = (frozenset({"gnr", "gpr"}), frozenset({"gpr"}))
        replayed = dict.fromkeys(sets, 0)
        rng = random.Random(112)
        for kappa in (64, 128, 256):
            for _ in range(3):
                # about eight neighbours a vertex, most vertices positive
                vertices = range(2, kappa + 1)
                g = overlap.OverlapGraph(
                    vertices=frozenset(vertices),
                    positive=frozenset(v for v in vertices if rng.random() < 0.8),
                    edges=frozenset(e for e in combinations(vertices, 2)
                                    if rng.random() < 8 / kappa),
                )
                accepted = [s for s in sets if rewriting.successful_in(g, s)]
                if not accepted:
                    continue
                kinds = [r.kind for r in _proof_reduction(g)]  # replays to the empty graph
                assert kinds.count("gnr") == g.nullity()
                for s in accepted:
                    assert set(kinds) <= s
                    replayed[s] += 1
        assert replayed[sets[0]] == 9 and replayed[sets[1]] > 0
