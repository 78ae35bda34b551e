import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
import strategies
from geneasm import overlap, pointers, reduction, rewriting
from geneasm.errors import CapError, LegalityError, ParseError
from geneasm.rewriting import Rule


def gamma(text):
    return overlap.overlap_graph(pointers.parse_pointer_string(text))


def _random_legal(rng, max_domain=5):
    size = rng.randint(1, max_domain)
    letters = []
    for m in range(2, size + 2):
        letters.append(-m if rng.random() < 0.5 else m)
        letters.append(-m if rng.random() < 0.5 else m)
    rng.shuffle(letters)
    return tuple(letters)


def _random_realistic(rng, kappa):
    entries = list(range(1, kappa + 1))
    rng.shuffle(entries)
    return pointers.encode_arrangement(
        tuple(-k if rng.random() < 0.5 else k for k in entries)
    )


class TestStringRules:
    def test_negative_rule(self):
        assert rewriting.apply_string_rule((2, 2), Rule("snr", (2,))) == ()
        assert rewriting.apply_string_rule(
            (3, 2, 2, 3), Rule("snr", (2,))
        ) == (3, 3)
        # barred adjacent pairs count as the same rule
        assert rewriting.apply_string_rule((-2, -2), Rule("snr", (2,))) == ()

    def test_positive_rule(self):
        assert rewriting.apply_string_rule(
            (2, 3, -2, 3), Rule("spr", (2,))
        ) == (-3, 3)
        assert rewriting.apply_string_rule((2, -2), Rule("spr", (2,))) == ()

    def test_double_rule(self):
        assert rewriting.apply_string_rule(
            (2, 3, 2, 3), Rule("sdr", (2, 3))
        ) == ()
        assert rewriting.apply_string_rule(
            (4, 2, 3, 2, 3, 4), Rule("sdr", (2, 3))
        ) == (4, 4)
        # segments swap around the removed occurrences
        assert rewriting.apply_string_rule(
            (2, 4, 4, 3, 2, 5, 5, 3), Rule("sdr", (2, 3))
        ) == (5, 5, 4, 4)

    def test_applicability(self):
        u = (2, 3, 2, 3)
        assert rewriting.applicable_string_rules(u) == [Rule("sdr", (2, 3))]
        v = (2, 3, -2, 3)
        assert rewriting.applicable_string_rules(v) == [Rule("spr", (2,))]
        assert rewriting.applicable_string_rules(v, kinds=("snr",)) == []
        with pytest.raises(ValueError):
            rewriting.apply_string_rule((2, 3, 2, 3), Rule("snr", (2,)))

    def test_rules_shrink_domain_and_preserve_legality(self):
        rng = random.Random(91)
        for _ in range(150):
            u = _random_legal(rng)
            for rule in rewriting.applicable_string_rules(u):
                v = rewriting.apply_string_rule(u, rule)
                assert pointers.is_legal(v)
                assert pointers.domain(v) < pointers.domain(u)

    def test_every_legal_string_fully_reduces(self):
        rng = random.Random(92)
        for _ in range(100):
            u = _random_legal(rng, max_domain=4)
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

    def test_rejects_empty_string(self):
        with pytest.raises(LegalityError, match="^the empty string has no negative-rule prediction$"):
            rewriting.predicted_negative_rule_count(())

    def test_graph_side_counts_on_any_vertex_set(self):
        # {2, 4}, two isolated negative vertices: every reduction is two gnr
        g = gamma("2244")
        assert rewriting.predicted_negative_rule_count(g) == 2
        assert _gnr_counts(g) == {2}

    def test_string_reductions_use_exactly_the_predicted_count(self):
        rng = random.Random(93)
        for _ in range(60):
            u = _random_legal(rng, max_domain=4)
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
    corpus += [_random_realistic(rng, kappa) for kappa in range(2, 8) for _ in range(12)]
    return corpus


def _snr_counts(seqs):
    return {sum(1 for r in seq if r.kind == "snr") for seq in seqs}


class TestStringSearchAgainstTheDFS:
    """The slot-tuple rules, the completion memo and the count sets, against the
    depth-first enumeration they replaced (``oracles.successful_string_reductions``)."""

    CORPUS = _string_corpus()

    def test_same_sequences_in_the_same_order_for_every_kind_subset(self):
        for u in self.CORPUS:
            for kinds in STRING_SUBSETS:
                assert list(rewriting.successful_string_reductions(u, kinds)) == list(
                    oracles.successful_string_reductions(u, kinds)
                ), (u, kinds)

    def test_negative_rule_counts_are_the_enumerated_snr_counts(self):
        for u in self.CORPUS:
            assert rewriting.negative_rule_counts(u) == _snr_counts(
                oracles.successful_string_reductions(u)
            ), u

    def test_rule_lists_and_successors(self):
        for u in self.CORPUS:
            at = pointers.occurrence_index(u)
            for kinds in STRING_SUBSETS:
                rules = rewriting.applicable_string_rules(u, kinds)
                assert rules == oracles._string_rules(u, kinds, at)
            for rule in rewriting.applicable_string_rules(u):
                assert rewriting.apply_string_rule(u, rule) == oracles._string_step(u, rule, at)

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
            u = _random_realistic(rng, kappa)
            counts = rewriting.negative_rule_counts(u, max_domain=kappa - 1)
            assert counts == {reduction.ReductionGraph(u).component_count() - 1}
            if kappa == 8:
                seqs = rewriting.successful_string_reductions(u, max_domain=7)
                assert _snr_counts(seqs) == counts

    @pytest.mark.parametrize("u, kinds, max_domain, error", [
        (tuple(range(2, 9)) * 2, rewriting.ALL_STRING_RULES, 6, CapError),
        (tuple(range(2, 9)) * 2, rewriting.ALL_STRING_RULES, 7, None),
        ((2, 3, 4, 2, 3, 4), rewriting.ALL_STRING_RULES, 2, CapError),
        (tuple(range(2, 9)), rewriting.ALL_STRING_RULES, 6, CapError),  # the cap is checked first
        ((2, 3, 2), rewriting.ALL_STRING_RULES, 6, LegalityError),
        ((2, 2, 2, 2), rewriting.ALL_STRING_RULES, 6, LegalityError),
        ((2, 2), ("snr", "gnr"), 6, ValueError),
        (tuple(range(2, 9)), ("snr", "bogus"), 6, ValueError),  # the kinds come before the cap
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
            counts = outcome(rewriting.negative_rule_counts)
            assert counts[0] == want[0] and (error is None or counts == want)


@settings(max_examples=200, deadline=None)
@given(strategies.legal_strings(max_domain=8))
def test_every_successful_string_reduction_uses_components_minus_one_snr(u):
    """The paper's string-side count: components(R_u) - 1 negative rules, on every sequence."""
    assume(u)
    reality, desire = oracles.reduction_edges(u)
    components = oracles.component_count(len(u), [reality, desire])
    assert rewriting.negative_rule_counts(u, max_domain=8) == {components - 1}


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

    def test_rules_shrink_vertex_count(self):
        rng = random.Random(94)
        for _ in range(80):
            g = overlap.overlap_graph(_random_legal(rng))
            for rule in rewriting.applicable_graph_rules(g):
                out = rewriting.apply_graph_rule(g, rule)
                assert len(out.vertices) < len(g.vertices)
                assert out.positive <= out.vertices


class TestPublishedReductions:
    def test_all_negative_sequence(self):
        g = gamma("453475623267")
        rules = rewriting.parse_rule_sequence("gnr_4 gdr_{5,7} gnr_2 gdr_{3,6}")
        h = g
        for rule in rules:
            assert rule in rewriting.applicable_graph_rules(h)
            h = rewriting.apply_graph_rule(h, rule)
        assert not h.vertices
        assert sum(1 for r in rules if r.kind == "gnr") == 2

    def test_signed_sequence(self):
        g = gamma("72673456-3-245")
        rules = rewriting.parse_rule_sequence("gnr_2 gpr_4 gpr_5 gpr_7 gpr_6 gpr_3")
        h = g
        for rule in rules:
            assert rule in rewriting.applicable_graph_rules(h)
            h = rewriting.apply_graph_rule(h, rule)
        assert not h.vertices
        assert sum(1 for r in rules if r.kind == "gnr") == 1

    def test_sequence_serialization_round_trip(self):
        text = "gnr_4 gdr_{5,7} gnr_2 gdr_{3,6}"
        rules = rewriting.parse_rule_sequence(text)
        assert rules[0] == Rule("gdr", (3, 6))  # rightmost applies first
        assert rewriting.format_rule_sequence(rules) == text

    @pytest.mark.parametrize("bad", ["xyz_2", "snr", "snr_{2,3}", "sdr_2", "gdr_4"])
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
        for kinds in TestSuccessfulness.SUBSETS:
            assert rewriting.successful_in_classifier(g, kinds, g.nullity() + 1) == (
                rewriting.successful_in(g, kinds)
            )

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
        assert rewriting.successful_rule_sets(h) == rewriting.successful_rule_sets(g)
        assert _classified(h) == _classified(g)

    def test_string_and_graph_predictions_agree_on_realistic_strings(self):
        rng = random.Random(96)
        for _ in range(60):
            u = _random_realistic(rng, rng.randint(2, 7))
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
        assert rewriting.successful_in(g, {"gnr", "gdr"})
        assert not rewriting.successful_in(g, {"gpr", "gdr"})

    def test_classifier_agrees_with_search_exhaustively_small(self):
        from geneasm import direct

        for kappa in (2, 3):
            for entries in permutations(range(1, kappa + 1)):
                for signs in product((1, -1), repeat=kappa):
                    arr = tuple(k * s for k, s in zip(entries, signs))
                    g = overlap.overlap_graph(pointers.encode_arrangement(arr))
                    comps = direct.direct_reduction_graph(g).component_count()
                    for kinds in self.SUBSETS:
                        assert rewriting.successful_in(
                            g, kinds
                        ) == rewriting.successful_in_classifier(g, kinds, comps)

    def test_classifier_with_the_nullity_agrees_with_search_on_every_small_graph(self):
        graphs = 0
        for kappa in range(2, 7):
            vertices = frozenset(range(2, kappa + 1))
            for edges, positive in oracles.signed_graphs(kappa):
                g = overlap.OverlapGraph(vertices, positive, edges)
                assert _classified(g) == rewriting.successful_rule_sets(g)
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
            assert _classified(g) == rewriting.successful_rule_sets(g, max_kappa=8)

    def test_classifier_agrees_with_search_random(self):
        from geneasm import direct

        rng = random.Random(97)
        for _ in range(40):
            u = _random_realistic(rng, rng.randint(2, 6))
            g = overlap.overlap_graph(u)
            comps = direct.direct_reduction_graph(g).component_count()
            for kinds in self.SUBSETS:
                assert rewriting.successful_in(
                    g, kinds
                ) == rewriting.successful_in_classifier(g, kinds, comps)

    def test_full_rule_set_always_succeeds(self):
        rng = random.Random(98)
        for _ in range(40):
            u = _random_realistic(rng, rng.randint(2, 6))
            assert rewriting.successful_in(overlap.overlap_graph(u), rewriting.ALL_GRAPH_RULES)

    def test_search_cap(self):
        g = overlap.overlap_graph(pointers.encode_arrangement(tuple(range(1, 9))))
        with pytest.raises(CapError):
            rewriting.successful_in(g, {"gnr"})
        with pytest.raises(CapError):
            list(rewriting.successful_graph_reductions(g))

    def test_unknown_rule_kinds_rejected(self):
        with pytest.raises(ValueError):
            rewriting.applicable_string_rules((2, 2), kinds=("snr", "bogus"))
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
    for rule in rewriting.applicable_string_rules(u):
        hat = Rule("g" + rule.kind[1:], tuple(sorted(rule.params)))
        assert overlap.overlap_graph(
            rewriting.apply_string_rule(u, rule)
        ) == rewriting.apply_graph_rule(g, hat)


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
    """The bitmask rules and search against the edge-set ones in tests/oracles.py."""

    def test_rule_lists_and_successors_on_every_small_graph(self):
        for g in SMALL_GRAPHS:
            rules = rewriting.applicable_graph_rules(g)
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


class TestOneSearchForEverySet:
    """``successful_rule_sets`` and the mask it stores, against the per-set search it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(strategies.graphs_on_domain(max_kappa=8))
    def test_matches_the_per_set_search_and_the_oracle(self, g):
        sets = rewriting.successful_rule_sets(g, max_kappa=8)
        assert sets == [s for s in TestSuccessfulness.SUBSETS
                        if oracles.successful_in_per_set(g, s)]
        if len(g.vertices) + 1 <= 5:
            assert sets == [s for s in TestSuccessfulness.SUBSETS if oracles.successful_in(g, s)]

    def test_a_state_met_again_for_more_sets_is_searched_for_them(self):
        # the walk meets some state first for a few sets and later for more; a memo
        # that took the first visit as final for every set misses a successful one here
        g = overlap.OverlapGraph(range(2, 7), {3, 4, 5, 6},
                                 {(2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5)})
        assert rewriting.successful_rule_sets(g) == [
            s for s in TestSuccessfulness.SUBSETS if oracles.successful_in_per_set(g, s)
        ]

    def test_order_is_the_cli_subset_order(self):
        from geneasm import cli

        g = gamma("2233")  # two isolated negative vertices: every set with gnr succeeds
        assert rewriting.successful_rule_sets(g) == [
            frozenset(s) for s in cli.SUBSET_ORDER if "gnr" in s
        ]
        assert rewriting.successful_rule_sets(gamma("")) == TestSuccessfulness.SUBSETS

    def test_equal_graphs_built_separately_each_get_their_answer(self):
        g1, g2 = gamma("453475623267"), gamma("453475623267")
        other = gamma("72673456-3-245")
        assert g1 == g2 and g1 is not g2
        want = [s for s in TestSuccessfulness.SUBSETS if oracles.successful_in_per_set(g1, s)]
        want_other = [s for s in TestSuccessfulness.SUBSETS
                      if oracles.successful_in_per_set(other, s)]
        assert want != want_other
        assert rewriting.successful_rule_sets(g1) == want
        # the answer is stored on the graph asked, not in a table an equal graph reads
        assert g1._rule_set_mask is not None and g2._rule_set_mask is None
        # and it is not a field: equality and hashing ignore it
        assert g1 == g2 and hash(g1) == hash(g2)
        assert rewriting.successful_rule_sets(other) == want_other
        assert rewriting.successful_rule_sets(g2) == want
        for s in TestSuccessfulness.SUBSETS:
            assert rewriting.successful_in(g1, s) == (s in want)
            assert rewriting.successful_in(other, s) == (s in want_other)

    def test_stored_answer_keeps_the_cap_and_kinds_checks(self):
        g = overlap.overlap_graph(pointers.encode_arrangement(tuple(range(1, 9))))
        assert rewriting.successful_in(g, {"gnr", "gdr"}, max_kappa=8)
        with pytest.raises(CapError):
            rewriting.successful_in(g, {"gnr", "gdr"})
        with pytest.raises(CapError):
            rewriting.successful_rule_sets(g, max_kappa=7)
        with pytest.raises(ValueError):
            rewriting.successful_in(g, {"gnr", "nope"}, max_kappa=8)


@settings(max_examples=200, deadline=None)
@given(strategies.arrangements(max_kappa=7))
def test_classifier_equals_search_on_encoded_arrangements(arr):
    from geneasm import direct

    g = overlap.overlap_graph(pointers.encode_arrangement(arr))
    comps = direct.direct_reduction_graph(g).component_count()
    for kinds in TestSuccessfulness.SUBSETS:
        assert rewriting.successful_in_classifier(g, kinds, comps) == rewriting.successful_in(g, kinds)
