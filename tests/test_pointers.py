import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from geneasm import pointers, sampling
from geneasm.errors import LegalityError, ParseError


def seq(text):
    return pointers.parse_pointer_string(text)


class TestParsing:
    def test_spaced(self):
        assert seq("3 2 -4 3 -2 4") == (3, 2, -4, 3, -2, 4)

    def test_compact(self):
        assert seq("32-43-24") == (3, 2, -4, 3, -2, 4)
        assert seq("72673456-3-245") == (7, 2, 6, 7, 3, 4, 5, 6, -3, -2, 4, 5)

    def test_empty(self):
        assert seq("") == ()
        assert seq("   ") == ()

    def test_multi_digit_spaced(self):
        u = pointers.parse_pointer_string("2 11 -11 2")
        assert u == (2, 11, -11, 2)
        assert pointers.parse_pointer_string(pointers.format_pointer_string(u)) == u

    def test_single_token_prefers_compact(self):
        assert seq("23") == (2, 3)
        # not valid compact (digit < 2), so read as one spaced token
        assert seq("11") == (11,)

    @pytest.mark.parametrize("bad", ["x", "2 y", "-", "1", "2 -1", "2-", "0 3"])
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            pointers.parse_pointer_string(bad)

    # str.isdigit is true for each of these, but only 0-9 are digits in pointer text
    @pytest.mark.parametrize("digit", ["\u0663", "\u00b2", "\u2082", "\uff13"],
                             ids=["arabic-indic-3", "superscript-2", "subscript-2", "fullwidth-3"])
    def test_only_ascii_digits(self, digit):
        for text in (f"2{digit}2{digit}", f"2 {digit} 2 {digit}", f"2 -{digit} 2 {digit}"):
            with pytest.raises(ParseError, match=r"^malformed pointer token "):
                pointers.parse_pointer_string(text)
        for text in (f"M1 M{digit}", f"M1 -M{digit}", f"M{digit} M1"):
            with pytest.raises(ParseError, match=r"^malformed arrangement token "):
                pointers.parse_arrangement(text)

    def test_round_trip_both_formats(self):
        rng = random.Random(11)
        for _ in range(100):
            u = tuple(
                rng.choice((1, -1)) * rng.randint(2, 9) for _ in range(rng.randint(0, 10))
            )
            for fmt in ("spaced", "compact"):
                text = pointers.format_pointer_string(u, fmt)
                assert pointers.parse_pointer_string(text) == u

    def test_compact_rejects_large_magnitudes(self):
        with pytest.raises(ValueError):
            pointers.format_pointer_string((2, 11), "compact")


class TestBasics:
    def test_is_legal(self):
        assert pointers.is_legal((2, 4, 5, 3, 5, 4, 2, 3))
        assert pointers.is_legal((2, 2, 4, 4))
        assert not pointers.is_legal((2, 3, 2))
        # a singleton, a triple and a quadruple
        assert not pointers.is_legal((-2,))
        assert not pointers.is_legal((2, -2, 2, 3, 3))
        assert not pointers.is_legal((2, 2, -2, 2))
        assert pointers.is_legal(())
        assert pointers.is_legal((2, -2))

    def test_string_operations(self):
        assert pointers.complement((2, -3)) == (-2, 3)
        assert pointers.reversal((2, 3)) == (3, 2)
        assert pointers.reversal(()) == ()
        assert pointers.inverse((2, 3)) == (-3, -2)
        assert pointers.conjugates((2, 2)) == [(2, 2)]
        assert pointers.conjugates(()) == [()]
        assert pointers.conjugates((2, 3, 2, 3)) == [(2, 3, 2, 3), (3, 2, 3, 2)]

    def test_conjugates_keep_first_rotation_order(self):
        rng = random.Random(12)
        for _ in range(100):
            u = tuple(rng.choice((2, -2, 3)) for _ in range(rng.randint(1, 8))) * rng.randint(1, 3)
            want = []
            for r in range(len(u)):
                if u[r:] + u[:r] not in want:
                    want.append(u[r:] + u[:r])
            assert pointers.conjugates(u) == want

    def test_occurrence_index(self):
        rng = random.Random(13)
        assert pointers.occurrence_index(()) == {}
        assert pointers.occurrence_index(seq("32-43-24")) == {3: (1, 4), 2: (2, 5), 4: (3, 6)}
        for _ in range(100):
            u = sampling.random_legal_string(rng, max_domain=12, gaps=True)
            at = pointers.occurrence_index(u)
            assert at == {p: oracles.occurrence_positions(u, p) for p in pointers.domain(u)}

    def test_polarity_partition(self):
        u = seq("32-43-24")
        assert pointers.positive_set(u) == {2, 4}
        assert pointers.domain(u) - pointers.positive_set(u) == {3}
        v = seq("24535423")
        assert pointers.positive_set(v) == frozenset()
        assert pointers.domain(()) == frozenset()
        assert pointers.positive_set(()) == frozenset()

    def test_polarity_requires_legality(self):
        with pytest.raises(LegalityError):
            pointers.positive_set((2, 3, 2))


@settings(max_examples=400, deadline=None)
@given(st.one_of(strategies.legal_strings(max_domain=5), strategies.signed_sequences()))
def test_occurrence_index_is_the_legality_check(u):
    """It raises iff some magnitude does not occur exactly twice; is_legal and positive_set agree."""
    legal = all(count == 2 for count in Counter(map(abs, u)).values())
    assert pointers.is_legal(u) == legal
    if not legal:
        message = f"not a legal string: {pointers.format_pointer_string(u)!r}"
        for check in (pointers.occurrence_index, pointers.positive_set):
            with pytest.raises(LegalityError) as raised:
                check(u)
            assert str(raised.value) == message
        return
    at = pointers.occurrence_index(u)
    assert at == {p: oracles.occurrence_positions(u, p) for p in pointers.domain(u)}
    assert pointers.positive_set(u) == {abs(x) for x in u if -x in u}


class TestArrangements:
    def test_parse_format_round_trip(self):
        arr = pointers.parse_arrangement("M7 M1 M6 M3 M5 -M2 M4")
        assert arr == (7, 1, 6, 3, 5, -2, 4)
        assert pointers.format_arrangement(arr) == "M7 M1 M6 M3 M5 -M2 M4"

    @pytest.mark.parametrize("bad", ["M1", "M1 M1", "M1 M3", "M0 M1", "Mx M1", "2 3"])
    def test_malformed_arrangements(self, bad):
        with pytest.raises(ParseError):
            pointers.parse_arrangement(bad)

    def test_encode_worked_examples(self):
        arr = pointers.parse_arrangement("M7 M1 M6 M3 M5 -M2 M4")
        assert pointers.encode_arrangement(arr) == seq("72673456-3-245")
        arr2 = pointers.parse_arrangement("M4 M3 M7 M5 M2 M1 M6")
        assert pointers.encode_arrangement(arr2) == seq("453475623267")
        assert pointers.encode_arrangement((1, 2)) == (2, 2)

    def test_encoded_strings_are_legal_with_full_domain(self):
        rng = random.Random(5)
        for _ in range(200):
            kappa = rng.randint(2, 8)
            entries = list(range(1, kappa + 1))
            rng.shuffle(entries)
            arr = tuple(-k if rng.random() < 0.5 else k for k in entries)
            u = pointers.encode_arrangement(arr)
            assert pointers.is_legal(u)
            assert pointers.domain(u) == frozenset(range(2, kappa + 1))
            assert len(u) == 2 * kappa - 2

    def test_decode_examples(self):
        assert pointers.realistic_decode(seq("223344")) == (1, 2, 3, 4)
        assert pointers.realistic_decode(seq("3322")) is None
        assert pointers.realistic_decode(seq("234432")) is None
        assert pointers.realistic_decode(()) is None
        assert pointers.realistic_decode(seq("2244")) is None  # domain gap

    def test_decode_round_trip(self):
        rng = random.Random(6)
        for _ in range(150):
            kappa = rng.randint(2, 7)
            entries = list(range(1, kappa + 1))
            rng.shuffle(entries)
            arr = tuple(-k if rng.random() < 0.5 else k for k in entries)
            u = pointers.encode_arrangement(arr)
            back = pointers.realistic_decode(u)
            assert back is not None
            assert pointers.encode_arrangement(back) == u

    def test_decode_tries_blocks_in_segment_order(self):
        # at kappa 2 both M1 and M2 read "2", and both -M1 and -M2 read "-2"
        assert pointers.realistic_decode(seq("22")) == (1, 2)
        assert pointers.realistic_decode(seq("2-2")) == (1, -2)
        assert pointers.realistic_decode(seq("-2-2")) == (-1, -2)
        # -4 starts -M3 = -4-3 and -M4 = -4
        assert pointers.realistic_decode(seq("-4-3-4-223")) == (-3, -4, -1, 2)
        assert pointers.realistic_decode(seq("-4-4-3-223")) == (-4, -3, -1, 2)

    def test_decode_kappa_5000(self):
        # one segment per step of an explicit stack, so no recursion limit applies
        u = sampling.random_realistic_string(random.Random(5000), 5000)
        back = pointers.realistic_decode(u)
        assert back is not None
        assert pointers.encode_arrangement(back) == u


class TestOverlapCalculus:
    def test_overlap_sets_star_string(self):
        u = seq("24535423")
        assert oracles.overlap_set(u, 3) == {2, 4, 5}
        assert oracles.overlap_set(u, 2) == {3}
        assert oracles.overlap_set((2, 2), 2) == frozenset()

    def test_positional_overlap_examples(self):
        u = seq("32-43-24")
        assert oracles.positional_overlap(u, 2, 5) == {2, 3, 4}
        assert oracles.positional_overlap(u, 1, 2) == {2}
        for i in range(len(u) + 1):
            assert oracles.positional_overlap(u, i, i) == frozenset()

    def test_gap_sum_identity(self):
        # xor of two windows sharing an endpoint equals the combined window
        rng = random.Random(8)
        for _ in range(100):
            u = sampling.random_legal_string(rng, gaps=False)
            n = len(u)
            i, j, k = (rng.randint(0, n) for _ in range(3))
            lhs = oracles.positional_overlap(u, i, j) ^ oracles.positional_overlap(u, j, k)
            assert lhs == oracles.positional_overlap(u, i, k)

    def test_prefix_suffix_identity(self):
        rng = random.Random(9)
        for _ in range(100):
            u = sampling.random_legal_string(rng, gaps=False)
            n = len(u)
            for i in range(n + 1):
                assert oracles.positional_overlap(u, i, n) == oracles.positional_overlap(u, 0, i)

    def test_empty_window_iff_legal_substring(self):
        rng = random.Random(10)
        for _ in range(100):
            u = sampling.random_legal_string(rng, gaps=False)
            n = len(u)
            for _ in range(10):
                i = rng.randint(0, n)
                j = rng.randint(i, n)
                empty = oracles.positional_overlap(u, i, j) == frozenset()
                assert empty == pointers.is_legal(u[i:j])

    def test_overlap_symmetry(self):
        rng = random.Random(12)
        for _ in range(100):
            u = sampling.random_legal_string(rng, gaps=False)
            dom = sorted(pointers.domain(u))
            for p in dom:
                for q in dom:
                    if p != q:
                        assert (q in oracles.overlap_set(u, p)) == (
                            p in oracles.overlap_set(u, q)
                        )
