"""Pointer strings and micronuclear arrangements.

A pointer is a signed integer with |p| >= 2: the magnitude names the
pointer, a negative sign marks the barred variant.  Pointer strings are
plain tuples of such integers, so they hash, compare and slice naturally.
A string is *legal* when every magnitude that occurs in it occurs exactly
twice (barred and unbarred occurrences counted together).

A micronuclear arrangement is a signed permutation of the segment indices
1..kappa, again as a tuple of signed integers (-k encodes an inverted
segment).  The segment-to-pointer encoding maps segment 1 to the single
pointer 2, segment kappa to the single pointer kappa, and every interior
segment k to the pointer pair (k, k+1); inverted segments map to the
inverse of their block.
"""

from __future__ import annotations

from .errors import LegalityError, ParseError

PointerString = tuple[int, ...]
Arrangement = tuple[int, ...]


def magnitude(p: int) -> int:
    """Unbarred variant of pointer p."""
    return -p if p < 0 else p


# ---------------------------------------------------------------------------
# text formats

def _parse_token(tok: str) -> int:
    neg = tok.startswith("-")
    body = tok[1:] if neg else tok
    if not (body.isascii() and body.isdigit()):  # isdigit alone takes '٣' and '²'
        raise ParseError(f"malformed pointer token {tok!r}")
    value = int(body)
    if value < 2:
        raise ParseError(f"pointer magnitude must be >= 2, got {tok!r}")
    return -value if neg else value


def _parse_compact(text: str) -> PointerString | None:
    """One pointer per ASCII digit 2-9, each may be barred by a '-' before it; else None."""
    out = []
    neg = False
    for ch in text:
        if ch == "-":
            if neg:
                return None
            neg = True
        elif "2" <= ch <= "9":
            out.append(-int(ch) if neg else int(ch))
            neg = False
        else:
            return None
    return None if neg else tuple(out)


def parse_pointer_string(text: str) -> PointerString:
    """Parse a pointer string in spaced or compact format.

    Spaced format is whitespace-separated tokens such as ``"3 2 -4 3 -2 4"``;
    compact format packs one digit per pointer, ``"32-43-24"``.  Input
    containing whitespace is parsed as spaced and a single run of
    characters as compact, falling back to a lone spaced token (for a
    multi-digit magnitude such as ``"11"``), whose error is the one
    raised.  Legality is not checked here so that arbitrary pointer
    sequences can be inspected.
    """
    tokens = text.split()
    if not tokens:
        return ()
    if len(tokens) == 1:
        compact = _parse_compact(tokens[0])
        if compact is not None:
            return compact
    return tuple(_parse_token(tok) for tok in tokens)


def format_pointer_string(seq, fmt: str = "spaced") -> str:
    """Render a pointer sequence; compact requires all magnitudes <= 9."""
    if fmt == "spaced":
        return " ".join(str(p) for p in seq)
    if fmt == "compact":
        if any(magnitude(p) > 9 for p in seq):
            raise ValueError("compact format only supports magnitudes <= 9")
        return "".join(("-" + str(-p)) if p < 0 else str(p) for p in seq)
    raise ValueError(f"unknown format {fmt!r}")


def parse_arrangement(text: str) -> Arrangement:
    """Parse a micronuclear arrangement such as ``"M7 M1 -M2"``."""
    entries = []
    for tok in text.split():
        body = tok
        neg = body.startswith("-")
        if neg:
            body = body[1:]
        if not body.startswith("M") or not (body.isascii() and body[1:].isdigit()):
            raise ParseError(f"malformed arrangement token {tok!r}")
        k = int(body[1:])
        if k < 1:
            raise ParseError(f"segment index must be >= 1, got {tok!r}")
        entries.append(-k if neg else k)
    arr = tuple(entries)
    _check_arrangement(arr)
    return arr


def format_arrangement(arr) -> str:
    return " ".join(("-M" + str(-k)) if k < 0 else ("M" + str(k)) for k in arr)


def _check_arrangement(arr: Arrangement) -> None:
    kappa = len(arr)
    if kappa < 2:
        raise ParseError("an arrangement needs at least two segments")
    if sorted(magnitude(k) for k in arr) != list(range(1, kappa + 1)):
        raise ParseError("arrangement must contain each segment index exactly once")


# ---------------------------------------------------------------------------
# string operations

def is_legal(seq) -> bool:
    """True iff every magnitude present occurs exactly twice (see ``occurrence_index``)."""
    return _occurrences(seq) is not None


def complement(seq) -> PointerString:
    return tuple(-p for p in seq)


def reversal(seq) -> PointerString:
    return tuple(reversed(seq))


def inverse(seq) -> PointerString:
    """Complement of the reversal."""
    return tuple(-p for p in reversed(seq))


def conjugates(seq) -> list[PointerString]:
    """All distinct rotations w2 w1 of seq = w1 w2, the string itself first."""
    seq = tuple(seq)
    if not seq:
        return [()]
    seen = set()
    out = []
    for r in range(len(seq)):
        rot = seq[r:] + seq[:r]
        if rot not in seen:
            seen.add(rot)
            out.append(rot)
    return out


def domain(seq) -> frozenset[int]:
    return frozenset(magnitude(p) for p in seq)


def positive_set(seq) -> frozenset[int]:
    """Magnitudes occurring once barred and once unbarred."""
    return frozenset(p for p, (i, j) in occurrence_index(seq).items() if seq[i - 1] != seq[j - 1])


def occurrence_index(seq) -> dict[int, tuple[int, int]]:
    """1-based positions of the two occurrences of each magnitude, in one pass.

    This is the legality check: it raises ``LegalityError`` unless every
    magnitude occurs exactly twice.
    """
    at = _occurrences(seq)
    if at is None:
        raise LegalityError(f"not a legal string: {format_pointer_string(seq)!r}")
    return at


def _occurrences(seq) -> dict[int, tuple[int, int]] | None:
    """The occurrence index, or None when seq is not legal.

    The index holds each magnitude that occurs at least twice, so n is
    twice its size exactly when no magnitude occurs once or more than twice.
    """
    first: dict[int, int] = {}
    at = {}
    n = 0
    for n, x in enumerate(seq, 1):
        p = -x if x < 0 else x
        if p in first:
            at[p] = (first[p], n)
        else:
            first[p] = n
    return at if 2 * len(at) == n else None


# ---------------------------------------------------------------------------
# encoding between arrangements and realistic strings

def _segment_block(k: int, kappa: int) -> PointerString:
    inverted = k < 0
    k = magnitude(k)
    if k == 1:
        block: PointerString = (2,)
    elif k == kappa:
        block = (kappa,)
    else:
        block = (k, k + 1)
    return inverse(block) if inverted else block


def encode_arrangement(arr) -> PointerString:
    """Pointer string of a micronuclear arrangement (realistic by construction)."""
    arr = tuple(arr)
    _check_arrangement(arr)
    kappa = len(arr)
    out: list[int] = []
    for k in arr:
        out.extend(_segment_block(k, kappa))
    return tuple(out)


def realistic_decode(seq) -> Arrangement | None:
    """Some arrangement encoding to seq, or None when seq is not realistic.

    Backtracking segmentation over the blocks 2 | kappa | k(k+1) and their
    inverses; among several witnesses the first by segment index with
    unbarred tried before barred is returned.  Blocks are indexed by their
    first pointer.  Only 2 (M1, then M2) and -kappa (-M(kappa-1), then
    -Mkappa) start two, and each occurs at most twice, so the walk, on an
    explicit stack, returns to a choice a bounded number of times: O(kappa).
    """
    seq = tuple(seq)
    at = _occurrences(seq)  # the one pass over seq; its keys are the domain
    if at is None:
        return None
    kappa = len(at) + 1
    if kappa < 2 or at.keys() != set(range(2, kappa + 1)):
        return None

    # first pointer -> (k, block of Mk) in the order they are tried
    starts: dict[int, list[tuple[int, PointerString]]] = {}
    for k in range(1, kappa + 1):
        for block_k in (k, -k):
            block = _segment_block(block_k, kappa)
            starts.setdefault(block[0], []).append((block_k, block))

    used = [False] * (kappa + 1)
    stack: list[tuple[int, int, int]] = []  # (position, choice at it, block k) per segment
    i = choice = 0
    while i < len(seq):
        options = starts.get(seq[i], ())
        while choice < len(options):
            k, block = options[choice]
            if not used[magnitude(k)] and seq[i : i + len(block)] == block:
                break
            choice += 1
        if choice < len(options):
            used[magnitude(k)] = True
            stack.append((i, choice, k))
            i, choice = i + len(block), 0
        elif stack:
            i, choice, k = stack.pop()
            used[magnitude(k)] = False
            choice += 1
        else:
            return None
    return tuple(k for _, _, k in stack)


def is_realistic(seq) -> bool:
    return realistic_decode(seq) is not None

