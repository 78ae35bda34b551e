"""Exact realism decision by reconstructing the witness arrangement.

A signed graph on {2..kappa} is realistic when some arrangement of the
segments 1..kappa, each possibly inverted, encodes to a string with that
overlap graph.  Segment m contributes the pointers m and m + 1 (segment 1
only 2, segment kappa only kappa), so pointer p occurs in segments p - 1
and p, and an inverted segment reverses and bars its pointers.

Witness contract: the arrangement returned is the first one in the order
of a full scan -- permutations of 1..kappa in lexicographic order, then
inversion masks as ascending integers, bit t inverting the segment in
slot t.  ``tests/oracles.py`` keeps that scan, the pruned search this
module used to run, and this reconstruction as it first ran (a sort per
p, a key function for the twin), as references.

Proof that the reconstruction finds exactly the witnesses with segment 1
in slot 0, in O(kappa) big-int steps:

* Inversions.  p is positive exactly when one of its segments p - 1 and
  p is inverted.  With segment 1 not inverted, inv[m] = inv[m - 1] XOR
  [m is positive] fixes every inversion.
* T_p.  Between the two occurrences of p lie part of segment p - 1, the
  whole segments T_p in the slots strictly between p - 1 and p, and part
  of segment p.  Going forward (p - 1 before p), the parts are p - 1
  after p when segment p - 1 is inverted (p - 1 >= 2), and p + 1 before
  p when segment p is inverted (p + 1 <= kappa); going backward they are
  the complement of those two bits.  So D = N(p) XOR partial is the XOR
  of the blocks {m, m + 1} of the segments of T_p, and segment 1, in
  slot 0, is never in T_p.  Bit j of D is then [j - 1 in T_p] XOR
  [j in T_p], and T_p is the prefix XOR of D (``d ^= d << s`` for s = 1,
  2, 4, ...): one T_p per direction.
* Direction.  The true T_p leaves out p - 1, so D has an even number of
  bits below p, and p is not in N(p), so T_p leaves out p too.  The two
  directions differ by bit p - 1 (for p >= 3), which flips that parity:
  exactly one direction can hold.  At p = 2 it is forward, since segment
  1 is first.  So slot(p) = slot(p - 1) +/- (|T_p| + 1) is forced.
* Soundness.  If the slots form a permutation and, for every p, the
  segments in the slots strictly between p - 1 and p are T_p, then each
  p sees N(p) between its occurrences with the sign g gives it: the
  arrangement encodes to g, with no re-encode needed.
* The twin.  Reversing and inverting the whole string keeps every overlap
  and every sign, and so does rotating it (overlap is interleaving on a
  circle).  So the mirror (-a1, -a_kappa, ..., -a2) of the witness
  (a1, ..., a_kappa) found is the one witness with segment 1 first and
  inverted.  Every witness rotates to one of the two, so the first
  permutation with a witness starts with 1, and the scan's first witness
  is the smaller of the two by (unsigned permutation, inversion mask).

The steps, each a single pass with no sort, key function or generator:
the inversions as a running XOR, with each slot and each T_p appended as
it is found; the slots placed into ``order`` (a slot out of range fails
there); one pass over ``order`` that both finds a slot left empty (two
segments sharing a slot, so not a permutation) and builds the slot
prefixes; one compare-swap per p to test T_p against a prefix XOR; and the
choice of witness or twin by comparing the unsigned permutations, then the
inversion flags read from the last slot, which orders the inversion masks
as integers do.

Counting: the (kappa - 1)! * 2^kappa signed arrangements with segment 1
first each encode to a realistic graph, and each realistic graph has
exactly these two of them, so realistic graphs on {2..kappa} number
(kappa - 1)! * 2^(kappa - 1).
"""

from __future__ import annotations


def backend_name() -> str:
    # perfbench's run stamp records this; there is one backend.
    return "python"


def scan_for_arrangement(adjacency_masks, positive_mask, kappa):
    """The first witness arrangement in scan order, as a signed tuple, or None.

    adjacency_masks[p] is the bitmask of p's neighbours for each p in
    2..kappa (a dict, or a sequence indexed by magnitude such as the
    ``neighbor_masks`` of an ``OverlapGraph`` on {2..kappa}, where slot and
    magnitude agree); positive_mask has bit p set for every positive p.
    """
    segments = (1 << (kappa + 1)) - 1
    inverted = [0, 0]  # inverted[m] for segment m, segment 1 not inverted
    slot = [0, 0]  # slot[m]: the slot of segment m, segment 1 in slot 0
    between = [0, 0]  # between[p]: T_p
    inv = t = 0  # the inversion and the slot of the last segment placed
    for p in range(2, kappa + 1):
        low = 1 << (p - 1) if p > 2 else 0
        high = 1 << (p + 1) if p < kappa else 0
        d = adjacency_masks[p]
        if inv:
            d ^= low
        inv ^= positive_mask >> p & 1
        inverted.append(inv)
        if inv:
            d ^= high
        forward = not (d & ((1 << p) - 1)).bit_count() & 1
        if not forward:
            d ^= low | high
        s = 1
        while s < kappa:
            d ^= d << s
            s <<= 1
        d &= segments
        between.append(d)
        if forward:
            t += d.bit_count() + 1
        else:
            t -= d.bit_count() + 1
        slot.append(t)
    order = [0] * kappa  # order[t]: the segment in slot t
    for m in range(1, kappa + 1):
        t = slot[m]
        if t < 0 or t >= kappa:
            return None
        order[t] = m
    prefix = [0]  # prefix[t]: the segments in slots < t
    acc = 0
    for m in order:
        if not m:  # a slot left empty: two segments share a slot
            return None
        acc |= 1 << m
        prefix.append(acc)
    for p in range(2, kappa + 1):  # T_p: the segments strictly between slots a and b
        a = slot[p - 1]
        b = slot[p]
        if a > b:
            a, b = b, a
        if prefix[b] ^ prefix[a + 1] != between[p]:
            return None
    witness = [-m if inverted[m] else m for m in order]
    twin = [-k for k in witness[:0:-1]]  # the mirror: -a1, -a_kappa, ..., -a2
    twin.insert(0, -witness[0])
    rest, back = order[1:], order[:0:-1]  # both permutations start with segment 1
    if rest != back:
        first = rest < back
    else:  # kappa <= 2: equal permutations, so the inversion masks decide, high bit first
        first = [k < 0 for k in reversed(witness)] < [k < 0 for k in reversed(twin)]
    return tuple(witness) if first else tuple(twin)
