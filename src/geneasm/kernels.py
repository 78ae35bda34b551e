"""Exact realism decision by reconstructing the witness arrangement.

A signed graph on {2..kappa} is realistic when some arrangement of the
segments 1..kappa, each possibly inverted, encodes to a string with that
overlap graph.  Segment m contributes the pointers m and m + 1 (segment 1
only 2, segment kappa only kappa), so pointer p occurs in segments p - 1
and p, and an inverted segment reverses and bars its pointers.

Witness contract: the arrangement returned is the first one in the order
of a full scan -- permutations of 1..kappa in lexicographic order, then
inversion masks as ascending integers, bit t inverting the segment in
slot t.  ``tests/oracles.py`` keeps that scan, and the pruned search this
module used to run, as references.

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
    inverted = [0, 0]  # inverted[m] for segment m, segment 1 not inverted
    for m in range(2, kappa + 1):
        inverted.append(inverted[-1] ^ ((positive_mask >> m) & 1))
    segments = (1 << (kappa + 1)) - 1
    slot = [0] * (kappa + 1)
    between = [0] * (kappa + 1)  # between[p]: T_p
    for p in range(2, kappa + 1):
        low = 1 << (p - 1) if p > 2 else 0
        high = 1 << (p + 1) if p < kappa else 0
        d = adjacency_masks[p] ^ (low if inverted[p - 1] else 0) ^ (high if inverted[p] else 0)
        forward = not (d & ((1 << p) - 1)).bit_count() & 1
        if not forward:
            d ^= low | high
        s = 1
        while s < kappa:
            d ^= d << s
            s <<= 1
        between[p] = d = d & segments
        width = d.bit_count() + 1
        slot[p] = slot[p - 1] + width if forward else slot[p - 1] - width
    order = [0] * kappa  # order[t]: the segment in slot t
    for m, t in enumerate(slot[1:], 1):
        if not 0 <= t < kappa or order[t]:
            return None
        order[t] = m
    prefix = [0]  # prefix[t]: the segments in slots < t
    for m in order:
        prefix.append(prefix[-1] | 1 << m)
    for p in range(2, kappa + 1):
        a, b = sorted((slot[p - 1], slot[p]))
        if prefix[b] ^ prefix[a + 1] != between[p]:
            return None
    witness = tuple(-m if inverted[m] else m for m in order)
    twin = (-witness[0],) + tuple(-k for k in reversed(witness[1:]))
    return min(witness, twin, key=lambda w: ([abs(k) for k in w],
                                             sum(1 << t for t, k in enumerate(w) if k < 0)))
