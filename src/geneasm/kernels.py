"""Exact realism decision by pruned depth-first search over arrangements.

A signed graph on {2..kappa} is realistic when some arrangement of the
segments 1..kappa, each possibly inverted, encodes to a string with that
overlap graph.  Segment m contributes the pointers m and m + 1 (segment 1
only 2, segment kappa only kappa), so pointer p occurs in segments p - 1
and p, and an inverted segment reverses and bars its pointers.

Witness contract: the arrangement returned is the first one in the order
of a full scan -- permutations of 1..kappa in lexicographic order, then
inversion masks as ascending integers, bit t inverting the segment in
slot t.  The search reaches it without visiting the rest:

* Signs fix the inversions.  p is positive exactly when one of its two
  segments is inverted, so the inversions of all segments follow from
  that of segment 1.  Each permutation has two candidate masks, and a
  search node carries the candidates (at most two) still consistent with
  the graph, so no flip choice can hide a smaller permutation.
* Segment 1 is fixed in slot 0.  Rotating an arrangement rotates its
  string, which keeps every overlap and every sign, so whenever some
  permutation has a witness, the first permutation with one starts
  with 1.
* Pruning.  Permutation prefixes are extended in lexicographic order.
  When the second occurrence of p is placed, the magnitudes occurring
  once between its two occurrences are the XOR of the prefix masks
  (the trick ``overlap.overlap_graph`` uses) and must equal p's
  neighbour mask.

The first permutation that completes is therefore the scan's first
permutation with a witness, and its smaller surviving mask the scan's
mask.  ``tests/oracles.py`` keeps the full scan as the reference.
"""

from __future__ import annotations


def backend_name() -> str:
    # perfbench's run stamp records this; there is one backend.
    return "python"


def scan_for_arrangement(adjacency_masks, positive_mask, kappa):
    """The first witness arrangement in scan order, as a signed tuple, or None.

    adjacency_masks[p] is the bitmask of p's neighbours for each p in
    2..kappa (a dict, or a sequence indexed by magnitude such as
    ``OverlapGraph.neighbor_masks``); positive_mask has bit p set for
    every positive p.
    """
    adjacency = [0] * (kappa + 2)
    for p in range(2, kappa + 1):
        adjacency[p] = adjacency_masks[p]
    # inverted[c][m]: is segment m inverted in candidate c (c = inversion of segment 1)
    inverted = [[0, 0]]
    for m in range(2, kappa + 1):
        inverted[0].append(inverted[0][-1] ^ ((positive_mask >> m) & 1))
    inverted.append([f ^ 1 for f in inverted[0]])

    def segment_pointers(m):
        if m == 1:
            return (2,)
        if m == kappa:
            return (kappa,)
        return (m, m + 1)

    # blocks[c][m]: (p, bit of p, bit of p's other segment) in string order
    blocks = ([()], [()])
    for m in range(1, kappa + 1):
        for c in (0, 1):
            order = segment_pointers(m)[::-1] if inverted[c][m] else segment_pointers(m)
            blocks[c].append(tuple((p, 1 << p, 1 << (p - 1 if p == m else p)) for p in order))
    block_mask = [0] + [sum(1 << p for p in segment_pointers(m)) for m in range(1, kappa + 1)]
    # opened[c][p]: prefix mask just after the first occurrence of p in candidate c;
    # a branch writes it before reading it, so backtracking needs no undo
    opened = ([0] * (kappa + 2), [0] * (kappa + 2))
    perm = [1]

    def place(c, m, seen, placed):
        """Append segment m under candidate c; False if a pointer it closes fails."""
        first = opened[c]
        for p, bit, other in blocks[c][m]:
            if placed & other:
                if seen ^ first[p] != adjacency[p]:
                    return False
            else:
                first[p] = seen ^ bit
            seen ^= bit
        return True

    def search(seen, placed, alive):
        """Inversion mask of the first completion of perm, or None."""
        if len(perm) == kappa:
            return min(sum(inverted[c][k] << t for t, k in enumerate(perm)) for c in alive)
        for m in range(2, kappa + 1):
            if placed & (1 << m):
                continue
            survivors = [c for c in alive if place(c, m, seen, placed)]
            if survivors:
                perm.append(m)
                inv = search(seen ^ block_mask[m], placed | (1 << m), survivors)
                if inv is not None:
                    return inv
                perm.pop()
        return None

    inv = search(block_mask[1], 1 << 1, [c for c in (0, 1) if place(c, 1, 0, 0)])
    if inv is None:
        return None
    return tuple(-k if (inv >> t) & 1 else k for t, k in enumerate(perm))
