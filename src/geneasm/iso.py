"""Canonical forms and isomorphism checks for the graphs this package produces.

Every graph in play has maximum degree two (labelled graphs from the
compression and the direct construction) or is a disjoint union of even
cycles alternating between two edge colours (reduction graphs).  In both
classes isomorphism reduces to normalizing each component's label
sequence under rotation and reflection, so a canonical form is a sorted
multiset of per-component codes rendered as a stable ASCII string.

One coder writes every code, from each component's labels in walk order
and whether it is closed: a path's code is the smaller of its two
readings, a cycle's the least rotation of either reading, so no code
depends on where its walk started.  ``canonical_labelled`` feeds it
``LabelledGraph.walks``; ``canonical_2edge`` codes a reduction graph
as its compression, from ``ReductionGraph.cycle_entries``.  Other
2-edge-coloured graphs are left to the tests' generic oracle.  The least
rotation is a linear two-candidate scan over the occurrences of the
least label, so a code costs O(L) for a component of L vertices, also
when every label is the same.
"""

from __future__ import annotations


def _least_rotation(seq: tuple) -> tuple:
    """Least of the rotations of seq.

    A least rotation starts with the least label, so only its occurrences
    are candidates: the scan keeps two, i < j, found with ``index`` on the
    doubled sequence, and the length k of their common prefix.  Every
    start below j other than i is already ruled out.  At the first
    mismatch the larger side's start s loses, and so do s+1..s+k: each
    rotation there is beaten by the one the same distance past the other
    start.  So the loser jumps to the next occurrence at or past
    max(s + k + 1, other + 1), and the survivor and the new start are the
    next pair.  A mismatch after k equal labels raises i + j by at least
    k + 1, and each ``index`` call scans only past the larger start, so the
    scan is linear in n, also when every label is the same.  It ends when
    j reaches n, leaving i as the least, or when k reaches n, where both
    starts give the same (least) rotation.
    """
    n = len(seq)
    doubled = seq + seq
    least = min(seq)
    find = doubled.index
    i = find(least)
    j = find(least, i + 1)  # at most i + n, the copy of i
    k = 1  # both starts hold the least label
    while j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        # the loser's next start lies past the other start and its own k followers;
        # from below n the search stops at the copy of i at i + n, if not before
        if a > b:
            i, start = j, max(i + k + 1, j + 1)
        else:
            start = j + k + 1
        j = find(least, start) if start < n else n
        k = 1
    return seq[i:] + seq[:i]


def _code(components) -> str:
    """The sorted, ``|``-joined codes of (labels in walk order, closed) pairs."""
    codes = []
    for seq, closed in components:
        if closed:
            codes.append(("c", min(_least_rotation(seq), _least_rotation(seq[::-1]))))
        else:
            codes.append(("p" if len(seq) > 1 else "v", min(seq, seq[::-1])))
    codes.sort()
    return "|".join([kind + "[" + ",".join(map(str, seq)) + "]" for kind, seq in codes])


def canonical_labelled(g) -> str:
    """Canonical code of a ``LabelledGraph``; equal codes iff isomorphic.

    Reads only vertex indices: the components from ``g.walks`` (paths
    and isolated vertices from an end, then cycles), their labels from
    ``g.index_labels``.  The vertex ids are never named.
    """
    label = g.index_labels.__getitem__
    second = g.second
    return _code([(tuple(map(label, walk)), second[walk[0]] >= 0) for walk in g.walks])


def canonical_2edge(rg) -> str:
    """Canonical code of a ``ReductionGraph``: that of ``cps(rg)``, read from ``rg.cycle_entries``.

    Compression loses nothing up to isomorphism.  A cycle walked desire
    edge first holds its desire edges in turn, each joined to the next by
    a reality edge, and both ends of a desire edge carry its magnitude.
    So up to colour-preserving isomorphism the cycle is fixed by its desire
    labels ``magnitudes[k >> 1]``, k in its entry indices, in cyclic order
    and up to reflection, and so is its compression: a cycle of those
    labels with three or more desire edges, an edge with two (the repeated
    partner kept once), a vertex with one (the self-loop dropped).  So R_u
    and R_v are isomorphic exactly when cps(R_u) and cps(R_v) are, and
    this reads the compression's code from the graph's one kept cycle
    walk, without building the compression.
    """
    magnitudes = rg.magnitudes
    return _code([(tuple([magnitudes[k >> 1] for k in entries]), len(entries) > 2)
                  for entries in rg.cycle_entries])
