"""Canonical forms and isomorphism checks for the graphs this package produces.

Every graph in play has maximum degree two (labelled graphs from the
compression and the direct construction) or is a disjoint union of even
cycles alternating between two edge colours (reduction graphs).  In both
classes isomorphism reduces to normalizing each component's label
sequence under rotation and reflection, so a canonical form is a sorted
multiset of per-component codes rendered as a stable ASCII string.

Both codes come from one index walk per component and one least
rotation, read from the graphs' arrays.  ``canonical_labelled`` takes
``LabelledGraph.walks()``, the walk kept on the graph, and its label
tuple: paths and isolated vertices from an end, then cycles from any
vertex.  ``canonical_2edge`` takes
``ReductionGraph.cycles()``: each alternating cycle desire edge first.
Other 2-edge-coloured graphs are left to the tests' generic oracle.  A
path's code is the smaller of its two readings, a cycle's the least
rotation of either reading, so no code depends on where its walk
started.  The least rotation comes from a linear two-candidate scan
anchored at the least label: only its occurrences can start the least
rotation, so the candidates are found with ``tuple.index`` and compared
block by block.  A code costs O(L) for a component of L vertices, also
when every label is the same; with few repeats of the least label the
scan is a handful of steps.
"""

from __future__ import annotations


def _least_rotation(seq: tuple, step: int) -> tuple:
    """Least of the rotations of seq by a multiple of step, 1 or 2 (len(seq) a multiple of it).

    Works on the sequence of n step-long blocks.  A least rotation starts
    with the least block, so only its occurrences are candidates: the scan
    keeps two, i < j, found with ``index`` on the doubled blocks, and the
    length k of their common prefix.  Every start below j other than i is
    already ruled out.  At the first mismatch the larger side's start s
    loses, and so do s+1..s+k: each rotation there is beaten by the one the
    same distance past the other start.  So the loser jumps to the next
    occurrence at or past max(s + k + 1, other + 1), and the survivor and
    the new start are the next pair.  A mismatch after k equal blocks
    raises i + j by at least k + 1, and each ``index`` call scans only past
    the larger start, so the scan is linear in n, also when every block is
    the same.  It ends when j reaches n, leaving i as the least, or when k
    reaches n, where both starts give the same (least) rotation.
    """
    blocks = seq if step == 1 else tuple(zip(seq[::2], seq[1::2]))
    n = len(blocks)
    doubled = blocks + blocks
    least = min(blocks)
    find = doubled.index
    i = find(least)
    j = find(least, i + 1)  # at most i + n, the copy of i
    k = 1  # both starts hold the least block
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
    r = i * step
    return seq[r:] + seq[:r]


def _code(kind: str, labels: tuple) -> str:
    return kind + "[" + ",".join(map(str, labels)) + "]"


def canonical_labelled(g) -> str:
    """Canonical code of a ``LabelledGraph``; equal codes iff isomorphic.

    Reads only vertex indices: the components from ``g.walks()`` (paths
    and isolated vertices from an end, then cycles), their labels from
    ``g.index_labels``.  The vertex ids are never named.
    """
    label = g.index_labels.__getitem__
    second = g.second
    codes = []
    for walk in g.walks():
        seq = tuple(map(label, walk))
        if second[walk[0]] >= 0:
            codes.append(("c", min(_least_rotation(seq, 1), _least_rotation(seq[::-1], 1))))
        else:
            codes.append(("p" if len(walk) > 1 else "v", min(seq, seq[::-1])))
    return "|".join(_code(kind, seq) for kind, seq in sorted(codes))


def canonical_2edge(rg) -> str:
    """Canonical code of a ``ReductionGraph``, read from ``rg.cycles()``.

    Each cycle is walked desire edge first; its code is the minimum over
    all desire-first readings, so codes match exactly for
    colour-preserving isomorphisms.
    """
    magnitudes = rg.magnitudes
    codes = []
    for cycle in rg.cycles():
        labels = tuple(magnitudes[k >> 1] for k in cycle)
        # desire edges sit at index pairs (0,1), (2,3), ...; rotations by even
        # offsets and plain reversal preserve that phase, odd offsets do not
        codes.append(min(_least_rotation(labels, 2), _least_rotation(labels[::-1], 2)))
    return "|".join(_code("C", labels) for labels in sorted(codes))
