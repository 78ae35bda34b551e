"""Deterministic DOT emitters for the package's graph types.

Reduction graphs use vertex ids I<i> / Ip<i> with the pointer magnitude
as node label; reality edges are drawn bold (penwidth=2) and desire
edges dashed.  Labelled graphs (compressed and directly constructed
reduction graphs, overlap graphs) use plain edges.  Emission order is
fully sorted so output is byte-stable.
"""

from __future__ import annotations

from .compress import LabelledGraph
from .overlap import OverlapGraph
from .reduction import ReductionGraph, vertex_name


def overlap_dot(g: OverlapGraph) -> str:
    lines = ["graph overlap {"]
    for p in g.vertex_order:
        lines.append(f'  v{p} [label="{p}{g.sign(p)}"];')
    for p, above in g.neighbors_above():
        lines += [f"  v{p} -- v{q};" for q in above]
    lines.append("}")
    return "\n".join(lines) + "\n"


def reduction_dot(rg: ReductionGraph) -> str:
    lines = ["graph reduction {"]
    for v in sorted(rg.vertices):
        lines.append(f'  {vertex_name(v)} [label="{rg.label(v)}"];')
    for e in rg.reality_edges:
        a, b = sorted(e)
        lines.append(f"  {vertex_name(a)} -- {vertex_name(b)} [penwidth=2];")
    for e in sorted(rg.desire_edges, key=sorted):
        a, b = sorted(e)
        lines.append(f"  {vertex_name(a)} -- {vertex_name(b)} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def labelled_dot(g: LabelledGraph, graph_name: str = "labelled") -> str:
    """Plain-edge DOT; vertex ids are assigned in sorted vertex order."""
    order = sorted(g.labels, key=str)
    node = {v: f"n{idx}" for idx, v in enumerate(order)}
    lines = [f"graph {graph_name} {{"]
    for v in order:
        lines.append(f'  {node[v]} [label="{g.labels[v]}"];')
    pairs = sorted(tuple(sorted(e, key=str)) for e in g.edges)
    for a, b in pairs:
        lines.append(f"  {node[a]} -- {node[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def direct_dot(g: LabelledGraph) -> str:
    """DOT for directly constructed reduction graphs, keeping J/Jp vertex ids."""
    from .direct import sorted_ids

    order, pairs = sorted_ids(g)
    lines = ["graph direct {"]
    for v in order:
        lines.append(f'  {v} [label="{g.labels[v]}"];')
    for a, b in pairs:
        lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
