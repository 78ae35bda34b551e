"""DOT text for the package's four graphs, byte-stable.

One writer, ``_dot``, emits every graph; each drawing only lists its nodes
and edges, in a fixed order.  Reduction graphs use vertex ids I<i> / Ip<i>
with the pointer magnitude as label, reality edges bold (penwidth=2) and
desire edges dashed; overlap, compressed and direct graphs use plain edges.
No graph module is loaded here: a drawing that needs an id helper takes it
from its graph's own module, loaded by then.
"""

from __future__ import annotations


def _dot(name: str, nodes, edges) -> str:
    """``graph name``: a line per (id, label) node, then per (a, b, attributes) edge."""
    lines = [f"graph {name} {{"]
    lines += [f'  {v} [label="{label}"];' for v, label in nodes]
    lines += [f"  {a} -- {b} [{attributes}];" if attributes else f"  {a} -- {b};"
              for a, b, attributes in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def overlap_dot(g: OverlapGraph) -> str:
    nodes = ((f"v{p}", f"{p}{g.sign(p)}") for p in g.vertex_order)
    edges = ((f"v{p}", f"v{q}", "") for p, above in g.neighbors_above() for q in above)
    return _dot("overlap", nodes, edges)


def reduction_dot(rg: ReductionGraph) -> str:
    """Vertices in (i, side) order, the reality edges, then the desire edges in sorted order."""
    from .reduction import vertex_name

    def drawn(edges, attributes):
        return [(vertex_name(a), vertex_name(b), attributes) for a, b in map(sorted, edges)]

    nodes = ((vertex_name(v), rg.label(v)) for v in rg.vertices)
    return _dot("reduction", nodes, drawn(rg.reality_edges, "penwidth=2")
                + drawn(sorted(rg.desire_edges, key=sorted), "style=dashed"))


def cps_dot(g: LabelledGraph) -> str:
    """Nodes n0, n1, ... in ``str`` order of the vertex ids; edges sorted by their id pairs."""
    order = sorted(g.labels, key=str)
    node = {v: f"n{k}" for k, v in enumerate(order)}
    pairs = sorted(tuple(sorted(e, key=str)) for e in g.edges)
    return _dot("cps", ((node[v], g.labels[v]) for v in order),
                ((node[a], node[b], "") for a, b in pairs))


def direct_dot(g: LabelledGraph) -> str:
    """The J/Jp vertex ids in index order, and the edges sorted by index."""
    from .direct import sorted_ids

    order, pairs = sorted_ids(g)
    return _dot("direct", zip(order, g.index_labels), ((a, b, "") for a, b in pairs))
