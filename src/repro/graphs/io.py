"""Graphviz DOT export of a :class:`~repro.graphs.digraph.Digraph`.

For visual inspection of marked graphs, with the paper's conventions:
dashed backedges, token counts as edge labels, boxes for relay
stations.
"""

from __future__ import annotations

import json
from typing import Callable

from .digraph import Digraph, Edge

__all__ = ["to_dot"]


def to_dot(
    graph: Digraph,
    name: str = "lis",
    edge_label: Callable[[Edge], str] | None = None,
    node_shape: Callable[[object], str] | None = None,
) -> str:
    """Graphviz DOT rendering.

    Edges whose ``data['kind'] == 'back'`` are drawn dashed, following
    the paper's figures.  ``edge_label`` defaults to showing the
    ``tokens`` attribute when present.
    """

    def default_label(edge: Edge) -> str:
        tokens = edge.data.get("tokens")
        return "" if tokens is None else str(tokens)

    label_fn = edge_label or default_label
    out = [f"digraph {json.dumps(name)} {{"]
    for node in graph.nodes:
        shape = node_shape(node) if node_shape else "ellipse"
        out.append(f"  {json.dumps(str(node))} [shape={shape}];")
    for edge in sorted(graph.edges, key=lambda e: e.key):
        attrs = []
        label = label_fn(edge)
        if label:
            attrs.append(f"label={json.dumps(label)}")
        if edge.data.get("kind") == "back":
            attrs.append("style=dashed")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        out.append(
            f"  {json.dumps(str(edge.src))} -> "
            f"{json.dumps(str(edge.dst))}{suffix};"
        )
    out.append("}")
    return "\n".join(out) + "\n"
