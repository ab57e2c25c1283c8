"""Topological order of a :class:`~repro.graphs.digraph.Digraph`.

Kahn's algorithm is iterative (no recursion), so it scales to the
large graphs produced by the synthetic generator without hitting
Python's recursion limit.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable

from .digraph import Digraph, GraphError

__all__ = ["topological_sort", "is_acyclic"]


def topological_sort(graph: Digraph) -> list[Hashable]:
    """Kahn's algorithm.  Raises :class:`GraphError` if the graph is cyclic."""
    indeg = {node: graph.in_degree(node) for node in graph.nodes}
    ready = deque(node for node, d in indeg.items() if d == 0)
    order: list[Hashable] = []
    while ready:
        node = ready.popleft()
        order.append(node)
        for edge in graph.out_edges(node):
            indeg[edge.dst] -= 1
            if indeg[edge.dst] == 0:
                ready.append(edge.dst)
    if len(order) != graph.number_of_nodes():
        raise GraphError("graph has at least one cycle; no topological order")
    return order


def is_acyclic(graph: Digraph) -> bool:
    """True if the graph contains no directed cycle (self-loops count)."""
    try:
        topological_sort(graph)
    except GraphError:
        return False
    return True

