"""Biconnected components (Hopcroft--Tarjan).

They are computed on the *underlying undirected multigraph* of a
:class:`~repro.graphs.digraph.Digraph`.  They drive the topology
classification of the paper's Section IV: a strongly connected LIS has
*no reconvergent paths* exactly when every biconnected component of its
underlying undirected graph is either a single edge (a bridge) or a
single directed cycle, in which case any node shared by two cycles is
an articulation point and fixed queue sizing preserves the ideal MST.

Parallel edges matter: two parallel channels between the same pair of
cores *are* a pair of reconvergent paths (they form an undirected
cycle), so the traversal is edge-indexed -- only the specific edge used
to enter a node is skipped, not every edge to the parent.
"""

from __future__ import annotations

from typing import Hashable

from .digraph import Digraph, Edge

__all__ = ["undirected_adjacency", "biconnected_components"]


def undirected_adjacency(graph: Digraph) -> dict[Hashable, list[Edge]]:
    """Adjacency of the underlying undirected multigraph.

    Each directed edge appears in the adjacency list of both endpoints
    (once for a self-loop).
    """
    adj: dict[Hashable, list[Edge]] = {node: [] for node in graph.nodes}
    for edge in graph.edges:
        adj[edge.src].append(edge)
        if edge.dst != edge.src:
            adj[edge.dst].append(edge)
    return adj


def _other_endpoint(edge: Edge, node: Hashable) -> Hashable:
    return edge.dst if edge.src == node else edge.src


def biconnected_components(graph: Digraph) -> list[list[Edge]]:
    """Biconnected components of the underlying undirected multigraph.

    Returns a list of components, each a list of :class:`Edge` objects.
    Self-loops form their own singleton components.  Isolated nodes do
    not appear (components are edge sets).
    """
    adj = undirected_adjacency(graph)
    visited: set[Hashable] = set()
    depth: dict[Hashable, int] = {}
    low: dict[Hashable, int] = {}
    components: list[list[Edge]] = []
    edge_stack: list[Edge] = []

    for root in graph.nodes:
        if root in visited:
            continue
        visited.add(root)
        depth[root] = low[root] = 0
        # Frame: (node, incoming edge key or None, iterator over incident edges)
        work: list[tuple[Hashable, int | None, object]] = [
            (root, None, iter(adj[root]))
        ]
        while work:
            node, in_key, edges = work[-1]
            advanced = False
            for edge in edges:  # type: ignore[union-attr]
                if edge.key == in_key:
                    continue  # do not traverse the entry edge backwards
                if edge.src == edge.dst:
                    # Self-loops are their own biconnected component.
                    if edge.src == node:
                        components.append([edge])
                    continue
                other = _other_endpoint(edge, node)
                if other not in visited:
                    edge_stack.append(edge)
                    visited.add(other)
                    depth[other] = low[other] = depth[node] + 1
                    work.append((other, edge.key, iter(adj[other])))
                    advanced = True
                    break
                if depth[other] < depth[node]:
                    # Back edge to an ancestor (or a parallel edge).
                    edge_stack.append(edge)
                    low[node] = min(low[node], depth[other])
            if advanced:
                continue
            work.pop()
            if work:
                parent, parent_in_key, _ = work[-1]
                low[parent] = min(low[parent], low[node])
                if low[node] >= depth[parent]:
                    # ``parent`` separates this subtree: pop everything
                    # stacked since -- and including -- the tree edge
                    # that entered ``node`` (edges of earlier sibling
                    # subtrees sit below it and must stay).
                    component: list[Edge] = []
                    while edge_stack:
                        top = edge_stack.pop()
                        component.append(top)
                        if top.key == in_key:
                            break
                    if component:
                        components.append(component)
    # Deduplicate self-loop components (a self-loop is visited once per
    # adjacency entry; we added it once, so nothing to do).
    return components

