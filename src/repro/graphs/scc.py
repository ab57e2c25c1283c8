"""Strongly connected components and condensation.

The maximal-sustainable-throughput definition of the paper (Section
III-C) decomposes a marked graph into its strongly connected components
(SCCs): the MST of the whole system is the minimum MST over its SCC
subgraphs.  The condensation (the DAG of SCCs) is also the object on
which reconvergent paths between SCCs are detected and on which the
SCC-collapse simplification of Section VII-A operates.

Tarjan's algorithm is implemented iteratively.
"""

from __future__ import annotations

from typing import Hashable

from .digraph import Digraph

__all__ = [
    "tarjan",
    "strongly_connected_components",
    "condensation",
    "is_strongly_connected",
    "scc_of",
]


def tarjan(adjacency: list[list[int]]) -> list[list[int]]:
    """Tarjan's SCC algorithm (iterative) over the nodes ``0..n-1`` of
    ``adjacency``, where ``adjacency[u]`` lists the heads of ``u``'s
    arcs (parallel arcs may repeat a head).

    Roots are tried in index order and arcs in list order.  Returns
    the components as lists of node indices, in reverse topological
    order of the condensation (a Tarjan property: each component is
    emitted only after every component it can reach).
    """
    n = len(adjacency)
    index_of = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index_of[root] >= 0:
            continue
        # Each frame is (node, iterator over its arc heads).
        work = [(root, iter(adjacency[root]))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, succs = work[-1]
            for succ in succs:
                if index_of[succ] < 0:
                    index_of[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack[succ] = True
                    work.append((succ, iter(adjacency[succ])))
                    break
                if on_stack[succ] and index_of[succ] < lowlink[node]:
                    lowlink[node] = index_of[succ]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if lowlink[node] < lowlink[parent]:
                        lowlink[parent] = lowlink[node]
                if lowlink[node] == index_of[node]:
                    component: list[int] = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                        if w == node:
                            break
                    components.append(component)
    return components


def strongly_connected_components(graph: Digraph) -> list[list[Hashable]]:
    """The SCCs of ``graph`` by :func:`tarjan`, as lists of nodes.

    Roots are tried in ``graph.nodes`` order and each node's out-edges
    in key order.  Components come in reverse topological order of the
    condensation.
    """
    nodes = list(graph.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    adjacency: list[list[int]] = [[] for _ in nodes]
    for edge in graph.edges:
        adjacency[index[edge.src]].append(index[edge.dst])
    return [[nodes[i] for i in component] for component in tarjan(adjacency)]


def scc_of(graph: Digraph) -> dict[Hashable, int]:
    """Map each node to the index of its SCC.

    Indices follow the order returned by
    :func:`strongly_connected_components` (reverse topological).
    """
    mapping: dict[Hashable, int] = {}
    for idx, component in enumerate(strongly_connected_components(graph)):
        for node in component:
            mapping[node] = idx
    return mapping


def is_strongly_connected(graph: Digraph) -> bool:
    """True if the graph is non-empty and forms a single SCC."""
    if graph.number_of_nodes() == 0:
        return False
    return len(strongly_connected_components(graph)) == 1


def condensation(graph: Digraph) -> tuple[Digraph, dict[Hashable, int]]:
    """The component DAG of ``graph``.

    Returns ``(dag, mapping)`` where ``dag`` has one node per SCC (the
    SCC index, an int) and one edge per inter-SCC edge of ``graph``
    (parallel inter-SCC edges are preserved, since they correspond to
    distinct channels; each condensation edge stores the key of the
    originating edge in its ``data['origin']``), and ``mapping`` sends
    each original node to its SCC index.

    Each condensation node stores its member list in ``data['members']``.
    """
    components = strongly_connected_components(graph)
    mapping: dict[Hashable, int] = {}
    for idx, component in enumerate(components):
        for node in component:
            mapping[node] = idx
    dag = Digraph()
    for idx, component in enumerate(components):
        dag.add_node(idx, members=list(component))
    for edge in graph.edges:
        a, b = mapping[edge.src], mapping[edge.dst]
        if a != b:
            dag.add_edge(a, b, origin=edge.key)
    return dag, mapping
