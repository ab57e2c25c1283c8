"""Elementary cycle enumeration (Johnson's algorithm) for multigraphs.

The queue-sizing machinery of the paper (Sections VII--VIII) enumerates
every elementary cycle of a doubled marked graph, computes each cycle's
token deficit, and sizes queues so that every deficit is covered.  Two
subtleties drive this module's design:

* Doubled marked graphs are **multigraphs**: a channel contributes a
  forward edge *and* a backedge, and two parallel channels between the
  same shells contribute parallel edges.  Distinct parallel edges give
  rise to distinct cycles with different token counts (the paper's
  Table VI lists two cycles through the same block sequence), so cycles
  must be enumerated at the *edge* level.  We first enumerate
  node-simple cycles with Johnson's algorithm on the simple quotient
  graph, then expand each node cycle into the Cartesian product of the
  parallel edges along it.

* Elementary cycles suffice: any non-elementary cycle decomposes into
  elementary ones and its token/place ratio is a mediant of theirs, so
  bounding every elementary cycle mean bounds every cycle mean.

The number of elementary cycles can be exponential; callers may pass
``max_cycles`` to abort early (a :class:`CycleExplosionError` is
raised), mirroring the paper's observation that enumeration "may blow
up fairly quickly".
"""

from __future__ import annotations

from collections import defaultdict
from itertools import product
from typing import Hashable, Iterator

from .digraph import Digraph, Edge
from .scc import tarjan

__all__ = [
    "CycleExplosionError",
    "elementary_node_cycles",
    "elementary_edge_cycles",
    "count_edge_cycles",
    "cycle_edges_to_nodes",
]


class CycleExplosionError(RuntimeError):
    """Raised when cycle enumeration exceeds a caller-supplied budget."""


def _simple_adjacency(graph: Digraph) -> dict[Hashable, set[Hashable]]:
    """Successor sets with parallel edges collapsed and self-loops removed."""
    adj: dict[Hashable, set[Hashable]] = {node: set() for node in graph.nodes}
    for edge in graph.edges:
        if edge.src != edge.dst:
            adj[edge.src].add(edge.dst)
    return adj


def _nontrivial_sccs(adj: dict[Hashable, set[Hashable]]) -> list[set[Hashable]]:
    """SCCs with >= 2 nodes of a dict-of-sets digraph, by :func:`tarjan`
    with roots in ``adj`` order and successors in set order.  Each set
    is built in Tarjan's pop order, which fixes its iteration order and
    so the start node Johnson's search takes from it."""
    nodes = list(adj)
    index = {node: i for i, node in enumerate(nodes)}
    components = tarjan([[index[succ] for succ in adj[node]] for node in nodes])
    return [
        {nodes[i] for i in component}
        for component in components
        if len(component) > 1
    ]


def elementary_node_cycles(graph: Digraph) -> Iterator[list[Hashable]]:
    """Yield every elementary (node-simple) cycle as a node list.

    Self-loops are yielded as single-node cycles ``[v]`` (once per node,
    regardless of how many parallel self-loop edges exist; the edge-level
    expansion in :func:`elementary_edge_cycles` multiplies them out).

    This is Johnson's algorithm in its iterative form.
    """
    # Self-loop node cycles first.
    loop_nodes = {e.src for e in graph.self_loops()}
    for node in loop_nodes:
        yield [node]

    sub_adj = _simple_adjacency(graph)
    sccs = _nontrivial_sccs(sub_adj)
    while sccs:
        component = sccs.pop()
        start = next(iter(component))
        comp_adj = {
            node: {s for s in sub_adj[node] if s in component}
            for node in component
        }
        path = [start]
        blocked = {start}
        closed: set[Hashable] = set()
        B: dict[Hashable, set[Hashable]] = defaultdict(set)
        stack = [(start, list(comp_adj[start]))]
        while stack:
            this_node, nbrs = stack[-1]
            if nbrs:
                next_node = nbrs.pop()
                if next_node == start:
                    yield list(path)
                    closed.update(path)
                elif next_node not in blocked:
                    path.append(next_node)
                    stack.append((next_node, list(comp_adj[next_node])))
                    closed.discard(next_node)
                    blocked.add(next_node)
                    continue
            if not nbrs:
                if this_node in closed:
                    # Unblock this_node and everything blocked through it.
                    unblock_stack = [this_node]
                    while unblock_stack:
                        node = unblock_stack.pop()
                        if node in blocked:
                            blocked.discard(node)
                            unblock_stack.extend(B[node])
                            B[node].clear()
                else:
                    for nbr in comp_adj[this_node]:
                        B[nbr].add(this_node)
                stack.pop()
                path.pop()
        # Remove the start node and recurse on the remainder.
        remainder = {
            node: {s for s in comp_adj[node] if s != start}
            for node in component
            if node != start
        }
        for node in remainder:
            sub_adj[node] = sub_adj[node] - {start}
        sccs.extend(_nontrivial_sccs(remainder))


def elementary_edge_cycles(
    graph: Digraph, max_cycles: int | None = None
) -> Iterator[list[Edge]]:
    """Yield every elementary cycle as a list of :class:`Edge` objects.

    Each node-simple cycle is expanded into one edge cycle per choice of
    parallel edge along every hop.  The edge list is rotated so that it
    starts at the hop leaving the cycle's first node as enumerated.

    Args:
        graph: The multigraph to enumerate.
        max_cycles: Optional budget; exceeding it raises
            :class:`CycleExplosionError`.
    """
    emitted = 0
    for node_cycle in elementary_node_cycles(graph):
        if len(node_cycle) == 1:
            node = node_cycle[0]
            hop_choices = [
                [e for e in graph.out_edges(node) if e.dst == node]
            ]
        else:
            hop_choices = [
                graph.edges_between(
                    node_cycle[i], node_cycle[(i + 1) % len(node_cycle)]
                )
                for i in range(len(node_cycle))
            ]
        for combo in product(*hop_choices):
            emitted += 1
            if max_cycles is not None and emitted > max_cycles:
                raise CycleExplosionError(
                    f"more than {max_cycles} elementary cycles"
                )
            yield list(combo)


def count_edge_cycles(graph: Digraph) -> int:
    """The number of elementary edge cycles, without materializing them.

    Parallel-edge multiplicities are multiplied per node cycle, so this
    is far cheaper than ``len(list(elementary_edge_cycles(g)))`` when
    multiplicity is high.
    """
    total = 0
    for node_cycle in elementary_node_cycles(graph):
        if len(node_cycle) == 1:
            node = node_cycle[0]
            count = sum(1 for e in graph.out_edges(node) if e.dst == node)
        else:
            count = 1
            for i in range(len(node_cycle)):
                count *= len(
                    graph.edges_between(
                        node_cycle[i], node_cycle[(i + 1) % len(node_cycle)]
                    )
                )
        total += count
    return total


def cycle_edges_to_nodes(cycle: list[Edge]) -> list[Hashable]:
    """The node sequence visited by an edge cycle (one entry per hop)."""
    return [edge.src for edge in cycle]
