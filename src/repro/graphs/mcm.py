"""Minimum cycle mean: Karp's algorithm, Howard's policy iteration.

The cycle time of a timed marked graph with unit delays is the
reciprocal of the *minimum cycle mean* -- the smallest ratio of tokens
to places around any cycle (paper, Section III-B).  This module
computes that quantity exactly, over integer edge weights (token
counts) with :class:`fractions.Fraction` results, and extracts one
*critical cycle* attaining it.

Two independent algorithms are provided:

* :func:`karp_minimum_cycle_mean` -- Karp's O(nm) dynamic program
  [Karp 1978], run per strongly connected component.  This is the
  default used throughout the library, as the paper suggests.
* :func:`howard_minimum_cycle_mean` -- Howard's policy iteration,
  typically much faster in practice; used as a cross-check and for
  large graphs.

Both handle multigraphs (parallel edges) and self-loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable

from .digraph import Digraph, Edge
from .scc import strongly_connected_components

__all__ = [
    "CycleMeanResult",
    "karp_minimum_cycle_mean",
    "howard_minimum_cycle_mean",
    "minimum_cycle_mean",
    "minimum_cycle_ratio",
    "critical_cycle",
    "critical_edges",
]

WeightFn = Callable[[Edge], int]
TimeFn = Callable[[Edge], int]


def _unit_time(_edge: Edge) -> int:
    return 1

_INF = float("inf")


@dataclass(frozen=True)
class CycleMeanResult:
    """The minimum cycle mean together with one cycle attaining it.

    Attributes:
        mean: Minimum over all cycles of (total edge weight) / (number
            of edges), as an exact :class:`Fraction`.
        cycle: One critical cycle, as an edge list in traversal order.
    """

    mean: Fraction
    cycle: list[Edge]

    @property
    def tokens(self) -> int:
        """Total weight (token count) on the returned critical cycle.

        Only meaningful for unit-time means (where the cycle's weight
        equals mean * length); for :func:`minimum_cycle_ratio` results
        sum the weights of :attr:`cycle` directly.
        """
        return self.mean.numerator * len(self.cycle) // self.mean.denominator


def _cyclic_sccs(graph: Digraph) -> list[list[Hashable]]:
    """SCCs that contain at least one cycle (size >= 2, or a self-loop)."""
    out = []
    for component in strongly_connected_components(graph):
        if len(component) > 1:
            out.append(component)
        else:
            node = component[0]
            if any(e.dst == node for e in graph.out_edges(node)):
                out.append(component)
    return out


def _karp_on_scc(
    graph: Digraph, component: list[Hashable], weight: WeightFn
) -> Fraction:
    """Karp's DP restricted to one strongly connected component."""
    members = set(component)
    nodes = list(component)
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    # In-edges restricted to the component, per node index.
    in_edges: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for node in nodes:
        for edge in graph.in_edges(node):
            if edge.src in members:
                in_edges[index[node]].append((index[edge.src], weight(edge)))

    source = 0
    # D[k][v]: minimum weight of a walk with exactly k edges from source.
    prev = [_INF] * n
    prev[source] = 0
    table = [list(prev)]
    for _ in range(n):
        cur = [_INF] * n
        for v in range(n):
            best = _INF
            for u, w in in_edges[v]:
                if prev[u] is not _INF and prev[u] + w < best:
                    best = prev[u] + w
            cur[v] = best
        table.append(cur)
        prev = cur

    best_mean: Fraction | None = None
    d_n = table[n]
    for v in range(n):
        if d_n[v] is _INF or d_n[v] == _INF:
            continue
        worst: Fraction | None = None
        for k in range(n):
            if table[k][v] == _INF:
                continue
            candidate = Fraction(int(d_n[v] - table[k][v]), n - k)
            if worst is None or candidate > worst:
                worst = candidate
        if worst is not None and (best_mean is None or worst < best_mean):
            best_mean = worst
    if best_mean is None:  # pragma: no cover - SCC guaranteed cyclic
        raise RuntimeError("Karp found no cycle in a cyclic SCC")
    return best_mean


def karp_minimum_cycle_mean(
    graph: Digraph, weight: WeightFn
) -> Fraction | None:
    """Minimum cycle mean over the whole graph, or ``None`` if acyclic."""
    best: Fraction | None = None
    for component in _cyclic_sccs(graph):
        mean = _karp_on_scc(graph, component, weight)
        if best is None or mean < best:
            best = mean
    return best


def critical_cycle(
    graph: Digraph,
    weight: WeightFn,
    mean: Fraction,
    time: TimeFn = _unit_time,
) -> list[Edge]:
    """Extract one cycle whose weight/time ratio equals ``mean``.

    ``mean`` must be the *minimum* cycle ratio.  Uses the standard
    reduction: with reduced integer weights ``w'(e) = q*w(e) - p*t(e)``
    for ``mean = p/q``, every cycle has non-negative reduced weight and
    critical cycles have exactly zero.  Bellman--Ford potentials then
    make critical-cycle edges *tight* (``pot[u] + w' == pot[v]``), and
    any cycle of tight edges is critical.  With the default unit
    ``time`` this is the minimum cycle *mean* witness.
    """
    p, q = mean.numerator, mean.denominator

    def reduced(edge: Edge) -> int:
        return q * weight(edge) - p * time(edge)

    # Bellman-Ford from a virtual source attached to every node with
    # zero-weight edges: start all potentials at 0 and relax.
    pot: dict[Hashable, int] = {node: 0 for node in graph.nodes}
    edges = list(graph.edges)
    for _ in range(graph.number_of_nodes()):
        changed = False
        for edge in edges:
            cand = pot[edge.src] + reduced(edge)
            if cand < pot[edge.dst]:
                pot[edge.dst] = cand
                changed = True
        if not changed:
            break
    else:  # pragma: no cover - mean minimality violated
        raise ValueError("negative cycle: supplied mean is not minimal")

    # Tight subgraph; any directed cycle in it attains the mean.
    tight: dict[Hashable, list[Edge]] = {node: [] for node in graph.nodes}
    for edge in edges:
        if pot[edge.src] + reduced(edge) == pot[edge.dst]:
            tight[edge.src].append(edge)

    # Iterative DFS for a cycle among tight edges.
    color: dict[Hashable, int] = {}  # 0 absent, 1 on stack, 2 done
    parent_edge: dict[Hashable, Edge] = {}
    for root in graph.nodes:
        if color.get(root, 0) == 2 or not tight[root]:
            continue
        stack: list[tuple[Hashable, iter]] = [(root, iter(tight[root]))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for edge in it:
                dst = edge.dst
                state = color.get(dst, 0)
                if state == 1:
                    # Found a cycle: unwind from ``node`` back to ``dst``.
                    cycle = [edge]
                    cur = node
                    while cur != dst:
                        back = parent_edge[cur]
                        cycle.append(back)
                        cur = back.src
                    cycle.reverse()
                    return cycle
                if state == 0:
                    color[dst] = 1
                    parent_edge[dst] = edge
                    stack.append((dst, iter(tight[dst])))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    raise ValueError("no critical cycle found: supplied mean is not attained")


def critical_edges(
    graph: Digraph,
    weight: WeightFn,
    mean: Fraction,
    time: TimeFn = _unit_time,
) -> set[int]:
    """Keys of every edge lying on *some* critical cycle.

    With the Bellman--Ford potentials of the standard reduction, an
    edge belongs to a critical cycle iff it is *tight*
    (``pot[u] + w' == pot[v]`` for reduced weights ``w' = q*w - p*t``)
    and both endpoints sit in the same non-trivial strongly connected
    component of the tight subgraph (inside such a component any tight
    edge closes a zero-reduced-weight -- hence critical -- cycle).

    Unlike enumerating all critical cycles (potentially exponential),
    this runs in O(nm) and is what the bottleneck reports use.
    """
    p, q = mean.numerator, mean.denominator

    def reduced(edge: Edge) -> int:
        return q * weight(edge) - p * time(edge)

    pot: dict[Hashable, int] = {node: 0 for node in graph.nodes}
    edges = list(graph.edges)
    for _ in range(graph.number_of_nodes()):
        changed = False
        for edge in edges:
            cand = pot[edge.src] + reduced(edge)
            if cand < pot[edge.dst]:
                pot[edge.dst] = cand
                changed = True
        if not changed:
            break
    else:
        raise ValueError("negative cycle: supplied mean is not minimal")

    tight = [
        edge
        for edge in edges
        if pot[edge.src] + reduced(edge) == pot[edge.dst]
    ]
    tight_graph = graph.edge_subgraph([e.key for e in tight])
    out: set[int] = set()
    for component in strongly_connected_components(tight_graph):
        members = set(component)
        if len(members) == 1:
            node = component[0]
            # A tight self-loop is its own critical cycle.
            out.update(
                e.key
                for e in tight_graph.out_edges(node)
                if e.dst == node
            )
            continue
        out.update(
            e.key
            for e in tight
            if e.src in members and e.dst in members
        )
    return out


def minimum_cycle_mean(
    graph: Digraph, weight: WeightFn
) -> CycleMeanResult | None:
    """Minimum cycle mean with a witness cycle; ``None`` if acyclic."""
    mean = karp_minimum_cycle_mean(graph, weight)
    if mean is None:
        return None
    return CycleMeanResult(mean=mean, cycle=critical_cycle(graph, weight, mean))


# ----------------------------------------------------------------------
# Howard's policy iteration
# ----------------------------------------------------------------------
def _howard_on_scc(
    graph: Digraph,
    component: list[Hashable],
    weight: WeightFn,
    time: TimeFn = _unit_time,
) -> Fraction:
    """Howard's algorithm restricted to one strongly connected component.

    Generalized to minimum cycle *ratio* (cycle weight / cycle time):
    with unit times this is the minimum cycle mean.  Times must be
    positive integers.
    """
    members = set(component)
    out_edges: dict[Hashable, list[Edge]] = {
        node: [e for e in graph.out_edges(node) if e.dst in members]
        for node in component
    }
    # Initial policy: pick the minimum-weight out-edge of each node.
    policy: dict[Hashable, Edge] = {
        node: min(edges, key=weight) for node, edges in out_edges.items()
    }
    # Each policy cycle's zero-bias reference node.  A cycle that
    # survives an improvement step keeps its reference: re-picking it
    # wherever the chain walk happens to close the cycle would shift
    # the biases of an unchanged cycle, and nodes could then flip
    # between equal-eta basins forever.
    anchors: set[Hashable] = set()

    while True:
        # --- Policy evaluation -------------------------------------------
        eta: dict[Hashable, Fraction] = {}
        bias: dict[Hashable, Fraction] = {}
        state: dict[Hashable, int] = {}  # 0 unvisited, 1 in progress, 2 done
        references: set[Hashable] = set()

        for start in component:
            if state.get(start, 0) == 2:
                continue
            # Walk the functional chain until a repeat or a settled node.
            chain: list[Hashable] = []
            pos: dict[Hashable, int] = {}
            node = start
            while state.get(node, 0) == 0:
                state[node] = 1
                pos[node] = len(chain)
                chain.append(node)
                node = policy[node].dst
            if state[node] == 1:
                # New cycle discovered: chain[pos[node]:] closes at ``node``.
                cycle_nodes = chain[pos[node]:]
                total = sum(weight(policy[v]) for v in cycle_nodes)
                span = sum(time(policy[v]) for v in cycle_nodes)
                mean = Fraction(total, span)
                # Biases around the cycle: fix the reference node at
                # zero and walk backwards so
                # h[u] = w(pi(u)) - mean*t(pi(u)) + h[succ(u)].
                ref = next(
                    (v for v in cycle_nodes if v in anchors), cycle_nodes[0]
                )
                references.add(ref)
                at = cycle_nodes.index(ref)
                cycle_nodes = cycle_nodes[at:] + cycle_nodes[:at]
                eta[ref] = mean
                bias[ref] = Fraction(0)
                for v in reversed(cycle_nodes[1:]):
                    succ = policy[v].dst
                    eta[v] = mean
                    bias[v] = (
                        weight(policy[v])
                        - mean * time(policy[v])
                        + bias[succ]
                    )
                for v in cycle_nodes:
                    state[v] = 2
            # Settle the non-cycle prefix of the chain backwards.
            settle_upto = pos.get(node, len(chain))
            for v in reversed(chain[:settle_upto]):
                succ = policy[v].dst
                eta[v] = eta[succ]
                bias[v] = (
                    weight(policy[v]) - eta[succ] * time(policy[v]) + bias[succ]
                )
                state[v] = 2
        anchors = references

        # --- Policy improvement ------------------------------------------
        improved = False
        for node in component:
            best_edge = policy[node]
            best_eta = eta[best_edge.dst]
            best_val = (
                weight(best_edge)
                - best_eta * time(best_edge)
                + bias[best_edge.dst]
            )
            for edge in out_edges[node]:
                cand_eta = eta[edge.dst]
                cand_val = (
                    weight(edge) - cand_eta * time(edge) + bias[edge.dst]
                )
                if cand_eta < best_eta or (
                    cand_eta == best_eta and cand_val < best_val
                ):
                    best_edge, best_eta, best_val = edge, cand_eta, cand_val
            if best_edge is not policy[node]:
                cur_eta = eta[policy[node].dst]
                cur_val = (
                    weight(policy[node])
                    - cur_eta * time(policy[node])
                    + bias[policy[node].dst]
                )
                if best_eta < cur_eta or best_val < cur_val:
                    policy[node] = best_edge
                    improved = True
        if not improved:
            return min(eta.values())


def howard_minimum_cycle_mean(
    graph: Digraph, weight: WeightFn
) -> Fraction | None:
    """Minimum cycle mean via Howard's policy iteration; ``None`` if acyclic."""
    best: Fraction | None = None
    for component in _cyclic_sccs(graph):
        mean = _howard_on_scc(graph, component, weight)
        if best is None or mean < best:
            best = mean
    return best


def minimum_cycle_ratio(
    graph: Digraph, weight: WeightFn, time: TimeFn
) -> CycleMeanResult | None:
    """Minimum cycle ratio (sum of weights / sum of times) with witness.

    The generalization the paper's footnote 3 needs: shells wrapping
    pipelined cores of latency L contribute L time units per firing, so
    the cycle time of a loop through them is tokens / (hop count plus
    extra latency).  Times must be positive integers; returns ``None``
    for acyclic graphs.

    Implemented with Howard's policy iteration (exact rational
    arithmetic) plus the Bellman--Ford reduction for the witness
    cycle.
    """
    for edge in graph.edges:
        if time(edge) <= 0:
            raise ValueError(f"non-positive time on edge {edge.key}")
    best: Fraction | None = None
    for component in _cyclic_sccs(graph):
        ratio = _howard_on_scc(graph, component, weight, time)
        if best is None or ratio < best:
            best = ratio
    if best is None:
        return None
    witness = critical_cycle(graph, weight, best, time)
    return CycleMeanResult(mean=best, cycle=witness)
