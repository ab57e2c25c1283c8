"""Minimum cycle mean: a parametric negative-cycle search, with
Karp's algorithm and Howard's policy iteration as references.

The cycle time of a timed marked graph with unit delays is the
reciprocal of the *minimum cycle mean* -- the smallest ratio of tokens
to places around any cycle (paper, Section III-B).  This module
computes that quantity exactly, over integer edge weights (token
counts) with :class:`fractions.Fraction` results, and extracts one
*critical cycle* attaining it.

Three algorithms are provided:

* :func:`minimum_cycle_mean` -- the search the library runs.  For a
  candidate mean ``lam = p/q`` it relaxes the integer reduced weights
  ``q*w(e) - p`` with the one Bellman--Ford loop of this module, which
  keeps each node's parent arc.  A cycle of parent arcs has negative
  reduced weight, i.e. a mean below ``lam``: that mean becomes the
  next candidate and the loop starts again.  A pass that changes
  nothing proves no cycle lies below ``lam``, so ``lam`` is the
  minimum, and its settled potentials yield the witness cycle.
* :func:`karp_minimum_cycle_mean` -- Karp's O(nm) dynamic program
  [Karp 1978], run per strongly connected component: the algorithm the
  paper suggests, and the reference the tests and the MCM ablation
  check the search against.  It works on plain ``int`` walk weights
  and compares candidate means by integer cross-multiplication, so the
  only :class:`Fraction` it builds is the result.
* :func:`howard_minimum_cycle_mean` -- Howard's policy iteration over
  exact :class:`Fraction` biases: an independent oracle.

All handle multigraphs (parallel edges) and self-loops.  Edge weights
must be ``int`` (token counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable

from .digraph import Digraph, Edge
from .scc import strongly_connected_components, tarjan

__all__ = [
    "CycleMeanResult",
    "karp_minimum_cycle_mean",
    "howard_minimum_cycle_mean",
    "minimum_cycle_mean",
    "critical_cycle",
    "critical_edges",
    "reduced_arcs",
    "potentials",
]

WeightFn = Callable[[Edge], int]
TimeFn = Callable[[Edge], int]


def _unit_time(_edge: Edge) -> int:
    return 1


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
        """Total weight (token count) on the returned critical cycle."""
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
    """Karp's DP restricted to one strongly connected component.

    Walk weights stay ``int``.  Each candidate mean ``(D_n(v) - D_k(v))
    / (n - k)`` is an integer pair with a positive denominator, so
    ``a/b < c/d`` iff ``a*d < c*b`` and only the winner becomes a
    :class:`Fraction`.
    """
    members = set(component)
    n = len(component)
    index = {node: i for i, node in enumerate(component)}
    # (source index, weight) of each in-edge inside the component.
    preds = [
        [
            (index[edge.src], weight(edge))
            for edge in graph.in_edges(node)
            if edge.src in members
        ]
        for node in component
    ]

    # table[k][v]: least weight of a walk of exactly k edges from node
    # 0 to v, or None when no such walk exists.
    prev: list[int | None] = [None] * n
    prev[0] = 0
    table = [prev]
    for _ in range(n):
        cur: list[int | None] = []
        for in_arcs in preds:
            best = None
            for u, w in in_arcs:
                d = prev[u]
                if d is not None:
                    d += w
                    if best is None or d < best:
                        best = d
            cur.append(best)
        table.append(cur)
        prev = cur

    # min over v of max over k.  When D_n(v) exists so does D_k(v) for
    # k = dist(0, v) < n, so every scanned column has a candidate.  A
    # column whose running max reaches the best min cannot lower it,
    # so its scan stops there.
    best_num: int | None = None
    best_den = 1
    for d_n, column in zip(table[n], zip(*table[:n])):
        if d_n is None:
            continue
        num: int | None = None
        den = 1
        for k, d_k in enumerate(column):
            if d_k is not None:
                cand, span = d_n - d_k, n - k
                if num is None or cand * den > num * span:
                    num, den = cand, span
                    if best_num is not None and num * best_den >= best_num * den:
                        break
        else:
            best_num, best_den = num, den
    if best_num is None:  # pragma: no cover - SCC guaranteed cyclic
        raise RuntimeError("Karp found no cycle in a cyclic SCC")
    return Fraction(best_num, best_den)


def karp_minimum_cycle_mean(
    graph: Digraph, weight: WeightFn
) -> Fraction | None:
    """Minimum cycle mean over the whole graph, or ``None`` if acyclic.

    ``weight`` must return ``int`` (token counts); the result is exact.
    """
    best: Fraction | None = None
    for component in _cyclic_sccs(graph):
        mean = _karp_on_scc(graph, component, weight)
        if best is None or mean < best:
            best = mean
    return best


def reduced_arcs(
    graph: Digraph, weight: WeightFn, mean: Fraction
) -> tuple[dict[Hashable, int], list[tuple[int, int, int]]]:
    """The graph under the reduced weights ``q*w(e) - p`` for
    ``mean = p/q``: the node index (``graph.nodes`` order) and one arc
    ``(src index, dst index, reduced weight)`` per edge, in
    ``graph.edges`` order.  A cycle's reduced weight is negative
    exactly when its mean is below ``mean``.
    """
    p, q = mean.numerator, mean.denominator
    index = {node: i for i, node in enumerate(graph.nodes)}
    arcs = [
        (index[edge.src], index[edge.dst], q * weight(edge) - p)
        for edge in graph.edges
    ]
    return index, arcs


def _relax(
    n: int, arcs: list[tuple[int, int, int]]
) -> tuple[list[int], list[int] | None]:
    """Bellman--Ford over ``n`` nodes from a virtual source with a
    0-weight arc to each node, keeping each node's parent arc.

    The first pass scans every arc, each later pass the out-arcs of
    the nodes the pass before relaxed.  Returns ``(pot, None)`` once a
    pass changes nothing, else ``(pot, cycle)`` as soon as the parent
    arcs close a cycle, with ``cycle`` the indices into ``arcs`` of its
    arcs.  Such a cycle has negative weight: every parent arc
    ``(u, v, w)`` keeps ``pot[u] + w <= pot[v]``, and the strict
    relaxation that closed the cycle makes the sum around it negative.
    A node relaxed in pass k has a parent relaxed in pass k - 1 or
    later, so a node relaxed in pass n has no parent chain of n - 1
    arcs back to an unrelaxed node: it lies on or below a parent
    cycle, and at most n + 1 passes run.  Settled potentials are the
    shortest distances from the virtual source, whatever the order of
    relaxations.
    """
    out: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for i, (u, v, w) in enumerate(arcs):
        out[u].append((v, w, i))
    pot = [0] * n
    parent = [-1] * n
    # A parent cycle is new in the pass that relaxed one of its nodes:
    # walk parents from each node relaxed, marking the nodes a pass's
    # walks reach with increasing stamps.
    mark = [0] * n
    stamp = 0
    scan: Iterable[int] = range(n)
    for _ in range(n + 1):
        relaxed = []
        for u in scan:
            pot_u = pot[u]
            for v, w, i in out[u]:
                cand = pot_u + w
                if cand < pot[v]:
                    pot[v] = cand
                    parent[v] = i
                    relaxed.append(v)
        if not relaxed:
            return pot, None
        first = stamp + 1  # stamps below this are from earlier passes
        for start in relaxed:
            if mark[start] >= first:
                continue
            stamp += 1
            node = start
            while node >= 0 and mark[node] < first:
                mark[node] = stamp
                arc = parent[node]
                node = arcs[arc][0] if arc >= 0 else -1
            if node >= 0 and mark[node] == stamp:
                cycle = [parent[node]]
                tail = arcs[cycle[0]][0]
                while tail != node:
                    cycle.append(parent[tail])
                    tail = arcs[cycle[-1]][0]
                return pot, cycle
        scan = dict.fromkeys(relaxed)
    raise AssertionError("pass n left no parent cycle")  # pragma: no cover


def potentials(n: int, arcs: list[tuple[int, int, int]]) -> list[int] | None:
    """Bellman--Ford distances over ``n`` nodes from a virtual source
    with a 0-weight arc to each node, or ``None`` when some cycle has
    negative weight (detected at the first cycle of parent arcs).
    Every arc ``(u, v, w)`` then satisfies ``pot[u] + w >= pot[v]``:
    the potentials make all weights non-negative (Johnson's
    reweighting).
    """
    pot, cycle = _relax(n, arcs)
    return pot if cycle is None else None


def _settle(
    graph: Digraph, weight: WeightFn, mean: Fraction
) -> tuple[list[tuple[int, int, int]], list[int]]:
    """The reduced arcs for ``mean`` and their :func:`potentials`;
    ``ValueError`` when relaxation does not settle (``mean`` is not
    minimal)."""
    index, arcs = reduced_arcs(graph, weight, mean)
    pot = potentials(len(index), arcs)
    if pot is None:
        raise ValueError("negative cycle: supplied mean is not minimal")
    return arcs, pot


def _tight_edges(
    graph: Digraph, arcs: list[tuple[int, int, int]], pot: list[int]
) -> list[tuple[Edge, int, int]]:
    """``(edge, src index, dst index)`` of each edge tight under the
    settled potentials ``pot`` of the reduced ``arcs`` (one per edge of
    ``graph``, see :func:`reduced_arcs`), in edge order; the shared
    core of the witness, :func:`critical_cycle` and
    :func:`critical_edges`.
    """
    return [
        (edge, u, v)
        for edge, (u, v, w) in zip(graph.edges, arcs)
        if pot[u] + w == pot[v]
    ]


def _tight_cycle(
    graph: Digraph, tight: list[tuple[Edge, int, int]]
) -> list[Edge]:
    """The first cycle of tight edges a depth-first search meets, roots
    in ``graph.nodes`` order and edges in key order; any cycle of
    tight edges attains the minimum mean."""
    adjacency: dict[Hashable, list[Edge]] = {node: [] for node in graph.nodes}
    for edge, _, _ in tight:
        adjacency[edge.src].append(edge)

    # Iterative DFS for a cycle among tight edges.
    color: dict[Hashable, int] = {}  # 0 absent, 1 on stack, 2 done
    parent_edge: dict[Hashable, Edge] = {}
    for root in graph.nodes:
        if color.get(root, 0) == 2 or not adjacency[root]:
            continue
        stack: list[tuple[Hashable, iter]] = [(root, iter(adjacency[root]))]
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
                    stack.append((dst, iter(adjacency[dst])))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    raise ValueError("no critical cycle found: supplied mean is not attained")


def critical_cycle(
    graph: Digraph, weight: WeightFn, mean: Fraction
) -> list[Edge]:
    """Extract one cycle whose mean weight equals ``mean``.

    ``mean`` must be the *minimum* cycle mean.  Uses the standard
    reduction: with reduced integer weights ``w'(e) = q*w(e) - p`` for
    ``mean = p/q``, every cycle has non-negative reduced weight and
    critical cycles have exactly zero.  Bellman--Ford potentials then
    make critical-cycle edges *tight* (``pot[u] + w' == pot[v]``), and
    any cycle of tight edges is critical.  It is the same cycle
    :func:`minimum_cycle_mean` returns for its minimum.
    """
    return _tight_cycle(graph, _tight_edges(graph, *_settle(graph, weight, mean)))


def critical_edges(
    graph: Digraph, weight: WeightFn, mean: Fraction
) -> set[int]:
    """Keys of every edge lying on *some* critical cycle.

    With the Bellman--Ford potentials of the standard reduction, an
    edge belongs to a critical cycle iff it is *tight*
    (``pot[u] + w' == pot[v]`` for reduced weights ``w' = q*w - p``)
    and both endpoints sit in the same non-trivial strongly connected
    component of the tight subgraph (inside such a component any tight
    edge closes a zero-reduced-weight -- hence critical -- cycle).

    Unlike enumerating all critical cycles (potentially exponential),
    this runs in O(nm) and is what the bottleneck reports use.
    """
    tight = _tight_edges(graph, *_settle(graph, weight, mean))
    adjacency: list[list[int]] = [[] for _ in range(graph.number_of_nodes())]
    for _, u, v in tight:
        adjacency[u].append(v)
    component_of = [0] * len(adjacency)
    for i, component in enumerate(tarjan(adjacency)):
        for u in component:
            component_of[u] = i
    # An edge inside one component closes a cycle with a tight path
    # back; a tight self-loop is its own critical cycle.
    return {edge.key for edge, u, v in tight if component_of[u] == component_of[v]}


# ----------------------------------------------------------------------
# The parametric search
# ----------------------------------------------------------------------
def _parametric_search(
    graph: Digraph, weight: WeightFn, below: Fraction | None
) -> CycleMeanResult | None:
    """The minimum cycle mean with its witness, when some cycle's
    mean lies below ``below`` (default: above every mean); else
    ``None``.

    Each round relaxes the reduced weights of the candidate ``lam``
    from zero potentials.  A parent cycle is negative, so its mean is
    below ``lam`` and becomes the next candidate: ``lam`` falls
    strictly through the means of simple cycles, and the search stops.
    Once a round settles, no cycle lies below ``lam``; its potentials
    are the ones :func:`critical_cycle` computes for ``lam``, and give
    the same witness.
    """
    index = {node: i for i, node in enumerate(graph.nodes)}
    ends = [(index[edge.src], index[edge.dst]) for edge in graph.edges]
    weights = [weight(edge) for edge in graph.edges]
    if below is None:
        # No cycle's mean exceeds max(0, max weight).
        below = Fraction(max([0, *weights]) + 1)
    lam = below
    while True:
        p, q = lam.numerator, lam.denominator
        arcs = [(u, v, q * w - p) for (u, v), w in zip(ends, weights)]
        pot, cycle = _relax(len(index), arcs)
        if cycle is None:
            break
        lam = Fraction(sum(weights[i] for i in cycle), len(cycle))
    if lam == below:
        return None
    return CycleMeanResult(
        mean=lam, cycle=_tight_cycle(graph, _tight_edges(graph, arcs, pot))
    )


def minimum_cycle_mean(
    graph: Digraph, weight: WeightFn, *, below: Fraction | None = None
) -> CycleMeanResult | None:
    """Minimum cycle mean with a witness cycle; ``None`` if acyclic.

    With ``below`` the search starts there rather than above every
    mean, and returns ``None`` unless some cycle's mean is strictly
    below it: an MST, ``min(1, mean)``, needs only ``below=1``.
    """
    return _parametric_search(graph, weight, below)


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
    graph: Digraph, weight: WeightFn, time: TimeFn = _unit_time
) -> Fraction | None:
    """Minimum cycle mean via Howard's policy iteration; ``None`` if
    acyclic.  With ``time``, the minimum cycle ratio (sum of weights
    over sum of positive integer times)."""
    best: Fraction | None = None
    for component in _cyclic_sccs(graph):
        mean = _howard_on_scc(graph, component, weight, time)
        if best is None or mean < best:
            best = mean
    return best
