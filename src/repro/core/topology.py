"""Topology classification of LISs (paper, Section IV and Table II).

The paper proves that *fixed* queue sizing -- giving every shell queue
the same depth -- is already optimal for two topology classes:

* **Trees** (more generally, DAGs with no reconvergent paths): the
  doubled graph's only cycles are edge/backedge pairs, which carry at
  least two tokens, so q = 1 suffices.
* **SCCs with no reconvergent paths**: every node shared by two cycles
  is an articulation point, so doubling only adds the inverses of
  existing cycles (which have at least as many tokens) plus
  edge/backedge pairs; again q = 1 suffices.  The same holds for many
  SCCs connected by a DAG with no reconvergent paths.

A group of simple paths is *reconvergent* when they would form a cycle
if the graph were undirected.  Operationally: the system graph has no
reconvergent paths iff every biconnected component of its underlying
undirected multigraph is either a single edge (a bridge) or the edge
set of a single directed cycle.  Parallel channels between the same
pair of shells count as reconvergent paths (they form an undirected
2-cycle) -- which is exactly why the paper's Fig. 1 example degrades
with q = 1.

For all other topologies ("network of SCCs" in Table II), fixed QS is
not guaranteed; the conservative bound q = r + 1 (one more than the
number of relay stations) always works but wastes area, motivating the
optimal QS problem of Section V.
"""

from __future__ import annotations

import enum
from typing import Hashable

from ..graphs import Digraph, Edge, biconnected_components
from .lis_graph import LisGraph

__all__ = [
    "TopologyClass",
    "RelayPlacement",
    "is_directed_cycle_component",
    "has_reconvergent_paths",
    "classify_topology",
    "relay_placement",
    "fixed_q1_is_safe",
    "conservative_fixed_queue",
]


class TopologyClass(enum.Enum):
    """The three rows of the paper's Table II."""

    TREE = "tree"
    """No cycles and no reconvergent paths (includes such DAGs/forests).
    MST is 1 and every tau inserted by relay stations leaves the LIS."""

    SCC_NO_RECONVERGENT = "scc-no-reconvergent-paths"
    """Cycles exist but no reconvergent paths: cycles meet only at
    articulation points.  Doubling adds no MST-reducing cycles."""

    NETWORK_OF_SCCS = "network-of-sccs"
    """General case: reconvergent paths present.  Fixed queue sizing is
    not guaranteed to preserve the ideal MST."""


class RelayPlacement(enum.Enum):
    """Where the relay stations of a LIS sit relative to its SCCs
    (Table II distinguishes networks of SCCs by this property)."""

    NONE = "none"
    INTER_SCC = "inter-scc"
    INTRA_SCC = "intra-scc"
    MIXED = "mixed"


def is_directed_cycle_component(component: list[Edge]) -> bool:
    """True if a biconnected component's edges form one directed cycle.

    A single directed cycle visits each of its nodes exactly once, so
    within the component every node must have in-degree and out-degree
    exactly one and the number of edges must equal the number of nodes.
    (Biconnectivity already guarantees connectedness.)
    """
    if not component:
        return False
    out_deg: dict[Hashable, int] = {}
    in_deg: dict[Hashable, int] = {}
    nodes: set[Hashable] = set()
    for edge in component:
        out_deg[edge.src] = out_deg.get(edge.src, 0) + 1
        in_deg[edge.dst] = in_deg.get(edge.dst, 0) + 1
        nodes.add(edge.src)
        nodes.add(edge.dst)
    if len(component) != len(nodes):
        return False
    return all(
        out_deg.get(n, 0) == 1 and in_deg.get(n, 0) == 1 for n in nodes
    )


def has_reconvergent_paths(graph: Digraph) -> bool:
    """True if the graph contains reconvergent paths.

    Checked per biconnected component of the underlying undirected
    multigraph: a component that is neither a bridge (single edge) nor
    a single directed cycle contains two simple paths closing an
    undirected cycle, i.e. a reconvergence.  Self-loops are directed
    cycles of length one and never reconvergent.
    """
    for component in biconnected_components(graph):
        if len(component) == 1 and component[0].src != component[0].dst:
            continue  # bridge
        if is_directed_cycle_component(component):
            continue
        return True
    return False


def classify_topology(lis: LisGraph | Digraph) -> TopologyClass:
    """Classify a LIS (or a raw system graph) per Table II."""
    graph = lis.system if isinstance(lis, LisGraph) else lis
    if has_reconvergent_paths(graph):
        return TopologyClass.NETWORK_OF_SCCS
    has_cycle = any(
        not (len(c) == 1 and c[0].src != c[0].dst)
        for c in biconnected_components(graph)
    )
    if has_cycle:
        return TopologyClass.SCC_NO_RECONVERGENT
    return TopologyClass.TREE


def relay_placement(lis: LisGraph) -> RelayPlacement:
    """Whether relay stations sit on intra-SCC or inter-SCC channels."""
    mapping = lis.scc_map()
    inter = intra = 0
    for channel in lis.channels():
        relays = channel.data["relays"]
        if relays == 0:
            continue
        if mapping[channel.src] == mapping[channel.dst]:
            intra += relays
        else:
            inter += relays
    if inter == 0 and intra == 0:
        return RelayPlacement.NONE
    if intra == 0:
        return RelayPlacement.INTER_SCC
    if inter == 0:
        return RelayPlacement.INTRA_SCC
    return RelayPlacement.MIXED


def fixed_q1_is_safe(lis: LisGraph) -> bool:
    """Section IV's guarantee: with this topology, q = 1 everywhere
    preserves the ideal MST regardless of relay-station placement."""
    return classify_topology(lis) is not TopologyClass.NETWORK_OF_SCCS


def conservative_fixed_queue(lis: LisGraph) -> int:
    """The always-safe fixed queue size q = r + 1 (end of Section IV).

    Every relay station introduces one tau; no cycle can be deficient
    by more than the total relay count r, so queues of depth r + 1
    absorb any deficit.  Generally far too conservative in area.
    """
    return lis.total_relays() + 1
