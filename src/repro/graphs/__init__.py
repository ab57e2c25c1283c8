"""Graph substrate: multigraphs and the algorithms the paper relies on.

Everything here is implemented from scratch (no third-party graph
library); the test-suite cross-validates against :mod:`networkx`.
"""

from .digraph import Digraph, Edge, GraphError
from .traversal import (
    bfs_order,
    dfs_preorder,
    has_path,
    induced_order,
    is_acyclic,
    reachable_from,
    co_reachable_to,
    topological_sort,
)
from .scc import (
    condensation,
    is_strongly_connected,
    scc_of,
    strongly_connected_components,
)
from .biconnected import (
    articulation_points,
    biconnected_components,
    bridges,
)
from .cycles import (
    CycleExplosionError,
    count_edge_cycles,
    cycle_edges_to_nodes,
    elementary_edge_cycles,
    elementary_node_cycles,
)
from .mcm import (
    CycleMeanResult,
    critical_cycle,
    critical_edges,
    howard_minimum_cycle_mean,
    karp_minimum_cycle_mean,
    minimum_cycle_mean,
)
from .io import from_edgelist, to_dot, to_edgelist

__all__ = [
    "Digraph",
    "Edge",
    "GraphError",
    "bfs_order",
    "dfs_preorder",
    "has_path",
    "induced_order",
    "is_acyclic",
    "reachable_from",
    "co_reachable_to",
    "topological_sort",
    "condensation",
    "is_strongly_connected",
    "scc_of",
    "strongly_connected_components",
    "articulation_points",
    "biconnected_components",
    "bridges",
    "CycleExplosionError",
    "count_edge_cycles",
    "cycle_edges_to_nodes",
    "elementary_edge_cycles",
    "elementary_node_cycles",
    "CycleMeanResult",
    "critical_cycle",
    "critical_edges",
    "howard_minimum_cycle_mean",
    "karp_minimum_cycle_mean",
    "minimum_cycle_mean",
    "from_edgelist",
    "to_dot",
    "to_edgelist",
]
