"""Graph substrate: multigraphs and the algorithms the paper relies on.

Everything here is implemented from scratch (no third-party graph
library); the test-suite cross-validates against :mod:`networkx`.
"""

from .digraph import Digraph, Edge, GraphError
from .traversal import is_acyclic, topological_sort
from .scc import is_strongly_connected, scc_of, strongly_connected_components
from .biconnected import biconnected_components
from .cycles import (
    CycleExplosionError,
    count_edge_cycles,
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
from .io import to_dot

__all__ = [
    "Digraph",
    "Edge",
    "GraphError",
    "is_acyclic",
    "topological_sort",
    "is_strongly_connected",
    "scc_of",
    "strongly_connected_components",
    "biconnected_components",
    "CycleExplosionError",
    "count_edge_cycles",
    "elementary_edge_cycles",
    "elementary_node_cycles",
    "CycleMeanResult",
    "critical_cycle",
    "critical_edges",
    "howard_minimum_cycle_mean",
    "karp_minimum_cycle_mean",
    "minimum_cycle_mean",
    "to_dot",
]
