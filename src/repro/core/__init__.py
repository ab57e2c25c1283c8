"""Core analysis and optimization layer: the paper's contribution.

Exposes marked graphs, the LIS system model, throughput (MST) analysis,
topology classification, the queue-sizing problem with its
token-deficit abstraction, heuristic/exact/fixed solvers, relay-station
insertion, and the NP-completeness construction.
"""

from .marked_graph import MarkedGraph, MarkingError, place_tokens
from .lis_graph import RELAY_CAPACITY, LisError, LisGraph
from .naming import (
    relay_name,
    sink_shells,
    source_shells,
    stage_name,
    structural_nodes,
)
from .throughput import (
    ThroughputResult,
    actual_mst,
    bottleneck_channels,
    cycle_time,
    degradation_ratio,
    ideal_mst,
    mst,
    mst_per_scc,
)
from .topology import (
    RelayPlacement,
    TopologyClass,
    classify_topology,
    conservative_fixed_queue,
    fixed_q1_is_safe,
    has_reconvergent_paths,
    relay_placement,
)
from .cycles import (
    CollapseError,
    CycleRecord,
    collapse_sccs,
    cycle_records,
    deficient_cycles,
    is_collapsible,
)
from .token_deficit import (
    InfeasibleError,
    TokenDeficitInstance,
    build_td_instance,
)
from .relay_opt import (
    InsertionResult,
    apply_insertion,
    equalization_slacks,
    exhaustive_relay_search,
    relay_insertion_can_restore,
)
from .npcomplete import (
    PBLOCK_TABLE,
    QsReduction,
    classify_pblocks,
    cover_to_qs_solution,
    is_vertex_cover,
    minimum_vertex_cover,
    qs_solution_to_cover,
    reduce_vertex_cover_to_qs,
)
from .solvers import (
    ExactOutcome,
    ExactTimeout,
    KernelStats,
    QsSolution,
    Solver,
    TdKernel,
    available_solvers,
    compile_td,
    fixed_qs_mst,
    fixed_qs_profile,
    get_solver,
    minimal_fixed_q,
    size_queues,
)
from .serialize import lis_from_json, lis_to_json, load_lis, save_lis
from .slack import channel_slack, pipelining_slack
from .report import AnalysisReport, analyze
from .scheduling import ScheduleError, schedule_lis, simulation_driven_sizing

__all__ = [
    "InsertionResult",
    "apply_insertion",
    "equalization_slacks",
    "exhaustive_relay_search",
    "relay_insertion_can_restore",
    "PBLOCK_TABLE",
    "QsReduction",
    "classify_pblocks",
    "cover_to_qs_solution",
    "is_vertex_cover",
    "minimum_vertex_cover",
    "qs_solution_to_cover",
    "reduce_vertex_cover_to_qs",
    "RelayPlacement",
    "TopologyClass",
    "classify_topology",
    "conservative_fixed_queue",
    "fixed_q1_is_safe",
    "has_reconvergent_paths",
    "relay_placement",
    "CollapseError",
    "CycleRecord",
    "collapse_sccs",
    "cycle_records",
    "deficient_cycles",
    "is_collapsible",
    "InfeasibleError",
    "TokenDeficitInstance",
    "build_td_instance",
    "ExactOutcome",
    "ExactTimeout",
    "KernelStats",
    "QsSolution",
    "Solver",
    "TdKernel",
    "available_solvers",
    "compile_td",
    "get_solver",
    "lis_from_json",
    "lis_to_json",
    "load_lis",
    "save_lis",
    "channel_slack",
    "pipelining_slack",
    "AnalysisReport",
    "analyze",
    "ScheduleError",
    "schedule_lis",
    "simulation_driven_sizing",
    "fixed_qs_mst",
    "fixed_qs_profile",
    "minimal_fixed_q",
    "size_queues",
    "MarkedGraph",
    "MarkingError",
    "place_tokens",
    "RELAY_CAPACITY",
    "LisError",
    "LisGraph",
    "relay_name",
    "sink_shells",
    "source_shells",
    "stage_name",
    "structural_nodes",
    "ThroughputResult",
    "actual_mst",
    "bottleneck_channels",
    "cycle_time",
    "degradation_ratio",
    "ideal_mst",
    "mst",
    "mst_per_scc",
]
