"""repro -- performance analysis and optimization of latency-insensitive systems.

A from-scratch reproduction of the latency-insensitive design (LID)
performance line of work: marked-graph modeling of latency-insensitive
systems (LISs), maximal-sustainable-throughput (MST) analysis,
backpressure-induced throughput degradation, and its repair by queue
sizing or relay-station insertion (Carloni & Sangiovanni-Vincentelli,
DAC 2000; Collins & Carloni, IEEE TCAD 2008).

Quick start::

    from repro import LisGraph, ideal_mst, actual_mst, size_queues

    lis = LisGraph()
    lis.add_channel("A", "B", relays=1)   # a pipelined channel
    lis.add_channel("A", "B")             # and a short parallel one

    ideal_mst(lis).mst      # Fraction(1, 1)
    actual_mst(lis).mst     # Fraction(2, 3)  <- backpressure degradation
    size_queues(lis).extra_tokens  # {1: 1}   <- the one-token fix

Subpackages:

* :mod:`repro.graphs` -- graph substrate (multigraphs, SCCs, cycles,
  minimum cycle mean) implemented from scratch.
* :mod:`repro.core` -- the paper's contribution: marked graphs, MST,
  topology classes, the queue-sizing problem, heuristic/exact/fixed
  solvers, relay-station insertion, the NP-completeness reduction.
* :mod:`repro.analysis` -- the shared analysis :class:`Context`: an
  immutable, content-fingerprinted view of one system that memoizes
  every derived artifact (lowerings, MSTs, cycle enumeration, SCC
  collapse, compiled arrays) so nothing is computed twice.
* :mod:`repro.lis` -- two cycle-accurate simulators plus environment
  models for open systems.
* :mod:`repro.sim` -- the NumPy-vectorized batch simulation kernel,
  cycle-exact against both reference simulators.
* :mod:`repro.schedule` -- the analytic schedule oracle: balanced
  binary firing words, exact steady-state throughput, occupancy and
  transient latency without simulating (``backend="schedule"``).
* :mod:`repro.gen` -- the Section VIII random generator and every
  worked example from the paper's figures.
* :mod:`repro.dsl` -- the declarative frontend: ``@shell`` /
  ``@system`` class decorators, typed ports, hierarchical
  composition, lowering to fingerprint-identical graphs, and
  SystemVerilog export pinned cycle-exactly against the simulators.
* :mod:`repro.soc` -- the COFDM UWB transmitter case study.
* :mod:`repro.engine` -- the self-healing batch analysis engine:
  process-pool fan-out, content-hash memoization, per-op
  observability, checksummed disk caching with quarantine, retry
  with backoff, and checkpoint/resume journals.
* :mod:`repro.faults` -- seeded fault injection (stall schedules,
  void storms, stop glitches, relay jitter) with an invariant
  harness and chaos campaigns across all three simulators.
* :mod:`repro.experiments` -- shared experiment harness used by the
  ``benchmarks/`` suite.
* :mod:`repro.stochastic` -- stochastic stall/arrival processes, the
  vectorized Monte-Carlo tail estimator, analytic tail quantiles
  (exact under global modulated service), and tail-vs-queue-sizing
  curves (``repro tail``).
* :mod:`repro.server` -- analysis-as-a-service: an asyncio
  HTTP/JSON-RPC front end with fingerprint request coalescing,
  sharded engine workers, admission control, and a Little's-Law /
  M/M/1 queueing self-model (``repro serve``).
"""

from .core import (
    AnalysisReport,
    LisGraph,
    MarkedGraph,
    QsSolution,
    Solver,
    TdKernel,
    ThroughputResult,
    TopologyClass,
    actual_mst,
    analyze,
    available_solvers,
    classify_topology,
    compile_td,
    degradation_ratio,
    fixed_qs_mst,
    get_solver,
    ideal_mst,
    minimal_fixed_q,
    mst,
    size_queues,
)
from .analysis import Context, get_context
from .engine import (
    AnalysisEngine,
    Checkpoint,
    EngineStats,
    analyze_many,
    run_checkpointed,
)
from .faults import (
    FaultSpec,
    StallSchedule,
    build_schedule,
    check_invariants,
    run_campaign,
)
from .gen import GeneratorConfig, generate_lis, mesh_lis, torus_lis
from .lis import (
    RtlSimulator,
    ShellBehavior,
    TraceSimulator,
    crossvalidate,
    measured_throughput,
    simulate_trace,
)
__version__ = "1.10.0"

# The vectorized backend, the schedule oracle and the stochastic layer
# need numpy, which is an optional dependency; resolve their names
# lazily so `import repro` works without it.  The declarative frontend
# resolves lazily too, keeping `import repro` free of its module tree.
_SIM_EXPORTS = {"BatchSimulator", "FastSimulator", "simulate_fast"}
_DSL_EXPORTS = {
    "Channel",
    "Port",
    "SystemBuilder",
    "SystemDecl",
    "crosscheck_rtl",
    "export_rtl",
    "shell",
    "system",
}
_SCHEDULE_EXPORTS = {"ScheduleOracle", "derive_schedule"}
_SERVER_EXPORTS = {
    "AnalysisServer",
    "ServerClient",
    "ServerConfig",
    "QueueModel",
    "RetryPolicy",
}
_STOCHASTIC_EXPORTS = {
    "MonteCarloResult",
    "StochasticSpec",
    "TailCurve",
    "TailEstimate",
    "arrival_envelope",
    "bernoulli_stalls",
    "burst_stalls",
    "estimate_tails",
    "periodic_stalls",
    "run_monte_carlo",
    "tail_curve",
}


def __getattr__(name):
    if name in _SIM_EXPORTS:
        from . import sim

        return getattr(sim, name)
    if name in _DSL_EXPORTS:
        from . import dsl

        return getattr(dsl, name)
    if name in _SCHEDULE_EXPORTS:
        from . import schedule

        return getattr(schedule, name)
    if name in _STOCHASTIC_EXPORTS:
        from . import stochastic

        return getattr(stochastic, name)
    if name in _SERVER_EXPORTS:
        from . import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AnalysisEngine",
    "AnalysisReport",
    "AnalysisServer",
    "BatchSimulator",
    "Channel",
    "Checkpoint",
    "Context",
    "EngineStats",
    "FastSimulator",
    "FaultSpec",
    "GeneratorConfig",
    "LisGraph",
    "MarkedGraph",
    "MonteCarloResult",
    "Port",
    "QsSolution",
    "QueueModel",
    "RetryPolicy",
    "RtlSimulator",
    "ScheduleOracle",
    "ServerClient",
    "ServerConfig",
    "ShellBehavior",
    "Solver",
    "StallSchedule",
    "StochasticSpec",
    "SystemBuilder",
    "SystemDecl",
    "TailCurve",
    "TailEstimate",
    "TdKernel",
    "ThroughputResult",
    "TopologyClass",
    "TraceSimulator",
    "actual_mst",
    "analyze",
    "analyze_many",
    "arrival_envelope",
    "available_solvers",
    "bernoulli_stalls",
    "build_schedule",
    "burst_stalls",
    "check_invariants",
    "classify_topology",
    "compile_td",
    "crosscheck_rtl",
    "crossvalidate",
    "degradation_ratio",
    "derive_schedule",
    "estimate_tails",
    "export_rtl",
    "fixed_qs_mst",
    "generate_lis",
    "get_context",
    "get_solver",
    "ideal_mst",
    "measured_throughput",
    "mesh_lis",
    "minimal_fixed_q",
    "mst",
    "periodic_stalls",
    "run_campaign",
    "run_checkpointed",
    "run_monte_carlo",
    "shell",
    "simulate_fast",
    "simulate_trace",
    "size_queues",
    "system",
    "tail_curve",
    "torus_lis",
    "__version__",
]
