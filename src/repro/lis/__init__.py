"""Cycle-accurate executable models of latency-insensitive systems.

Two independent simulators (a data-carrying marked-graph stepper and a
structural RTL-style model), environment gates for open systems, and
measurement helpers that cross-validate the static MST analysis.
"""

from .protocol import TAU, ShellBehavior, Tau, Trace, adder, counter
from .trace_sim import TraceSimulator, simulate_trace
from .rtl_sim import RtlSimulator, simulate_rtl
from .environment import always_ready, bursty, periodic_stall, rate_limited
from .backends import (
    BACKENDS,
    SIMULATORS,
    resolve_backend,
    schedule_applies,
)
from .measurement import (
    crossvalidate,
    effective_throughput,
    measured_throughput,
    select_probe_shell,
)
from .equivalence import (
    EquivalenceReport,
    check_latency_equivalence,
    valid_stream,
)

__all__ = [
    "TAU",
    "Tau",
    "ShellBehavior",
    "Trace",
    "adder",
    "counter",
    "TraceSimulator",
    "simulate_trace",
    "RtlSimulator",
    "simulate_rtl",
    "always_ready",
    "bursty",
    "periodic_stall",
    "rate_limited",
    "BACKENDS",
    "SIMULATORS",
    "resolve_backend",
    "schedule_applies",
    "select_probe_shell",
    "crossvalidate",
    "EquivalenceReport",
    "check_latency_equivalence",
    "valid_stream",
    "measured_throughput",
    "effective_throughput",
]
