"""The four throughput-measurement backends, by name.

``trace``, ``rtl`` and ``fast`` (:data:`SIMULATORS`) step the system
clock by clock -- the data-carrying reference, the structural model and
the vectorized kernel -- and honour a fault gate.  ``schedule`` reads
the exact asymptotic ``Fraction`` rate off the analytic
eventually-periodic oracle; it applies only where
:func:`schedule_applies` holds, and :func:`resolve_backend`
substitutes ``fast`` elsewhere.
:func:`~repro.lis.measurement.measured_throughput` dispatches on the
resolved name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.lis_graph import LisGraph

__all__ = [
    "BACKENDS",
    "SIMULATORS",
    "resolve_backend",
    "schedule_applies",
    "simulator_class",
]

#: The stepping simulators, each honouring a fault gate.
SIMULATORS = ("trace", "rtl", "fast")
#: Every backend name, in the order ``crossvalidate`` measures them.
BACKENDS = SIMULATORS + ("schedule",)


def schedule_applies(lis: "LisGraph", faults=None) -> bool:
    """Whether the ``schedule`` oracle can measure ``lis``: no fault
    gate, and a strongly connected doubled marked graph.

    The doubled graph is strongly connected for every weakly connected
    LIS (each channel contributes a backedge), so this only rejects
    multi-component systems, whose shells need not share a common rate.
    """
    if faults is not None:
        return False
    from ..analysis import get_context
    from ..graphs.scc import is_strongly_connected

    return is_strongly_connected(get_context(lis).doubled_master().graph)


def resolve_backend(name: str, lis: "LisGraph", faults=None) -> str:
    """The backend that will actually measure ``lis``: ``name`` itself,
    except ``fast`` for ``schedule`` where :func:`schedule_applies`
    does not hold.  ValueError for an unknown name."""
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r} (available: {', '.join(BACKENDS)})"
        )
    if name == "schedule" and not schedule_applies(lis, faults):
        return "fast"
    return name


def simulator_class(name: str) -> type:
    """The simulator class behind the ``trace``, ``rtl`` or ``fast``
    backend -- the one place a simulator is chosen by name.  Each takes
    ``(lis, behaviors, extra_tokens, faults=...)``.  ``fast`` is
    imported on demand, so ``import repro`` needs no numpy."""
    if name == "trace":
        from .trace_sim import TraceSimulator

        return TraceSimulator
    if name == "rtl":
        from .rtl_sim import RtlSimulator

        return RtlSimulator
    if name == "fast":
        from ..sim import FastSimulator

        return FastSimulator
    raise ValueError(
        f"unknown backend {name!r} (available: {', '.join(SIMULATORS)})"
    )
