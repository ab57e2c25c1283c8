"""Static core-firing schedules (the Casu--Macchiarulo alternative).

Section II of the paper discusses a different way to sidestep queue
sizing entirely: instead of reacting to backpressure at run time,
*schedule* every core's firings statically so that no queue can ever
overflow, and strip the backpressure wires.  This works for closed
systems whose global behaviour can be analyzed in advance -- exactly
the systems whose marked graphs are strongly connected and live -- but
not for open systems fed by an environment with a dynamically variable
rate (the reason the paper sticks to queue sizing).

A live marked graph under synchronous step semantics is a
deterministic finite system, so its marking sequence is eventually
periodic: a transient prefix, then a steady-state period.  Within the
period every transition of a strongly connected system fires the same
number of times (the classical repetition-vector property), so the
schedule's rate equals the MST.  Both schedules here, practical and
ideal, are that decomposition: the
:class:`~repro.schedule.ScheduleOracle` of :mod:`repro.schedule`,
taken over the doubled or the ideal lowering.

The derived schedule is *admissible by construction* (every scheduled
firing was enabled in the generating run) and can drive a
backpressure-free implementation whose per-channel buffering equals
the peak queue occupancy observed along the run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .lis_graph import LisGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..schedule.oracle import ScheduleOracle

__all__ = [
    "ScheduleError",
    "schedule_lis",
    "simulation_driven_sizing",
]


class ScheduleError(Exception):
    """Raised when no periodic schedule exists within the step budget."""


def schedule_lis(
    lis: LisGraph,
    practical: bool = True,
    max_steps: int = 10_000,
    extra_tokens: dict[int, int] | None = None,
) -> "ScheduleOracle":
    """Schedule a LIS.

    With ``practical=True`` the schedule is derived from the doubled
    marked graph (finite queues as configured, plus any ``extra_tokens``
    queue-sizing assignment) -- it reproduces exactly what the
    backpressure protocol would do, so replacing the protocol with this
    schedule is behaviour-preserving.  This is
    :func:`repro.schedule.derive_schedule`.  With ``practical=False``
    the same walk runs over the ideal system (infinite queues); its
    :meth:`~repro.schedule.ScheduleOracle.max_queue_occupancy` then
    reveals the buffering a schedule-based, backpressure-free
    implementation needs.
    """
    from ..schedule.oracle import _walk, derive_schedule
    from ..sim.compile import compile_lis

    if practical:
        return derive_schedule(lis, extra_tokens, max_steps)
    if extra_tokens:
        raise ScheduleError(
            "extra queue tokens are meaningless on the ideal "
            "(infinite-queue) system"
        )
    return _walk(compile_lis(lis, mg=lis.ideal_marked_graph()), None, max_steps)


def simulation_driven_sizing(
    lis: LisGraph, max_steps: int = 10_000
) -> dict[int, int]:
    """Queue sizes from an ideal-system simulation (Lu--Koh flavour).

    Schedules the *ideal* LIS (no backpressure) and reads off, per
    channel, the peak occupancy of its queue: the final hop into the
    consumer shell.  Setting each queue to that peak guarantees the
    practical system never exerts backpressure along the ideal
    execution, so its MST equals the ideal MST -- the
    simulation-driven counterpart of the paper's analytic queue sizing,
    typically costlier in total queue slots than the targeted
    token-deficit solutions.

    Returns ``{channel id: queue capacity}`` (>= 1 each).  Raises
    :class:`ScheduleError` for systems with unbounded accumulation
    (mismatched SCC rates), where no finite sizing reproduces the
    ideal behaviour.
    """
    oracle = schedule_lis(lis, practical=False, max_steps=max_steps)
    return {
        channel: max(1, peak)
        for channel, peak in oracle.max_queue_occupancy().items()
    }
