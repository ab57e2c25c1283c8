"""The high-level queue-sizing entry point.

:func:`size_queues` is the API most callers want: it builds the
token-deficit instance (collapsing SCCs first where the paper's rule-4
simplification applies), dispatches to the requested solver
(:func:`~repro.core.solvers.registry.get_solver`), maps the solution
back to channels of the original system, and verifies that the
restored MST matches the target.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from ..cycles import is_collapsible
from ..lis_graph import LisGraph
from ..throughput import ideal_mst
from ..token_deficit import build_td_instance
from .registry import get_solver

__all__ = ["QsSolution", "size_queues"]


@dataclass(frozen=True)
class QsSolution:
    """A queue-sizing result.

    Attributes:
        extra_tokens: Channel id -> extra queue slots (tokens added to
            that channel's shell-side backedge), in terms of the
            *original* system's channel ids.
        cost: Total extra tokens.
        target: The throughput the solution restores.
        achieved: The verified MST of the doubled graph with the
            solution applied.
        method: The name of the solver that produced it.
        simplified: Whether the SCC collapse was applied.
        cycles_enumerated: Deficient cycles the solver reasoned about.
        elapsed: Solver wall-clock time in seconds (excluding cycle
            enumeration, matching the paper's CPU-time accounting).
        enumeration_elapsed: Cycle-enumeration wall-clock time.
    """

    extra_tokens: dict[int, int]
    cost: int
    target: Fraction
    achieved: Fraction
    method: str
    simplified: bool = False
    cycles_enumerated: int = 0
    elapsed: float = 0.0
    enumeration_elapsed: float = 0.0
    stats: dict = field(default_factory=dict)

    @property
    def restores_target(self) -> bool:
        return self.achieved >= self.target

    @property
    def solver_calls(self) -> int:
        """Solver invocations behind this solution (for engine stats)."""
        return 1


def size_queues(
    lis: LisGraph,
    method: str = "heuristic",
    target: Fraction | None = None,
    timeout: float | None = None,
    max_cycles: int | None = None,
) -> QsSolution:
    """Size the queues of ``lis`` to eliminate MST degradation.

    Args:
        lis: The system (queues as configured form the baseline) -- an
            :class:`repro.analysis.Context`, so that multi-solver
            comparisons share one cycle enumeration (the ideal MST, the
            collapse, and the base lowering the verification reads are
            all served from the context's artifact cache), or a
            :class:`LisGraph`, wrapped in a private context.
        method: A solver name (:func:`available_solvers`) --
            ``"heuristic"`` (Section VII-B descent), ``"greedy"``
            (set-cover marginal coverage), ``"exact"`` (binary search +
            branch and bound), or a reference oracle.  The exact
            solvers may raise :class:`ExactTimeout`.
        target: Throughput to restore; default = the ideal MST.
        timeout: Wall-clock budget for timeout-aware solvers.
        max_cycles: Cycle-enumeration budget (raises
            :class:`~repro.graphs.CycleExplosionError` beyond it).

    SCCs are collapsed first exactly when the topology allows it
    (:func:`~repro.core.cycles.is_collapsible`: relay stations only
    between SCCs).  The MST achieved with the solution applied is
    always checked (:meth:`repro.analysis.Context.sized_mst`, cached
    per solution): one Bellman--Ford pass, plus the minimum cycle mean
    of the sized lowering only when it falls short of the ideal MST.

    Returns:
        A :class:`QsSolution` whose ``extra_tokens`` refer to channels
        of the input system.
    """
    from ...analysis import Context, ContextStats

    solver = get_solver(method)
    if not isinstance(lis, Context):
        # A private context with its own counters: one base lowering
        # serves the instance and the verification.
        lis = Context(lis, stats=ContextStats())

    goal = target if target is not None else ideal_mst(lis).mst
    if not 0 < goal <= 1:
        raise ValueError(
            f"target throughput must be in (0, 1], got {goal}"
        )

    simplified = is_collapsible(lis)
    channel_map: dict[int, int] | None = None
    work = lis
    if simplified:
        work, channel_map = lis.collapsed()

    t0 = time.monotonic()
    instance = build_td_instance(
        work, target=goal, max_cycles=max_cycles, simplify=True
    )
    t1 = time.monotonic()
    weights, stats = solver.solve_instance(instance, timeout=timeout)
    t2 = time.monotonic()

    merged = instance.merge_forced(weights)
    if channel_map is not None:
        merged = {channel_map[cid]: tokens for cid, tokens in merged.items()}

    return QsSolution(
        extra_tokens=merged,
        cost=sum(merged.values()),
        target=goal,
        achieved=lis.sized_mst(merged),
        method=solver.name,
        simplified=simplified,
        cycles_enumerated=len(instance.cycles),
        elapsed=t2 - t1,
        enumeration_elapsed=t1 - t0,
        stats=stats,
    )
