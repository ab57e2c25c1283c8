"""The queue-sizing solvers by name.

Every solver has one normalized instance-level signature::

    fn(instance: TokenDeficitInstance, *, timeout: float | None = None)
        -> tuple[dict[int, int], dict]

returning the residual weights plus a stats dict (``nodes_explored``,
``backend``, ... -- solver specific).  :func:`get_solver` is the one
lookup used by :func:`~repro.core.solvers.size_queues`, the analysis
engine, and the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from .exact import (
    solve_td_exact_instance,
    solve_td_exact_reference_instance,
)
from .greedy import solve_td_greedy_instance
from .heuristic import (
    solve_td_heuristic_instance,
    solve_td_heuristic_reference_instance,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..token_deficit import TokenDeficitInstance

__all__ = ["Solver", "available_solvers", "get_solver"]

InstanceSolver = Callable[..., "tuple[dict[int, int], dict]"]


@dataclass(frozen=True)
class Solver:
    """A named queue-sizing algorithm.

    Attributes:
        name: Its key (``size_queues(..., method=name)``).
        fn: The normalized instance-level solver.
    """

    name: str
    fn: InstanceSolver = field(repr=False)

    def solve_instance(
        self,
        instance: "TokenDeficitInstance",
        *,
        timeout: float | None = None,
    ) -> tuple[dict[int, int], dict]:
        """Solve a token-deficit instance's residual problem.

        Returns ``(weights, stats)``; forced weights are not included
        (merge with :meth:`TokenDeficitInstance.merge_forced`).
        """
        return self.fn(instance, timeout=timeout)


_REGISTRY: dict[str, Solver] = {
    solver.name: solver
    for solver in (
        # Section VII-B decrement-and-test descent (bitset kernel).
        Solver("heuristic", solve_td_heuristic_instance),
        # Pure-Python reference descent (the kernel's oracle).
        Solver("heuristic-ref", solve_td_heuristic_reference_instance),
        # Textbook set-cover marginal coverage.
        Solver("greedy", solve_td_greedy_instance),
        # Binary search + branch and bound (optimal, bitset kernel).
        Solver("exact", solve_td_exact_instance),
        # Pure-Python reference exact search (the kernel's oracle).
        Solver("exact-ref", solve_td_exact_reference_instance),
    )
}


def get_solver(name: str) -> Solver:
    """Look up a solver by name (ValueError when unknown)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown method {name!r} (available: {known})"
        ) from None


def available_solvers() -> tuple[str, ...]:
    """Solver names, sorted."""
    return tuple(sorted(_REGISTRY))

