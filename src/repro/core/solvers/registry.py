"""The queue-sizing solver registry.

Every solver is registered under a short name with one normalized
instance-level signature::

    fn(instance: TokenDeficitInstance, *, timeout: float | None = None)
        -> tuple[dict[int, int], dict]

returning the residual weights plus a stats dict (``nodes_explored``,
``backend``, ... -- solver specific).  :func:`get_solver` is the one
lookup used by :func:`~repro.core.solvers.size_queues`, the analysis
engine, and the benchmarks; third-party solvers plug in through
:func:`register_solver` and immediately work everywhere a method name
is accepted.
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

__all__ = ["Solver", "available_solvers", "get_solver", "register_solver"]

InstanceSolver = Callable[..., "tuple[dict[int, int], dict]"]


@dataclass(frozen=True)
class Solver:
    """A named queue-sizing algorithm.

    Attributes:
        name: Registry key (``size_queues(..., method=name)``).
        fn: The normalized instance-level solver.
        description: One-line summary shown by diagnostics.
    """

    name: str
    fn: InstanceSolver = field(repr=False)
    description: str = ""

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


_REGISTRY: dict[str, Solver] = {}


def register_solver(
    name: str,
    fn: InstanceSolver,
    description: str = "",
    overwrite: bool = False,
) -> Solver:
    """Register ``fn`` under ``name``; returns the :class:`Solver`."""
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"solver {name!r} already registered")
    solver = Solver(name=name, fn=fn, description=description)
    _REGISTRY[name] = solver
    return solver


def get_solver(name: str) -> Solver:
    """Look up a registered solver by name (ValueError when unknown)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown method {name!r} (available: {known})"
        ) from None


def available_solvers() -> tuple[str, ...]:
    """Registered solver names, sorted."""
    return tuple(sorted(_REGISTRY))


register_solver(
    "heuristic",
    solve_td_heuristic_instance,
    description="Section VII-B decrement-and-test descent (bitset kernel)",
)
register_solver(
    "heuristic-ref",
    solve_td_heuristic_reference_instance,
    description="pure-Python reference descent (kernel oracle)",
)
register_solver(
    "greedy",
    solve_td_greedy_instance,
    description="textbook set-cover marginal coverage",
)
register_solver(
    "exact",
    solve_td_exact_instance,
    description="binary search + branch and bound (optimal, bitset kernel)",
)
register_solver(
    "exact-ref",
    solve_td_exact_reference_instance,
    description="pure-Python reference exact search (kernel oracle)",
)
