"""Queue-sizing solvers: the heuristic and exact algorithms of Section
VII-B plus fixed uniform sizing, behind one high-level entry point.

:func:`size_queues` is the one system-level entry point; it looks the
named algorithm up (:func:`get_solver`) and calls
:meth:`Solver.solve_instance` on the system's token-deficit instance,
which is also how a raw instance is solved.
"""

from __future__ import annotations

from ..token_deficit import InfeasibleError
from .exact import (
    ExactOutcome,
    ExactTimeout,
    solve_td_exact_instance,
    solve_td_exact_reference_instance,
)
from .facade import QsSolution, size_queues
from .fixed import fixed_qs_mst, fixed_qs_profile, minimal_fixed_q
from .greedy import solve_td_greedy_instance
from .heuristic import (
    solve_td_heuristic_instance,
    solve_td_heuristic_reference_instance,
)
from .kernel import KernelStats, TdKernel, compile_td
from .registry import Solver, available_solvers, get_solver

__all__ = [
    "QsSolution",
    "size_queues",
    "Solver",
    "available_solvers",
    "get_solver",
    "compile_td",
    "TdKernel",
    "KernelStats",
    "solve_td_heuristic_instance",
    "solve_td_heuristic_reference_instance",
    "solve_td_greedy_instance",
    "solve_td_exact_instance",
    "solve_td_exact_reference_instance",
    "ExactOutcome",
    "ExactTimeout",
    "InfeasibleError",
    "fixed_qs_mst",
    "fixed_qs_profile",
    "minimal_fixed_q",
]
