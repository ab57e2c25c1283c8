"""Exact queue sizing (Section VII-B): binary search over a bounded
search tree.

The paper's exact algorithm replicates each set so that all weights are
0/1 and then binary-searches the budget ``K`` between 1 and the
heuristic solution, answering each "is there a solution with at most K
extra tokens?" query with a depth-K search tree.  We implement the same
scheme as a depth-first search that adds one token per level: at each
node, pick the cycle with the largest residual deficit and branch on
which of its covering channels receives the next token.  Pruning: a
branch dies when its remaining budget is below the largest residual
deficit (every extra token helps a given cycle by at most one).

The worst case remains exponential -- optimal QS is NP-complete
(Section V) -- so the solver takes a wall-clock timeout and reports
whether it finished, mirroring the paper's "% Exact finished" column.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .. import token_deficit as td
from .kernel import DEADLINE_STRIDE as _DEADLINE_STRIDE
from .kernel import compile_td, empty_stats

__all__ = [
    "ExactOutcome",
    "ExactTimeout",
    "solve_td_exact_instance",
    "solve_td_exact_reference_instance",
]


class ExactTimeout(Exception):
    """The exact search exceeded its wall-clock budget.

    Attributes:
        overshoot: Seconds past the deadline when the in-DFS check
            fired (0.0 when raised between bisection probes).
    """

    def __init__(self, message: str = "", overshoot: float = 0.0) -> None:
        super().__init__(message or "exact search timed out")
        self.overshoot = overshoot


@dataclass(frozen=True)
class ExactOutcome:
    """Result of the exact search on a TD instance (residual problem).

    Attributes:
        weights: Optimal residual weights (channel id -> tokens).
        cost: Total residual tokens (== sum of weights).
        nodes_explored: Search-tree nodes visited across all K rounds.
    """

    weights: dict[int, int]
    cost: int
    nodes_explored: int


def _feasible_with_budget(
    instance: td.TokenDeficitInstance,
    budget: int,
    deadline: float | None,
    counter: list[int],
) -> dict[int, int] | None:
    """Depth-first search for a solution using at most ``budget`` tokens."""
    deficits = dict(instance.deficits)
    weights: dict[int, int] = {}

    # Precompute cycle -> covering channels once.
    covers: dict[int, tuple[int, ...]] = {
        idx: tuple(sorted(instance.covering_channels(idx)))
        for idx in deficits
    }

    def dfs(remaining: int) -> bool:
        counter[0] += 1
        if deadline is not None and counter[0] % _DEADLINE_STRIDE == 0:
            now = time.monotonic()
            if now > deadline:
                raise ExactTimeout(overshoot=now - deadline)
        # Find the worst uncovered cycle.
        worst_idx = -1
        worst = 0
        for idx, need in deficits.items():
            if need > worst:
                worst, worst_idx = need, idx
        if worst_idx < 0:
            return True
        if worst > remaining:
            return False
        for channel in covers[worst_idx]:
            weights[channel] = weights.get(channel, 0) + 1
            touched = []
            for idx in instance.sets[channel]:
                if idx in deficits:
                    deficits[idx] -= 1
                    touched.append(idx)
            emptied = [idx for idx in touched if deficits[idx] == 0]
            for idx in emptied:
                del deficits[idx]
            if dfs(remaining - 1):
                return True
            for idx in emptied:
                deficits[idx] = 0
            for idx in touched:
                deficits[idx] += 1
            weights[channel] -= 1
            if weights[channel] == 0:
                del weights[channel]
        return False

    if dfs(budget):
        return dict(weights)
    return None


def solve_td_exact_instance(
    instance: td.TokenDeficitInstance,
    *,
    timeout: float | None = None,
) -> tuple[dict[int, int], dict]:
    """Normalized registry signature: ``(weights, stats)``.

    Runs on the bitset-compiled kernel (:mod:`.kernel`).  The
    pure-Python reference search (``exact-ref``) returns the same
    optimal residual cost; the witness weights may differ between the
    two (ties in the search order).
    """
    if instance.is_trivial:
        stats = empty_stats()
        stats["backend"] = "kernel"
        stats["deadline_overshoot"] = 0.0
        return {}, stats
    kern = compile_td(instance)
    weights, kstats = kern.solve_exact(timeout=timeout)
    stats = kstats.as_dict()
    stats["backend"] = "kernel"
    stats["deadline_overshoot"] = kstats.deadline_overshoot
    return weights, stats


def solve_td_exact_reference_instance(
    instance: td.TokenDeficitInstance,
    *,
    timeout: float | None = None,
) -> tuple[dict[int, int], dict]:
    """The pure-Python reference search (registry name ``exact-ref``):
    the differential oracle the kernel is validated against."""
    outcome = _search(instance, timeout=timeout)
    stats = empty_stats()
    stats["nodes_explored"] = outcome.nodes_explored
    stats["backend"] = "reference"
    return outcome.weights, stats


def _search(
    instance: td.TokenDeficitInstance,
    timeout: float | None = None,
) -> ExactOutcome:
    """Minimum-cost solution of a TD instance's residual problem.

    Binary-searches K in ``[max residual deficit, heuristic cost]`` --
    the heuristic solution is known feasible (as in the paper) and
    feasibility is monotone in K, so the standard bisection applies.
    On expiry of ``timeout`` (wall-clock seconds) :class:`ExactTimeout`
    is raised.
    """
    from .heuristic import _descend

    deadline = None if timeout is None else time.monotonic() + timeout
    counter = [0]

    if instance.is_trivial:
        return ExactOutcome(weights={}, cost=0, nodes_explored=0)

    # No single cycle can be fixed with fewer tokens than its deficit.
    low = max(instance.deficits.values())
    high = sum(_descend(instance).values())
    best: dict[int, int] | None = None
    while low < high:
        if deadline is not None and time.monotonic() > deadline:
            raise ExactTimeout
        mid = (low + high) // 2
        found = _feasible_with_budget(instance, mid, deadline, counter)
        if found is not None:
            best = found
            high = sum(found.values())
        else:
            low = mid + 1
    if best is None or sum(best.values()) > low:
        if deadline is not None and time.monotonic() > deadline:
            raise ExactTimeout
        best = _feasible_with_budget(instance, low, deadline, counter)
        if best is None:  # pragma: no cover - upper bound is feasible
            raise RuntimeError("binary search converged on infeasible budget")
    return ExactOutcome(
        weights=best, cost=sum(best.values()), nodes_explored=counter[0]
    )
