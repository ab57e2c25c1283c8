"""The paper's heuristic queue-sizing algorithm (Section VII-B).

Given a token-deficit instance, start from the trivially feasible
assignment ``w(s_i) = max deficit among s_i's cycles`` and then walk
rounds of decrement-and-test: each unfixed edge weight is lowered by
one; if the assignment stops being a solution the decrement is undone
and that weight is *fixed*.  Rounds repeat while any weight is unfixed.

The complexity is O(|S|^2 |V| |C|) as analyzed in the paper: each
feasibility check costs O(|S||C|) and the total weight, bounded by
|S||V|, shrinks by at least one per round except the last round for
each edge.
"""

from __future__ import annotations

from .. import token_deficit as td
from .kernel import compile_td, empty_stats

__all__ = [
    "solve_td_heuristic_instance",
    "solve_td_heuristic_reference_instance",
]


def solve_td_heuristic_instance(
    instance: td.TokenDeficitInstance, *, timeout: float | None = None
) -> tuple[dict[int, int], dict]:
    """Normalized registry signature: ``(weights, stats)``.

    The descent always terminates quickly, so ``timeout`` is accepted
    for signature uniformity but not consulted.  Runs on the compiled
    kernel (incremental coverage vector), which returns bit-for-bit the
    weights of the reference descent (``heuristic-ref``).
    """
    if not instance.is_trivial:
        kern = compile_td(instance)
        stats = empty_stats()
        stats["backend"] = "kernel"
        return kern.solve_heuristic(), stats
    return solve_td_heuristic_reference_instance(instance, timeout=timeout)


def solve_td_heuristic_reference_instance(
    instance: td.TokenDeficitInstance, *, timeout: float | None = None
) -> tuple[dict[int, int], dict]:
    """The pure-Python reference descent (registry name
    ``heuristic-ref``): the differential oracle for the kernel."""
    stats = empty_stats()
    stats["backend"] = "reference"
    return _descend(instance), stats


def _descend(instance: td.TokenDeficitInstance) -> dict[int, int]:
    """Residual-problem weights ``{channel id: extra tokens}`` found by
    the descent (forced weights are *not* included; merge with
    :meth:`TokenDeficitInstance.merge_forced`)."""
    if instance.is_trivial:
        return {}

    # Initial feasible assignment: each edge covers its worst cycle alone.
    weights: dict[int, int] = {}
    for channel, cycles in instance.sets.items():
        covered = [instance.deficits[idx] for idx in cycles if idx in instance.deficits]
        weights[channel] = max(covered, default=0)
    if not instance.is_solution(weights):  # pragma: no cover - by construction
        raise td.InfeasibleError("initial max-deficit assignment infeasible")

    fixed: set[int] = set()
    # Deterministic iteration order makes runs reproducible.
    order = sorted(weights)
    while len(fixed) < len(weights):
        for channel in order:
            if channel in fixed:
                continue
            if weights[channel] == 0:
                fixed.add(channel)
                continue
            weights[channel] -= 1
            if not instance.is_solution(weights):
                weights[channel] += 1
                fixed.add(channel)
    return {ch: w for ch, w in weights.items() if w > 0}
