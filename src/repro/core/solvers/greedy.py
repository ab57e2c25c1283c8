"""A greedy set-cover queue-sizing solver.

The token-deficit problem is a covering problem, so the classical
greedy rule applies: repeatedly add one token to the sizable edge
whose coverage helps the most still-deficient cycles.  This is *not*
the paper's heuristic (Section VII-B starts from a feasible assignment
and descends); it serves as an independent baseline with the textbook
H(n)-approximation guarantee, and the ablation benchmarks compare the
two greedy philosophies against the exact optimum.
"""

from __future__ import annotations

from .. import token_deficit as td
from .kernel import empty_stats

__all__ = ["solve_td_greedy_instance"]


def solve_td_greedy_instance(
    instance: td.TokenDeficitInstance, *, timeout: float | None = None
) -> tuple[dict[int, int], dict]:
    """Normalized registry signature: ``(weights, stats)``.

    ``timeout`` is accepted for signature uniformity but not consulted
    (the cover loop terminates in at most total-deficit iterations).
    The stats carry the uniform zero-valued search counters so every
    registry solver renders in one ``repro stats`` table.
    """
    stats = empty_stats()
    stats["backend"] = "reference"
    return _cover(instance), stats


def _cover(instance: td.TokenDeficitInstance) -> dict[int, int]:
    """Each iteration grants one token to the channel covering the
    largest number of cycles with positive residual deficit (ties
    broken by the smallest channel id, for determinism), until nothing
    is deficient.
    """
    residual = dict(instance.deficits)
    weights: dict[int, int] = {}
    while residual:
        best_channel = None
        best_gain = 0
        for channel in sorted(instance.sets):
            gain = sum(
                1 for idx in instance.sets[channel] if idx in residual
            )
            if gain > best_gain:
                best_gain, best_channel = gain, channel
        if best_channel is None:
            raise td.InfeasibleError(
                "deficient cycles remain with no covering channel"
            )
        weights[best_channel] = weights.get(best_channel, 0) + 1
        for idx in list(instance.sets[best_channel]):
            if idx not in residual:
                continue
            residual[idx] -= 1
            if residual[idx] <= 0:
                del residual[idx]
    return weights
