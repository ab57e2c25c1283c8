"""An (M)ILP reference solver for queue sizing.

Previous work (Lu & Koh, ICCAD'03 / TCAD'06) solves queue sizing with
mixed integer linear programming; the paper positions its
cycle-correlation approach against that baseline.  For comparison and
cross-validation, this module formulates the token-deficit problem as
the natural covering integer program

    minimize    sum_e w_e
    subject to  sum_{e : cycle c crosses e} w_e  >=  deficit(c)
                w_e >= 0, integer

and solves it by branch-and-bound over LP relaxations
(:func:`scipy.optimize.linprog`, HiGHS).  The LP relaxation also
yields a fractional lower bound, used by tests and the ablation
benchmarks to bracket the heuristic.

This module is optional: it is the only part of the library that
imports :mod:`scipy`, and it degrades with a clear error when scipy is
unavailable.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .. import token_deficit as td
from .exact import ExactTimeout
from .kernel import compile_td, empty_stats

__all__ = [
    "MilpOutcome",
    "lp_lower_bound",
    "solve_td_milp_instance",
]

_EPS = 1e-6


def _require_scipy():
    try:
        from scipy.optimize import linprog
    except ImportError as exc:  # pragma: no cover - scipy present in CI
        raise ImportError(
            "the MILP reference solver requires scipy; install it or use "
            "method='exact'"
        ) from exc
    return linprog


@dataclass(frozen=True)
class MilpOutcome:
    """Result of the branch-and-bound ILP solve (residual problem).

    Attributes:
        weights: Optimal integer weights (channel id -> tokens).
        cost: Total tokens (== sum of weights).
        lp_bound: The root LP relaxation's optimal value.
        nodes_explored: Branch-and-bound nodes solved.
        batch_checks: Kernel batch-feasibility rows spent validating
            the ceil-rounded root-LP warm start.
    """

    weights: dict[int, int]
    cost: int
    lp_bound: float
    nodes_explored: int
    batch_checks: int = 0


def _build_rows(instance: td.TokenDeficitInstance):
    """Constraint matrix rows of the covering LP."""
    channels = sorted(instance.sets)
    index = {ch: i for i, ch in enumerate(channels)}
    rows = []
    rhs = []
    for cycle_idx, deficit in instance.deficits.items():
        row = [0.0] * len(channels)
        for channel in instance.covering_channels(cycle_idx):
            row[index[channel]] = -1.0  # linprog uses A_ub x <= b_ub
        rows.append(row)
        rhs.append(-float(deficit))
    return channels, rows, rhs


def lp_lower_bound(instance: td.TokenDeficitInstance) -> float:
    """Optimal value of the fractional relaxation (0 when trivial).

    Any integer solution costs at least this much; the bound excludes
    the instance's forced weights.
    """
    if instance.is_trivial:
        return 0.0
    linprog = _require_scipy()
    channels, rows, rhs = _build_rows(instance)
    result = linprog(
        c=[1.0] * len(channels),
        A_ub=rows,
        b_ub=rhs,
        bounds=[(0, None)] * len(channels),
        method="highs",
    )
    if not result.success:  # pragma: no cover - covering LPs are feasible
        raise RuntimeError(f"LP relaxation failed: {result.message}")
    return float(result.fun)


def solve_td_milp_instance(
    instance: td.TokenDeficitInstance,
    *,
    timeout: float | None = None,
) -> tuple[dict[int, int], dict]:
    """Normalized registry signature: ``(weights, stats)``."""
    outcome = _branch_and_bound(instance, timeout=timeout)
    stats = empty_stats()
    stats["nodes_explored"] = outcome.nodes_explored
    stats["batch_checks"] = outcome.batch_checks
    stats["lp_bound"] = outcome.lp_bound
    stats["backend"] = "milp"
    return outcome.weights, stats


def _branch_and_bound(
    instance: td.TokenDeficitInstance,
    timeout: float | None = None,
) -> MilpOutcome:
    """Minimum-cost integer solution via LP-based branch and bound.

    Branches on the most fractional variable of each relaxation;
    prunes with ``ceil(LP value) >= incumbent``.  Raises
    :class:`~repro.core.solvers.exact.ExactTimeout` on expiry of
    ``timeout`` (wall-clock seconds).
    """
    if instance.is_trivial:
        return MilpOutcome(weights={}, cost=0, lp_bound=0.0, nodes_explored=0)
    linprog = _require_scipy()
    channels, rows, rhs = _build_rows(instance)
    n = len(channels)
    deadline = None if timeout is None else time.monotonic() + timeout

    # Incumbent from the trivially feasible per-channel max assignment.
    from .heuristic import _descend

    incumbent = _descend(instance)
    best_cost = sum(incumbent.values())
    best = {ch: incumbent.get(ch, 0) for ch in channels}

    kern = compile_td(instance)
    batch_checks = 0
    root_bound: float | None = None
    nodes = 0
    # Each frame: (lower_bounds, upper_bounds) per variable.
    stack: list[tuple[list[float], list[float | None]]] = [
        ([0.0] * n, [None] * n)
    ]
    while stack:
        if deadline is not None and time.monotonic() > deadline:
            raise ExactTimeout
        lo, hi = stack.pop()
        result = linprog(
            c=[1.0] * n,
            A_ub=rows,
            b_ub=rhs,
            bounds=list(zip(lo, hi)),
            method="highs",
        )
        nodes += 1
        if root_bound is None:
            root_bound = float(result.fun) if result.success else math.inf
            if result.success:
                # Warm start: ceil-rounding the root relaxation of a
                # covering LP is always feasible; the kernel's batch
                # check validates the candidate before it replaces the
                # descent incumbent.
                candidate = [math.ceil(xi - _EPS) for xi in result.x]
                before = kern.stats.batch_checks
                feasible = bool(
                    kern.check_batch(
                        [
                            {
                                ch: w
                                for ch, w in zip(channels, candidate)
                                if w
                            }
                        ]
                    )[0]
                )
                batch_checks += kern.stats.batch_checks - before
                if feasible and sum(candidate) < best_cost:
                    best_cost = sum(candidate)
                    best = dict(zip(channels, candidate))
        if not result.success:
            continue  # infeasible branch
        value = float(result.fun)
        if math.ceil(value - _EPS) >= best_cost:
            continue  # cannot beat the incumbent
        x = result.x
        # Most fractional variable.
        frac_idx = -1
        frac_dist = _EPS
        for i, xi in enumerate(x):
            dist = abs(xi - round(xi))
            if dist > frac_dist:
                frac_dist, frac_idx = dist, i
        if frac_idx < 0:
            # Integral optimum for this node.
            cost = round(value)
            if cost < best_cost:
                best_cost = cost
                best = {
                    ch: int(round(xi)) for ch, xi in zip(channels, x)
                }
            continue
        xi = x[frac_idx]
        down_hi = list(hi)
        down_hi[frac_idx] = math.floor(xi)
        up_lo = list(lo)
        up_lo[frac_idx] = math.ceil(xi)
        stack.append((list(lo), down_hi))
        stack.append((up_lo, list(hi)))

    weights = {ch: w for ch, w in best.items() if w > 0}
    return MilpOutcome(
        weights=weights,
        cost=best_cost,
        lp_bound=root_bound or 0.0,
        nodes_explored=nodes,
        batch_checks=batch_checks,
    )
