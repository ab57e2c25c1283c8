"""The solver table and its one system-level entry point,
``size_queues``."""

from fractions import Fraction

import pytest

from repro.core import available_solvers, get_solver, size_queues
from repro.core.token_deficit import build_td_instance
from repro.gen import fig15_lis


def test_builtin_solvers_registered():
    names = available_solvers()
    assert list(names) == sorted(names)
    assert {"exact", "greedy", "heuristic"} <= set(names)


def test_get_solver_unknown_name():
    with pytest.raises(ValueError, match="unknown method 'nope'"):
        get_solver("nope")


def test_solver_solve_accepts_unified_keywords():
    solution = size_queues(
        fig15_lis(),
        method="exact",
        target=Fraction(5, 6),
        timeout=30,
        max_cycles=100_000,
    )
    assert solution.method == "exact"
    assert solution.cost == 2
    assert solution.achieved == Fraction(5, 6)
    assert solution.restores_target


def test_solver_solve_instance_normalized_signature():
    instance = build_td_instance(fig15_lis(), simplify=True)
    for name in available_solvers():
        weights, stats = get_solver(name).solve_instance(instance, timeout=30)
        assert isinstance(weights, dict)
        assert isinstance(stats, dict)

