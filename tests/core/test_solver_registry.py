"""The solver registry and the ``solve_td_*`` system entrypoints."""

import re
from fractions import Fraction

import pytest

from repro.core import available_solvers, get_solver, register_solver
from repro.core.solvers import (
    solve_td_exact,
    solve_td_greedy,
    solve_td_heuristic,
    solve_td_milp,
)
from repro.core.solvers.registry import _REGISTRY
from repro.core.token_deficit import build_td_instance
from repro.gen import fig1_lis, fig15_lis


def test_builtin_solvers_registered():
    names = available_solvers()
    assert list(names) == sorted(names)
    assert {"exact", "greedy", "heuristic", "milp"} <= set(names)


def test_get_solver_unknown_name():
    with pytest.raises(ValueError, match="unknown method 'nope'"):
        get_solver("nope")


def test_solver_solve_accepts_unified_keywords():
    solver = get_solver("exact")
    solution = solver.solve(
        fig15_lis(),
        target=Fraction(5, 6),
        timeout=30,
        max_cycles=100_000,
        collapse="auto",
    )
    assert solution.cost == 2
    assert solution.achieved == Fraction(5, 6)


def test_solver_solve_instance_normalized_signature():
    instance = build_td_instance(fig15_lis(), simplify=True)
    for name in available_solvers():
        weights, stats = get_solver(name).solve_instance(instance, timeout=30)
        assert isinstance(weights, dict)
        assert isinstance(stats, dict)


def test_register_custom_solver():
    def solve_nothing(instance, *, timeout=None):
        return {}, {"custom": True}

    register_solver("null", solve_nothing, description="test stub")
    try:
        assert "null" in available_solvers()
        with pytest.raises(ValueError, match="already registered"):
            register_solver("null", solve_nothing)
        register_solver("null", solve_nothing, overwrite=True)
    finally:
        _REGISTRY.pop("null", None)


@pytest.mark.parametrize(
    "name, entrypoint",
    [
        ("exact", solve_td_exact),
        ("greedy", solve_td_greedy),
        ("heuristic", solve_td_heuristic),
        ("milp", solve_td_milp),
    ],
)
def test_entrypoint_rejects_instance_naming_solve_instance(name, entrypoint):
    """The instance-passing signature is gone; the error names its
    replacement."""
    instance = build_td_instance(fig1_lis(), simplify=True)
    expected = f"get_solver('{name}').solve_instance"
    with pytest.raises(TypeError, match=re.escape(expected)):
        entrypoint(instance)


def test_entrypoint_dispatches_on_lis_graph():
    """Passing a LisGraph to a solve_td_* entrypoint routes through the
    facade and returns a full QsSolution."""
    solution = solve_td_exact(fig15_lis(), timeout=30)
    assert solution.cost == 2
    assert solution.restores_target
    assert solution.method == "exact"
    assert solve_td_heuristic(fig15_lis()).method == "heuristic"


def test_entrypoint_rejects_unknown_keywords():
    with pytest.raises(TypeError, match="unexpected keyword"):
        solve_td_exact(fig15_lis(), flavor="spicy")
