"""Tests for the MILP (Lu--Koh-style) reference solver."""

import math

import pytest
from hypothesis import given, settings

from repro.core import size_queues
from repro.core.solvers import ExactTimeout, get_solver, lp_lower_bound
from repro.gen import fig1_lis, fig15_lis
from tests.core.test_solvers import make_instance, solve, td_instances


def test_milp_trivial_instance():
    assert solve("milp", make_instance({}, {})) == {}
    assert lp_lower_bound(make_instance({}, {})) == 0.0


def test_milp_single_cycle():
    inst = make_instance({0: 2}, {10: {0}, 11: {0}})
    weights = solve("milp", inst)
    assert sum(weights.values()) == 2
    assert inst.is_solution(weights)


def test_milp_shared_edge_instance():
    inst = make_instance({0: 2, 1: 2}, {10: {0}, 11: {0, 1}, 12: {1}})
    assert solve("milp", inst) == {11: 2}


def test_lp_bound_is_a_lower_bound_and_can_be_fractional():
    # Odd cycle cover: three cycles pairwise sharing edges; LP optimum
    # is 1.5, integer optimum 2.
    inst = make_instance(
        {0: 1, 1: 1, 2: 1},
        {10: {0, 1}, 11: {1, 2}, 12: {0, 2}},
    )
    bound = lp_lower_bound(inst)
    assert math.isclose(bound, 1.5, abs_tol=1e-6)
    weights, stats = get_solver("milp").solve_instance(inst)
    assert sum(weights.values()) == 2
    # The heuristic incumbent (cost 2) lets ceil(1.5) prune the root,
    # so the optimum is certified after a single LP solve.
    assert stats["nodes_explored"] >= 1
    assert stats["lp_bound"] <= sum(weights.values()) + 1e-9


def test_milp_timeout():
    inst = make_instance(
        {i: 2 for i in range(6)},
        {e: {i for i in range(6) if (i + e) % 2} for e in range(6)},
    )
    with pytest.raises(ExactTimeout):
        solve("milp", inst, timeout=-1.0)


@given(td_instances())
@settings(max_examples=40, deadline=None)
def test_milp_matches_exact_solver(inst):
    milp, stats = get_solver("milp").solve_instance(inst)
    cost = sum(milp.values())
    assert inst.is_solution(milp)
    assert cost == sum(solve("exact", inst).values())
    assert stats["lp_bound"] <= cost + 1e-6


def test_size_queues_milp_method():
    for lis in (fig1_lis(), fig15_lis()):
        milp = size_queues(lis, method="milp")
        exact = size_queues(lis, method="exact")
        assert milp.restores_target
        assert milp.cost == exact.cost
        assert "lp_bound" in milp.stats
