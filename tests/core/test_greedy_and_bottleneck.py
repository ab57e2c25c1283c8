"""Tests for the greedy set-cover solver and critical-place analysis."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro.core import bottleneck_channels, size_queues
from repro.core.token_deficit import InfeasibleError
from repro.gen import fig1_lis, fig15_lis, ring_lis
from repro.graphs import (
    Digraph,
    critical_edges,
    elementary_edge_cycles,
    karp_minimum_cycle_mean,
)
from tests.core.test_solvers import make_instance, solve, td_instances


# ----------------------------------------------------------------------
# critical_edges
# ----------------------------------------------------------------------
def W(e):
    return e.data["w"]


def test_critical_edges_single_ring():
    g = Digraph()
    keys = [
        g.add_edge(0, 1, w=1),
        g.add_edge(1, 2, w=0),
        g.add_edge(2, 0, w=1),
    ]
    assert critical_edges(g, W, Fraction(2, 3)) == set(keys)


def test_critical_edges_ignores_slack_cycle():
    g = Digraph()
    tight = [g.add_edge("a", "b", w=0), g.add_edge("b", "a", w=0)]
    slack = [g.add_edge("a", "c", w=2), g.add_edge("c", "a", w=2)]
    found = critical_edges(g, W, Fraction(0))
    assert found == set(tight)
    assert not found & set(slack)


def test_critical_edges_self_loop():
    g = Digraph()
    loop = g.add_edge("x", "x", w=1)
    g.add_edge("x", "y", w=0)
    assert critical_edges(g, W, Fraction(1)) == {loop}


def test_critical_edges_rejects_wrong_mean():
    g = Digraph()
    g.add_edge(0, 1, w=1)
    g.add_edge(1, 0, w=1)
    with pytest.raises(ValueError):
        critical_edges(g, W, Fraction(2))  # larger than the true minimum


@given(td_instances())
@settings(max_examples=10, deadline=None)
def test_td_instances_strategy_smoke(inst):
    # Keep the shared strategy importable and meaningful here.
    assert isinstance(inst.deficits, dict)


@settings(max_examples=40, deadline=None)
@given(td_instances())
def test_greedy_always_feasible(inst):
    weights = solve("greedy", inst)
    assert inst.is_solution(weights)


def test_critical_edges_brute_force_agreement():
    import random

    rng = random.Random(5)
    for _ in range(25):
        g = Digraph()
        n = rng.randint(2, 5)
        for _ in range(rng.randint(2, 9)):
            g.add_edge(
                rng.randrange(n), rng.randrange(n), w=rng.randint(0, 3)
            )
        mean = karp_minimum_cycle_mean(g, W)
        if mean is None:
            continue
        expected = set()
        for cycle in elementary_edge_cycles(g):
            if Fraction(sum(W(e) for e in cycle), len(cycle)) == mean:
                expected.update(e.key for e in cycle)
        assert critical_edges(g, W, mean) == expected


# ----------------------------------------------------------------------
# bottleneck_channels
# ----------------------------------------------------------------------
def test_bottleneck_channels_fig1():
    channels = bottleneck_channels(fig1_lis())
    # The Fig. 5 critical cycle runs through the upper channel forward
    # and the lower channel's backedge.
    assert channels == {0, 1}


def test_bottleneck_channels_fig15():
    assert bottleneck_channels(fig15_lis()) == {0, 5, 6}


def test_bottleneck_empty_at_full_rate():
    assert bottleneck_channels(ring_lis(4)) == set()
    assert bottleneck_channels(fig1_lis(), extra_tokens={1: 1}) == set()


# ----------------------------------------------------------------------
# greedy solver
# ----------------------------------------------------------------------
def test_greedy_trivial():
    assert solve("greedy", make_instance({}, {})) == {}


def test_greedy_prefers_shared_edges():
    inst = make_instance({0: 1, 1: 1}, {10: {0}, 11: {0, 1}, 12: {1}})
    assert solve("greedy", inst) == {11: 1}


def test_greedy_infeasible_raises():
    inst = make_instance({0: 1}, {})
    with pytest.raises(InfeasibleError):
        solve("greedy", inst)


def test_greedy_deterministic_tie_break():
    inst = make_instance({0: 2}, {10: {0}, 11: {0}})
    assert solve("greedy", inst) == {10: 2}


@given(td_instances())
@settings(max_examples=50, deadline=None)
def test_greedy_never_beats_exact(inst):
    greedy = solve("greedy", inst)
    assert inst.is_solution(greedy)
    assert sum(greedy.values()) >= sum(solve("exact", inst).values())


def test_size_queues_greedy_method():
    for lis in (fig1_lis(), fig15_lis()):
        greedy = size_queues(lis, method="greedy")
        exact = size_queues(lis, method="exact")
        assert greedy.restores_target
        assert greedy.cost >= exact.cost
