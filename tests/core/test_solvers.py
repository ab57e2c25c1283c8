"""Tests for the heuristic, exact, and fixed queue-sizing solvers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ExactTimeout,
    LisGraph,
    QsSolution,
    actual_mst,
    fixed_qs_mst,
    fixed_qs_profile,
    get_solver,
    ideal_mst,
    minimal_fixed_q,
    size_queues,
)
from repro.core.token_deficit import TokenDeficitInstance
from repro.core.cycles import CycleRecord
from repro.gen import fig1_lis, fig15_lis, ring_lis, tree_lis


def make_instance(deficits, sets):
    n = max(deficits) + 1 if deficits else 0
    cycles = [
        CycleRecord(places=(), tokens=0, channels=frozenset(), node_path=(i,))
        for i in range(n)
    ]
    return TokenDeficitInstance(
        deficits=dict(deficits),
        sets={k: set(v) for k, v in sets.items()},
        cycles=cycles,
    )


@st.composite
def td_instances(draw):
    """Random feasible TD instances (every cycle covered by >= 1 edge)."""
    n_cycles = draw(st.integers(min_value=1, max_value=5))
    n_edges = draw(st.integers(min_value=1, max_value=5))
    deficits = {
        i: draw(st.integers(min_value=1, max_value=3)) for i in range(n_cycles)
    }
    sets = {}
    for e in range(n_edges):
        covered = draw(
            st.sets(st.integers(min_value=0, max_value=n_cycles - 1))
        )
        if covered:
            sets[e] = covered
    # Guarantee coverage of every cycle.
    for i in range(n_cycles):
        if not any(i in s for s in sets.values()):
            sets.setdefault(0, set()).add(i)
    return make_instance(deficits, sets)


def solve(name, instance, **options):
    """Residual weights of ``instance`` from the registered solver ``name``."""
    weights, _stats = get_solver(name).solve_instance(instance, **options)
    return weights


def brute_force_optimum(instance, limit=12):
    """Smallest total weight solving the instance, by exhaustive search."""
    import itertools

    channels = sorted(instance.sets)
    for total in range(limit + 1):
        for combo in itertools.combinations_with_replacement(channels, total):
            weights = {}
            for ch in combo:
                weights[ch] = weights.get(ch, 0) + 1
            if instance.is_solution(weights):
                return total
    raise AssertionError("no solution within limit")


# ----------------------------------------------------------------------
# Heuristic
# ----------------------------------------------------------------------
def test_heuristic_trivial_instance():
    assert solve("heuristic", make_instance({}, {})) == {}


def test_heuristic_single_cycle():
    inst = make_instance({0: 2}, {10: {0}, 11: {0}})
    weights = inst.merge_forced(solve("heuristic", inst))
    assert sum(weights.values()) == 2
    assert inst.is_solution(weights)


def test_heuristic_shared_edge_preferred():
    # Edge 11 covers both cycles; optimal cost 2 via 11 alone.
    inst = make_instance({0: 2, 1: 2}, {10: {0}, 11: {0, 1}, 12: {1}})
    weights = solve("heuristic", inst)
    assert inst.is_solution(weights)
    assert sum(weights.values()) <= 4  # never worse than per-cycle fixing


def test_heuristic_is_feasible_and_deterministic():
    inst = make_instance(
        {0: 1, 1: 2, 2: 1}, {5: {0, 1}, 6: {1, 2}, 7: {2}}
    )
    first = solve("heuristic", inst)
    second = solve("heuristic", inst)
    assert first == second
    assert inst.is_solution(first)


@given(td_instances())
@settings(max_examples=80, deadline=None)
def test_heuristic_always_feasible_and_geq_exact(inst):
    optimum = brute_force_optimum(inst)
    for name in ("heuristic", "heuristic-ref"):
        heuristic = solve(name, inst)
        assert inst.is_solution(heuristic)
        assert sum(heuristic.values()) >= optimum


# ----------------------------------------------------------------------
# Exact
# ----------------------------------------------------------------------
def test_exact_trivial_instance():
    for name in ("exact", "exact-ref"):
        assert solve(name, make_instance({}, {})) == {}


def test_exact_beats_or_matches_heuristic():
    inst = make_instance({0: 2, 1: 2}, {10: {0}, 11: {0, 1}, 12: {1}})
    weights = solve("exact", inst)
    assert sum(weights.values()) == 2
    assert inst.is_solution(weights)


@given(td_instances())
@settings(max_examples=60, deadline=None)
def test_exact_matches_brute_force(inst):
    optimum = brute_force_optimum(inst)
    for name in ("exact", "exact-ref"):
        weights = solve(name, inst)
        assert inst.is_solution(weights)
        assert sum(weights.values()) == optimum


def test_exact_timeout_raises():
    # A dense instance with a deadline in the past must raise promptly.
    deficits = {i: 3 for i in range(12)}
    sets = {e: {i for i in range(12) if (i + e) % 3} for e in range(12)}
    inst = make_instance(deficits, sets)
    for name in ("exact", "exact-ref"):
        with pytest.raises(ExactTimeout):
            solve(name, inst, timeout=-1.0)


# ----------------------------------------------------------------------
# Fixed QS
# ----------------------------------------------------------------------
def test_fixed_qs_mst_does_not_mutate():
    lis = fig1_lis()
    assert fixed_qs_mst(lis, 2) == 1
    assert lis.queue(0) == 1  # untouched


def test_fixed_qs_profile_monotone():
    lis = fig15_lis()
    profile = fixed_qs_profile(lis, range(1, 5))
    values = [profile[q] for q in sorted(profile)]
    assert values == sorted(values)
    assert values[-1] == Fraction(5, 6)


def test_minimal_fixed_q():
    assert minimal_fixed_q(fig1_lis()) == 2
    assert minimal_fixed_q(tree_lis(depth=2, relays_per_channel=3)) == 1
    assert minimal_fixed_q(fig15_lis()) == 2


def test_minimal_fixed_q_with_insufficient_cap():
    lis = fig1_lis()
    lis.insert_relay(0, 3)  # now needs q = 5 on the lower path
    with pytest.raises(ValueError):
        minimal_fixed_q(lis, q_max=2)


def test_adversarial_fixed_q_construction():
    """Section VIII-B: Fig. 2 plus (q-1) extra relay stations on the
    upper channel defeats fixed queues of size q."""
    for q in (2, 3):
        lis = fig1_lis()
        lis.insert_relay(0, q - 1)  # upper channel now has q relays
        assert fixed_qs_mst(lis, q) < 1
        assert fixed_qs_mst(lis, q + 1) == 1


# ----------------------------------------------------------------------
# size_queues end-to-end
# ----------------------------------------------------------------------
def test_size_queues_fig1_both_methods():
    for method in ("heuristic", "exact"):
        sol = size_queues(fig1_lis(), method=method)
        assert isinstance(sol, QsSolution)
        assert sol.extra_tokens == {1: 1}
        assert sol.cost == 1
        assert sol.restores_target
        assert sol.method == method


def test_size_queues_fig15():
    sol = size_queues(fig15_lis(), method="exact")
    assert sol.cost == 2
    assert sol.extra_tokens == {5: 1, 6: 1}
    assert sol.achieved == Fraction(5, 6)


def test_size_queues_nothing_to_do():
    sol = size_queues(ring_lis(4))
    assert sol.cost == 0 and sol.extra_tokens == {}
    assert sol.achieved == 1


def test_size_queues_validates_arguments():
    with pytest.raises(ValueError):
        size_queues(fig1_lis(), method="annealing")
    with pytest.raises(ValueError):
        size_queues(fig1_lis(), collapse="sometimes")
    with pytest.raises(ValueError):
        size_queues(fig1_lis(), target=Fraction(3, 2))
    with pytest.raises(ValueError):
        size_queues(fig1_lis(), target=Fraction(0))


def test_size_queues_collapse_modes():
    lis = fig1_lis()
    auto = size_queues(lis, collapse="auto")
    never = size_queues(lis, collapse="never")
    assert auto.simplified and not never.simplified
    assert auto.cost == never.cost == 1
    assert auto.extra_tokens == never.extra_tokens


def test_size_queues_heuristic_cost_geq_exact():
    lis = fig15_lis()
    h = size_queues(lis, method="heuristic")
    e = size_queues(lis, method="exact")
    assert h.cost >= e.cost
    assert h.restores_target and e.restores_target


def test_size_queues_partial_target():
    """Restoring only 3/4 on Fig. 15 costs nothing (already 3/4)."""
    sol = size_queues(fig15_lis(), target=Fraction(3, 4))
    assert sol.cost == 0
    assert sol.achieved >= Fraction(3, 4)


@given(
    upper_relays=st.integers(min_value=1, max_value=3),
    lower_relays=st.integers(min_value=0, max_value=3),
    q=st.integers(min_value=1, max_value=2),
)
@settings(max_examples=30, deadline=None)
def test_size_queues_always_restores_on_two_path_systems(
    upper_relays, lower_relays, q
):
    lis = LisGraph(default_queue=q)
    lis.add_channel("A", "B", relays=upper_relays)
    lis.add_channel("A", "B", relays=lower_relays)
    for method in ("heuristic", "exact"):
        sol = size_queues(lis, method=method)
        assert sol.restores_target
        assert actual_mst(lis, sol.extra_tokens).mst == ideal_mst(lis).mst
