"""Tests for static scheduling and simulation-driven queue sizing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LisGraph, actual_mst, ideal_mst
from repro.core.scheduling import (
    ScheduleError,
    schedule_lis,
    simulation_driven_sizing,
)
from repro.gen import (
    fig1_lis,
    fig15_lis,
    named_system,
    ring_lis,
    uplink_downlink_lis,
)
from repro.lis import TraceSimulator
from tests.strategies import lis_graphs


def test_schedule_budget_exhaustion_raises():
    """Unbounded accumulation (fast SCC feeding slow) never repeats."""
    lis = uplink_downlink_lis()
    with pytest.raises(ScheduleError):
        schedule_lis(lis, practical=False, max_steps=200)


def test_practical_schedule_rate_equals_practical_mst():
    for lis in (fig1_lis(), fig15_lis(), ring_lis(4, relays=2)):
        schedule = schedule_lis(lis, practical=True)
        expected = actual_mst(lis).mst
        probe = lis.shells()[0]
        assert schedule.throughput(probe) == expected


def test_ideal_schedule_rate_equals_ideal_mst():
    lis = fig15_lis()
    schedule = schedule_lis(lis, practical=False)
    assert schedule.throughput("A") == ideal_mst(lis).mst == Fraction(5, 6)


def test_schedule_matches_simulator_firings():
    """The schedule replays exactly the simulator's firing pattern."""
    lis = fig1_lis()
    schedule = schedule_lis(lis, practical=True)
    sim = TraceSimulator(lis)
    sim.run(30)
    for shell in ("A", "B"):
        assert schedule.firing_plan(shell, 30) == sim.trace.fired[shell]


def test_schedule_lis_with_extra_tokens_matches_sized_mst():
    from repro.core import size_queues

    lis = fig15_lis()
    fix = size_queues(lis, method="exact").extra_tokens
    schedule = schedule_lis(lis, practical=True, extra_tokens=fix)
    assert schedule.throughput("A") == actual_mst(lis, fix).mst == Fraction(5, 6)


def test_schedule_lis_rejects_extra_tokens_on_ideal_system():
    with pytest.raises(ScheduleError, match="ideal"):
        schedule_lis(fig15_lis(), practical=False, extra_tokens={0: 1})


def test_schedule_words_agree_with_oracle():
    """The pure-Python reference and the compiled schedule recover the
    same steady-state words and transient."""
    from repro.schedule import derive_schedule_reference

    lis = fig15_lis()
    schedule = schedule_lis(lis, practical=True)
    oracle = derive_schedule_reference(lis)
    assert schedule.transient == oracle.transient
    assert schedule.hyperperiod == oracle.hyperperiod
    for shell in lis.shells():
        assert schedule.firing_word(shell) == oracle.firing_word(shell)


def test_simulation_driven_sizing_restores_fig1():
    lis = fig1_lis()
    sizes = simulation_driven_sizing(lis)
    sized = lis.copy()
    for cid, q in sizes.items():
        sized.set_queue(cid, q)
    assert actual_mst(sized).mst == ideal_mst(lis).mst == 1
    # The lower channel needs the extra slot; the upper does not.
    assert sizes == {0: 1, 1: 2}


def test_simulation_driven_sizing_restores_fig15():
    lis = fig15_lis()
    sizes = simulation_driven_sizing(lis)
    assert sizes == {cid: 1 for cid in lis.channel_ids()} | {5: 2, 6: 2}
    sized = lis.copy()
    for cid, q in sizes.items():
        sized.set_queue(cid, q)
    assert actual_mst(sized).mst == Fraction(5, 6)


def test_simulation_driven_sizing_restores_fig19():
    lis = named_system("fig19")
    sizes = simulation_driven_sizing(lis)
    assert sizes == {cid: 1 for cid in lis.channel_ids()} | {
        11: 3,
        12: 2,
        24: 2,
        25: 2,
    }
    sized = lis.copy()
    for cid, q in sizes.items():
        sized.set_queue(cid, q)
    assert actual_mst(sized).mst == ideal_mst(lis).mst


def test_simulation_driven_sizing_cost_vs_analytic():
    """The simulation-driven sizes are valid but not cheaper than the
    exact token-deficit solution."""
    from repro.core import size_queues

    lis = fig15_lis()
    sizes = simulation_driven_sizing(lis)
    empirical_extra = sum(q - lis.queue(cid) for cid, q in sizes.items())
    exact = size_queues(lis, method="exact")
    assert empirical_extra >= exact.cost


def test_simulation_driven_sizing_unbounded_raises():
    with pytest.raises(ScheduleError):
        simulation_driven_sizing(uplink_downlink_lis(), max_steps=200)


@given(
    n=st.integers(min_value=2, max_value=5),
    relays=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=25, deadline=None)
def test_scheduled_rate_matches_mst_on_rings(n, relays):
    lis = ring_lis(n, relays)
    schedule = schedule_lis(lis, practical=True)
    assert schedule.throughput("s0") == actual_mst(lis).mst


@given(
    upper=st.integers(min_value=0, max_value=3),
    lower=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=25, deadline=None)
def test_simulation_driven_sizing_always_restores_two_path(upper, lower):
    lis = LisGraph()
    lis.add_channel("A", "B", relays=upper)
    lis.add_channel("A", "B", relays=lower)
    sizes = simulation_driven_sizing(lis)
    sized = lis.copy()
    for cid, q in sizes.items():
        sized.set_queue(cid, q)
    assert actual_mst(sized).mst == ideal_mst(lis).mst


def assert_ideal_schedule_matches_unbounded_simulator(lis):
    """The ideal schedule replays the unbounded (no backpressure)
    simulator: every node's firings, and every queue's peak."""
    oracle = schedule_lis(lis, practical=False)
    clocks = oracle.transient + 2 * oracle.hyperperiod
    sim = TraceSimulator(lis, bounded=False)
    sim.run(clocks)
    for node in oracle.node_names:
        assert oracle.firing_plan(node, clocks) == sim.trace.fired[node], node
    assert oracle.max_queue_occupancy() == sim.max_queue_occupancy()


@pytest.mark.parametrize(
    "make",
    [
        fig1_lis,
        fig15_lis,
        lambda: ring_lis(5, relays=3),
        lambda: named_system("fig19"),
    ],
    ids=["fig1", "fig15", "ring5-r3", "fig19"],
)
def test_ideal_schedule_matches_unbounded_simulator(make):
    assert_ideal_schedule_matches_unbounded_simulator(make())


@given(lis=lis_graphs())
@settings(max_examples=40, deadline=None)
def test_ideal_schedule_matches_unbounded_simulator_property(lis):
    try:
        assert_ideal_schedule_matches_unbounded_simulator(lis)
    except ScheduleError:
        pass  # rate-mismatched SCCs: unbounded, no schedule exists
