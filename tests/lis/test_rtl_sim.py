"""Tests for the structural RTL-style simulator and its equivalence to
the marked-graph trace simulator."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro.core import actual_mst, relay_name
from tests.strategies import lis_graphs
from repro.gen import fig1_lis, fig15_lis, ring_lis, tree_lis
from repro.lis import (
    TAU,
    RtlSimulator,
    ShellBehavior,
    TraceSimulator,
    adder,
    simulate_rtl,
)


def table1_behaviors():
    state = {"k": 0}

    def a_fn(_inputs):
        state["k"] += 1
        return {0: 2 * state["k"], 1: 2 * state["k"] + 1}

    return {
        "A": ShellBehavior(initial={0: 0, 1: 1}, fn=a_fn),
        "B": adder(initial=0),
    }


def test_rtl_reproduces_table1():
    lis = fig1_lis()
    lis.set_queue(1, 2)
    trace = simulate_rtl(lis, 4, table1_behaviors())
    rs = relay_name(0, 0)
    assert trace.row("A") == [0, 2, 4, 6]
    assert trace.row(rs) == [TAU, 0, 2, 4]
    assert trace.row("B") == [0, TAU, 1, 5]


def test_stop_asserted_when_queue_full():
    """A q=1 channel segment accepts the latched reset datum plus one
    queued item; stop rises when both slots are occupied."""
    sim = RtlSimulator(fig1_lis(), table1_behaviors())
    (lower_final,) = [
        q for q in sim.netlist.queues if q.channel == 1 and q.final
    ]
    assert lower_final.consumer == "B"
    assert lower_final.capacity == 2  # q + input latch
    queue = sim.queues[lower_final.index]
    assert len(queue) == 1  # reset placeholder alone: no stop
    queue.append("in-flight")
    assert len(queue) == lower_final.capacity  # stop asserted
    fired = sim.step()
    assert "A" not in fired  # the producer is held off
    assert "B" in fired


def test_stop_throttles_producer():
    """With q=1 on Fig. 1, A must periodically stall (rate 2/3)."""
    sim = RtlSimulator(fig1_lis(), table1_behaviors())
    sim.run(30)
    assert abs(sim.throughput("A", skip=3) - Fraction(2, 3)) < Fraction(1, 15)


def test_relay_station_capacity_two():
    sim = RtlSimulator(fig1_lis())
    rs_hops = [
        q
        for q in sim.netlist.queues
        if sim.netlist.node(q.consumer).kind == "relay"
    ]
    assert len(rs_hops) == 1  # the hop A -> rs on the upper channel
    assert rs_hops[0].consumer == relay_name(0, 0)
    assert rs_hops[0].capacity == 2
    assert rs_hops[0].channel == 0
    assert not sim.queues[rs_hops[0].index]  # relay stations reset void


def test_rtl_rate_matches_static_mst():
    lis = fig15_lis()
    sim = RtlSimulator(lis)
    sim.run(420)
    assert abs(
        sim.throughput("A", skip=20) - actual_mst(lis).mst
    ) < Fraction(1, 40)


def test_rtl_extra_tokens_grow_queues():
    lis = fig15_lis()
    sim = RtlSimulator(lis, extra_tokens={5: 1, 6: 1})
    sim.run(420)
    assert abs(sim.throughput("A", skip=20) - Fraction(5, 6)) < Fraction(1, 40)


def test_unknown_backend_name_rejected():
    from repro.lis import measured_throughput

    with pytest.raises(ValueError, match="unknown backend"):
        measured_throughput(fig1_lis(), "A", backend="verilog")
    # The removed simulator= alias fails before backend validation.
    with pytest.raises(TypeError, match="simulator"):
        measured_throughput(fig1_lis(), "A", simulator="verilog")


# ----------------------------------------------------------------------
# Cross-validation: the two simulators are cycle-for-cycle equivalent
# ----------------------------------------------------------------------
def assert_equivalent(lis, clocks=60):
    trace_a = TraceSimulator(lis).run(clocks)
    trace_b = RtlSimulator(lis).run(clocks)
    assert trace_a.fired == trace_b.fired


def test_equivalence_fig1():
    assert_equivalent(fig1_lis())


def test_equivalence_fig15():
    assert_equivalent(fig15_lis())


def test_equivalence_tree():
    assert_equivalent(tree_lis(depth=2, relays_per_channel=2))


def test_equivalence_ring():
    assert_equivalent(ring_lis(5, relays=3))


@given(lis=lis_graphs(max_shells=4, max_channels=6, max_relays=3))
@settings(max_examples=25, deadline=None)
def test_equivalence_on_random_small_systems(lis):
    """Firing patterns of both simulators coincide exactly."""
    assert_equivalent(lis, clocks=50)


@given(lis=lis_graphs(max_shells=4, max_channels=5, max_queue=3))
@settings(max_examples=25, deadline=None)
def test_max_queue_occupancy_matches_trace_sim(lis):
    trace = TraceSimulator(lis)
    trace.run(50)
    rtl = RtlSimulator(lis)
    rtl.run(50)
    assert rtl.max_queue_occupancy() == trace.max_queue_occupancy()


def test_crossvalidate_helper():
    from repro.lis import crossvalidate

    report = crossvalidate(fig15_lis(), clocks=400, warmup=100)
    assert report["agreed"]
    assert report["analytic"] == Fraction(3, 4)
    report2 = crossvalidate(tree_lis(depth=2), clocks=200, warmup=50)
    assert report2["agreed"]
    assert report2["analytic"] == 1
