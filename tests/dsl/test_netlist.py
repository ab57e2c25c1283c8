"""The structural netlist and the simulator that runs it.

``build_netlist`` is the single structural elaboration shared by the
SystemVerilog emitter and by :class:`~repro.lis.RtlSimulator`; pinning
that simulator cycle-exactly against the independent backends
therefore pins the *RTL structure itself* (same queues, same depths,
same reset tokens, same firing rule)."""

import pytest

from repro.core import LisGraph
from repro.core.naming import structural_nodes
from repro.dsl import build_netlist, corpus_system
from repro.lis import RtlSimulator, simulate_rtl
from repro.sim import differential_check


def _fig15():
    return corpus_system("fig15").lower()


class TestBuildNetlist:
    def test_nodes_match_rtl_simulator(self):
        """The simulator's trace rows are the netlist nodes, in netlist
        order, and cover the canonical structural node set."""
        lis = _fig15()
        net = build_netlist(lis, {})
        trace = RtlSimulator(lis).run(1)
        assert list(trace.fired) == [n.name for n in net.nodes]
        assert set(trace.fired) == set(structural_nodes(lis))

    def test_final_hop_capacity_encodes_queue_and_extra(self):
        lis = LisGraph()
        lis.add_channel("A", "B", queue=2)
        net = build_netlist(lis.freeze(), {0: 1})
        (queue,) = net.queues
        assert queue.final and queue.channel == 0
        # capacity = queue + extra + 1 reset placeholder
        assert queue.capacity == 4
        assert queue.reset_tokens == 1

    def test_relay_hops_are_two_deep(self):
        lis = LisGraph()
        lis.add_channel("A", "B", relays=2)
        net = build_netlist(lis.freeze(), {})
        hops = net.channel_hops(0)
        assert len(hops) == 3
        assert [q.capacity for q in hops[:-1]] == [2, 2]
        assert [q.reset_tokens for q in hops[:-1]] == [0, 0]
        assert hops[-1].final

    def test_latency_expands_to_stage_queues(self):
        lis = LisGraph()
        lis.add_shell("B", latency=3)
        lis.add_channel("A", "B")
        net = build_netlist(lis.freeze(), {})
        stages = [n for n in net.nodes if n.kind == "stage"]
        assert len(stages) == 2


class TestNetlistSimulator:
    """``RtlSimulator`` is the netlist's simulator."""

    @pytest.mark.parametrize(
        "name", ["fig1", "fig15", "uplink_downlink", "elastic_pipeline"]
    )
    def test_cycle_exact_against_reference_simulators(self, name):
        lis = corpus_system(name).lower()
        report = differential_check(lis, clocks=100)
        assert report.agreed, report.failures
        assert "rtl" in report.throughput

    def test_extra_tokens_change_behavior(self):
        lis = _fig15()
        base = simulate_rtl(lis, clocks=100)
        fixed = simulate_rtl(lis, clocks=100, extra_tokens={5: 1, 6: 1})
        assert fixed.throughput("A") >= base.throughput("A")
