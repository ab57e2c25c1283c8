"""Tests for multi-cycle core latency (paper, footnote 3): the stage
expansion against a cycle-ratio reference on the system graph."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LisGraph, LisError, actual_mst, ideal_mst
from repro.core.lis_graph import stage_name
from repro.graphs import elementary_edge_cycles

from ..strategies import lis_graphs


def latency_ring(latencies, relays=0):
    """A ring of shells with the given core latencies."""
    lis = LisGraph()
    names = [f"s{i}" for i in range(len(latencies))]
    for name, latency in zip(names, latencies):
        lis.add_shell(name, latency=latency)
    for i, name in enumerate(names):
        lis.add_channel(
            name,
            names[(i + 1) % len(names)],
            relays=relays if i == 0 else 0,
        )
    return lis


def compact_reference(lis):
    """The ideal MST read off the system graph, without the stage
    expansion: each channel on a cycle carries one token and takes
    ``relays + latency(consumer)`` clocks, so the MST is ``min(1, min
    over system cycles of hops / total latency)``."""
    best = Fraction(1)
    for cycle in elementary_edge_cycles(lis.system):
        clocks = sum(edge.data["relays"] + lis.latency(edge.dst) for edge in cycle)
        best = min(best, Fraction(len(cycle), clocks))
    return best


def test_add_shell_rejects_bad_latency():
    lis = LisGraph()
    with pytest.raises(LisError):
        lis.add_shell("x", latency=0)


def test_latency_defaults_to_one():
    lis = LisGraph()
    lis.add_channel("a", "b")  # implicit shells
    assert lis.latency("a") == 1


def test_pipeline_expansion_structure():
    lis = LisGraph()
    lis.add_shell("m", latency=3)
    lis.add_shell("n")
    lis.add_channel("m", "n")
    mg = lis.ideal_marked_graph()
    s0, s1 = stage_name("m", 0), stage_name("m", 1)
    assert mg.graph.has_node(s0) and mg.graph.has_node(s1)
    assert mg.graph.node_data(s0)["kind"] == "stage"
    # The channel leaves the pipeline tail, not the core.
    assert mg.graph.has_edge(s1, "n")
    assert not mg.graph.has_edge("m", "n")
    # Internal places start empty; the channel's final place holds the
    # initial token.
    internal = [p for p in mg.places if p.data.get("internal")]
    assert [p.data["tokens"] for p in internal] == [0, 0]
    (final,) = [p for p in mg.places if not p.data.get("internal")]
    assert final.data["tokens"] == 1


def test_doubled_pipeline_has_unit_stage_backedges():
    lis = LisGraph()
    lis.add_shell("m", latency=3)
    lis.add_shell("n")
    lis.add_channel("m", "n")
    mg = lis.doubled_marked_graph()
    internal_back = [
        p
        for p in mg.places
        if p.data.get("internal") and p.data["kind"] == "back"
    ]
    assert len(internal_back) == 2
    # Elastic two-slot stages, like relay stations.
    assert all(p.data["tokens"] == 2 for p in internal_back)
    assert all(not p.data["sizable"] for p in internal_back)


def test_latency_ring_mst_formula():
    """A ring of n unit shells with one latency-L shell has ideal MST
    n / (n + L - 1): the loop pays the pipeline depth."""
    for n, L in [(3, 2), (3, 3), (4, 3), (5, 4)]:
        latencies = [L] + [1] * (n - 1)
        lis = latency_ring(latencies)
        expected = min(Fraction(1), Fraction(n, n + L - 1))
        assert ideal_mst(lis).mst == expected
        assert compact_reference(lis) == expected


def test_latency_and_relays_compose():
    lis = latency_ring([3, 1, 1], relays=2)
    # 3 tokens; places: 3 hops + 2 pipeline stages + 2 relays = 7.
    assert ideal_mst(lis).mst == Fraction(3, 7)
    assert compact_reference(lis) == Fraction(3, 7)


def test_compact_matches_expanded_on_acyclic():
    lis = LisGraph()
    lis.add_shell("a", latency=4)
    lis.add_channel("a", "b", relays=2)
    assert compact_reference(lis) == 1
    assert ideal_mst(lis).mst == 1


def test_backpressure_with_latency_never_helps():
    lis = latency_ring([2, 1, 1, 1])
    assert actual_mst(lis).mst <= ideal_mst(lis).mst


@given(
    latencies=st.lists(
        st.integers(min_value=1, max_value=4), min_size=2, max_size=5
    ),
    relays=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_compact_and_expanded_agree_on_latency_rings(latencies, relays):
    lis = latency_ring(latencies, relays=relays)
    assert compact_reference(lis) == ideal_mst(lis).mst


@given(lis=lis_graphs(max_latency=3))
@settings(max_examples=100, deadline=None)
def test_compact_and_expanded_agree_on_random_systems(lis):
    assert compact_reference(lis) == ideal_mst(lis).mst


@given(
    latencies=st.lists(
        st.integers(min_value=1, max_value=3), min_size=2, max_size=4
    )
)
@settings(max_examples=25, deadline=None)
def test_simulators_agree_with_latency(latencies):
    from repro.lis import RtlSimulator, TraceSimulator

    lis = latency_ring(latencies)
    a = TraceSimulator(lis).run(40)
    b = RtlSimulator(lis).run(40)
    shells = [f"s{i}" for i in range(len(latencies))]
    for shell in shells:
        assert a.fired[shell] == b.fired[shell]


def test_simulated_rate_matches_latency_mst():
    lis = latency_ring([3, 1, 1])  # ideal MST 3/5
    # A plain ring has no reconvergent paths, so q=1 preserves it.
    assert actual_mst(lis).mst == Fraction(3, 5)
    from repro.lis import TraceSimulator

    sim = TraceSimulator(lis)
    sim.run(430)
    rate = sim.trace.throughput("s1", skip=30)
    assert abs(rate - Fraction(3, 5)) < Fraction(1, 30)
