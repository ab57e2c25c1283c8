"""The canonical naming module (repro.core.naming) is the single
source of node-name conventions for every expanded-system consumer:
lowerings, simulators, fault injection, the DSL and the RTL exporter.
These tests pin the conventions and the deterministic orderings."""

from repro.core import LisGraph
from repro.core.naming import (
    relay_name,
    sink_shells,
    source_shells,
    stage_name,
    structural_nodes,
)


def _pipeline():
    lis = LisGraph()
    lis.add_shell("B", latency=3)
    lis.add_channel("A", "B", relays=2)
    lis.add_channel("B", "C")
    return lis


def test_relay_and_stage_names_are_tuples():
    assert relay_name(4, 1) == ("rs", 4, 1)
    assert stage_name("B", 0) == ("stage", "B", 0)
    # Distinct namespaces: a relay can never collide with a stage.
    assert relay_name(0, 0) != stage_name(0, 0)


def test_structural_nodes_cover_shells_stages_and_relays():
    lis = _pipeline()
    nodes = structural_nodes(lis)
    assert set(nodes) == {
        "A",
        "B",
        "C",
        stage_name("B", 0),
        stage_name("B", 1),
        relay_name(0, 0),
        relay_name(0, 1),
    }
    # Deterministic: repr-sorted, and stable across calls.
    assert nodes == sorted(nodes, key=repr)
    assert nodes == structural_nodes(lis)


def test_structural_nodes_match_rtl_simulator_nodes():
    """The RTL simulator expands the same structure; the two node sets
    must agree exactly (this is the hoisting contract)."""
    from repro.lis import RtlSimulator

    lis = _pipeline()
    sim = RtlSimulator(lis)
    assert set(structural_nodes(lis)) == {n.name for n in sim.netlist.nodes}


def test_source_and_sink_shells():
    lis = _pipeline()
    assert source_shells(lis) == ["A"]
    assert sink_shells(lis) == ["C"]


def test_closed_loop_falls_back_to_all_shells():
    lis = LisGraph()
    lis.add_channel("X", "Y")
    lis.add_channel("Y", "X")
    assert source_shells(lis) == ["X", "Y"]
    assert sink_shells(lis) == ["X", "Y"]
