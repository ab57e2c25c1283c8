"""Unit tests for the edge-keyed directed multigraph."""

import pytest

from repro.graphs import Digraph, GraphError


def test_add_node_idempotent_merges_attrs():
    g = Digraph()
    g.add_node("a", color="red")
    g.add_node("a", size=3)
    assert g.node_data("a") == {"color": "red", "size": 3}
    assert g.number_of_nodes() == 1


def test_add_edge_creates_endpoints():
    g = Digraph()
    key = g.add_edge("u", "v", tokens=1)
    assert g.has_node("u") and g.has_node("v")
    edge = g.edge(key)
    assert edge.src == "u" and edge.dst == "v"
    assert edge.data["tokens"] == 1


def test_parallel_edges_have_distinct_keys():
    g = Digraph()
    k1 = g.add_edge("u", "v")
    k2 = g.add_edge("u", "v")
    assert k1 != k2
    assert len(g.edges_between("u", "v")) == 2
    assert g.out_degree("u") == 2
    assert g.successors("u") == ["v"]  # collapsed


def test_self_loop():
    g = Digraph()
    g.add_edge("u", "u")
    assert g.self_loops()[0].src == "u"
    assert g.in_degree("u") == 1 and g.out_degree("u") == 1


def test_remove_edge():
    g = Digraph()
    key = g.add_edge("u", "v")
    g.remove_edge(key)
    assert g.number_of_edges() == 0
    assert not g.has_edge("u", "v")
    with pytest.raises(GraphError):
        g.remove_edge(key)


def test_edge_keys_not_reused_after_removal():
    g = Digraph()
    k1 = g.add_edge("u", "v")
    g.remove_edge(k1)
    k2 = g.add_edge("u", "v")
    assert k2 != k1


def test_remove_node_removes_incident_edges():
    g = Digraph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    g.add_edge("c", "a")
    g.remove_node("b")
    assert g.number_of_edges() == 1
    assert g.has_edge("c", "a")


def test_remove_missing_node_raises():
    g = Digraph()
    with pytest.raises(GraphError):
        g.remove_node("ghost")


def test_in_out_edges_and_degrees():
    g = Digraph()
    g.add_edge("a", "b")
    g.add_edge("a", "b")
    g.add_edge("b", "a")
    assert [e.dst for e in g.out_edges("a")] == ["b", "b"]
    assert [e.src for e in g.in_edges("a")] == ["b"]
    assert g.in_degree("b") == 2
    assert g.predecessors("b") == ["a"]


def test_copy_is_independent():
    g = Digraph()
    key = g.add_edge("a", "b", tokens=1)
    h = g.copy()
    h.edge(key).data["tokens"] = 99
    h.add_edge("b", "a")
    assert g.edge(key).data["tokens"] == 1
    assert g.number_of_edges() == 1
    assert h.number_of_edges() == 2


def test_copy_preserves_edge_keys():
    g = Digraph()
    keys = [g.add_edge("a", "b"), g.add_edge("b", "c")]
    h = g.copy()
    for key in keys:
        assert h.edge(key).src == g.edge(key).src


def test_subgraph_induced():
    g = Digraph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    g.add_edge("a", "c")
    sub = g.subgraph(["a", "b"])
    assert sub.number_of_nodes() == 2
    assert sub.number_of_edges() == 1
    assert sub.has_edge("a", "b")


def test_subgraph_missing_node_raises():
    g = Digraph()
    g.add_node("a")
    with pytest.raises(GraphError):
        g.subgraph(["a", "zzz"])


def test_reversed_flips_all_edges():
    g = Digraph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    r = g.reversed()
    assert r.has_edge("b", "a")
    assert r.has_edge("c", "b")
    assert not r.has_edge("a", "b")


def test_sources_and_sinks():
    g = Digraph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    assert g.sources() == ["a"]
    assert g.sinks() == ["c"]


def test_contains_len_iter():
    g = Digraph()
    g.add_node(1)
    g.add_node(2)
    assert 1 in g and 3 not in g
    assert len(g) == 2
    assert sorted(g) == [1, 2]


def test_node_data_missing_raises():
    g = Digraph()
    with pytest.raises(GraphError):
        g.node_data("missing")


def test_edges_between_missing_source_is_empty():
    g = Digraph()
    assert g.edges_between("x", "y") == []
