"""Tests for Tarjan SCC, cross-checked against networkx."""

import networkx as nx
from hypothesis import given

from repro.graphs import (
    Digraph,
    is_strongly_connected,
    scc_of,
    strongly_connected_components,
)
from tests.strategies import digraphs


def to_nx(g: Digraph) -> nx.MultiDiGraph:
    h = nx.MultiDiGraph()
    h.add_nodes_from(g.nodes)
    h.add_edges_from((e.src, e.dst) for e in g.edges)
    return h


def test_single_cycle_is_one_scc():
    g = Digraph()
    for i in range(5):
        g.add_edge(i, (i + 1) % 5)
    comps = strongly_connected_components(g)
    assert len(comps) == 1
    assert set(comps[0]) == set(range(5))
    assert is_strongly_connected(g)


def test_two_sccs_joined_by_bridge():
    g = Digraph()
    g.add_edge("a", "b")
    g.add_edge("b", "a")
    g.add_edge("b", "c")
    g.add_edge("c", "d")
    g.add_edge("d", "c")
    comps = {frozenset(c) for c in strongly_connected_components(g)}
    assert comps == {frozenset({"a", "b"}), frozenset({"c", "d"})}
    assert not is_strongly_connected(g)


def test_empty_graph_not_strongly_connected():
    assert not is_strongly_connected(Digraph())


def test_singleton_graph_is_strongly_connected():
    g = Digraph()
    g.add_node("only")
    assert is_strongly_connected(g)


def test_sccs_in_reverse_topological_order():
    g = Digraph()
    g.add_edge("a", "b")
    g.add_edge("b", "a")
    g.add_edge("b", "c")  # {a,b} feeds {c}
    comps = strongly_connected_components(g)
    assert set(comps[0]) == {"c"}
    assert set(comps[1]) == {"a", "b"}


@given(digraphs())
def test_scc_partition_matches_networkx(g):
    ours = {frozenset(c) for c in strongly_connected_components(g)}
    theirs = {
        frozenset(c) for c in nx.strongly_connected_components(to_nx(g))
    }
    assert ours == theirs


@given(digraphs())
def test_scc_of_consistent_with_components(g):
    mapping = scc_of(g)
    comps = strongly_connected_components(g)
    for idx, comp in enumerate(comps):
        for node in comp:
            assert mapping[node] == idx
