"""Tests for topological order, cross-checked against networkx."""

import networkx as nx
import pytest
from hypothesis import given

from repro.graphs import Digraph, GraphError, is_acyclic, topological_sort
from tests.strategies import digraphs


def to_nx(g: Digraph) -> nx.MultiDiGraph:
    h = nx.MultiDiGraph()
    h.add_nodes_from(g.nodes)
    h.add_edges_from((e.src, e.dst) for e in g.edges)
    return h


def test_topological_sort_respects_edges():
    g = Digraph()
    g.add_edge("a", "b")
    g.add_edge("a", "c")
    g.add_edge("b", "d")
    g.add_edge("c", "d")
    order = topological_sort(g)
    pos = {n: i for i, n in enumerate(order)}
    for e in g.edges:
        assert pos[e.src] < pos[e.dst]


def test_topological_sort_cycle_raises():
    g = Digraph()
    g.add_edge("a", "b")
    g.add_edge("b", "a")
    with pytest.raises(GraphError):
        topological_sort(g)


def test_is_acyclic_counts_self_loop_as_cycle():
    g = Digraph()
    g.add_edge("a", "a")
    assert not is_acyclic(g)


@given(digraphs())
def test_is_acyclic_matches_networkx(g):
    assert is_acyclic(g) == nx.is_directed_acyclic_graph(to_nx(g))
