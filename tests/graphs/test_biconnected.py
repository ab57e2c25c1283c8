"""Tests for biconnected components.

networkx has no multigraph biconnectivity, so the oracle comparisons run
on simple graphs; multigraph behaviour (parallel edges forming an
undirected cycle) is covered by hand-written cases, since that exact
property drives the paper's reconvergent-path classification.  The
articulation points and bridges the cases check are read off the
components.
"""

import networkx as nx
from hypothesis import given

from repro.graphs import Digraph, biconnected_components
from tests.strategies import digraphs


def articulation_points(g: Digraph) -> set:
    """Nodes lying in two or more biconnected components."""
    membership: dict = {}
    for component in biconnected_components(g):
        for node in {n for e in component for n in (e.src, e.dst)}:
            membership[node] = membership.get(node, 0) + 1
    return {node for node, count in membership.items() if count >= 2}


def bridges(g: Digraph) -> list:
    """Edges forming a biconnected component on their own (self-loops
    excepted)."""
    return [
        c[0]
        for c in biconnected_components(g)
        if len(c) == 1 and c[0].src != c[0].dst
    ]


def to_nx_undirected(g: Digraph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.nodes)
    h.add_edges_from((e.src, e.dst) for e in g.edges)
    return h


def has_multi_or_loops(g: Digraph) -> bool:
    seen = set()
    for e in g.edges:
        if e.src == e.dst:
            return True
        pair = frozenset((e.src, e.dst))
        if pair in seen:
            return True
        seen.add(pair)
    return False


def test_two_triangles_sharing_a_node():
    g = Digraph()
    # Triangle 1: a-b-c; triangle 2: c-d-e (directed arbitrarily).
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    g.add_edge("c", "a")
    g.add_edge("c", "d")
    g.add_edge("d", "e")
    g.add_edge("e", "c")
    assert articulation_points(g) == {"c"}
    comps = biconnected_components(g)
    assert len(comps) == 2
    sizes = sorted(len(c) for c in comps)
    assert sizes == [3, 3]


def test_chain_is_all_bridges():
    g = Digraph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    assert {e.key for e in bridges(g)} == {e.key for e in g.edges}
    assert articulation_points(g) == {"b"}


def test_parallel_edges_form_biconnected_component_not_bridge():
    g = Digraph()
    g.add_edge("a", "b")
    g.add_edge("a", "b")
    assert bridges(g) == []
    assert articulation_points(g) == set()
    comps = biconnected_components(g)
    assert len(comps) == 1
    assert len(comps[0]) == 2


def test_antiparallel_edges_are_an_undirected_cycle():
    # a->b plus b->a is a 2-cycle in the underlying undirected multigraph.
    g = Digraph()
    g.add_edge("a", "b")
    g.add_edge("b", "a")
    assert bridges(g) == []
    assert len(biconnected_components(g)) == 1


def test_self_loop_is_singleton_component():
    g = Digraph()
    g.add_edge("a", "a")
    g.add_edge("a", "b")
    comps = biconnected_components(g)
    assert any(len(c) == 1 and c[0].src == c[0].dst for c in comps)
    assert len(bridges(g)) == 1  # only the a->b edge


def test_isolated_node_has_no_components():
    g = Digraph()
    g.add_node("lonely")
    assert biconnected_components(g) == []
    assert articulation_points(g) == set()


@given(digraphs(allow_self_loops=False, allow_parallel=True))
def test_articulation_points_match_networkx_on_simple_graphs(g):
    if has_multi_or_loops(g):
        return  # networkx oracle only valid on simple graphs
    expected = set(nx.articulation_points(to_nx_undirected(g)))
    assert articulation_points(g) == expected


@given(digraphs(allow_self_loops=False))
def test_biconnected_edge_partition_matches_networkx(g):
    if has_multi_or_loops(g):
        return
    ours = {
        frozenset(frozenset((e.src, e.dst)) for e in comp)
        for comp in biconnected_components(g)
    }
    theirs = {
        frozenset(frozenset(pair) for pair in comp)
        for comp in nx.biconnected_component_edges(to_nx_undirected(g))
    }
    assert ours == theirs


@given(digraphs())
def test_components_partition_all_edges(g):
    comps = biconnected_components(g)
    all_keys = [e.key for comp in comps for e in comp]
    assert sorted(all_keys) == sorted(e.key for e in g.edges)
