"""Tests for elementary cycle enumeration on multigraphs."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.graphs import (
    CycleExplosionError,
    Digraph,
    count_edge_cycles,
    cycle_edges_to_nodes,
    elementary_edge_cycles,
    elementary_node_cycles,
)
from tests.strategies import digraphs


def to_nx(g: Digraph) -> nx.MultiDiGraph:
    h = nx.MultiDiGraph()
    h.add_nodes_from(g.nodes)
    h.add_edges_from((e.src, e.dst) for e in g.edges)
    return h


def canonical(nodes):
    """Rotation-invariant canonical form of a node cycle."""
    nodes = list(nodes)
    k = min(range(len(nodes)), key=lambda i: repr(nodes[i]))
    return tuple(nodes[k:] + nodes[:k])


def test_triangle_has_one_cycle():
    g = Digraph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    g.add_edge("c", "a")
    cycles = list(elementary_node_cycles(g))
    assert len(cycles) == 1
    assert canonical(cycles[0]) == ("a", "b", "c")


def test_two_node_cycle_with_parallel_edges_expands():
    g = Digraph()
    g.add_edge("a", "b")
    g.add_edge("a", "b")
    g.add_edge("b", "a")
    g.add_edge("b", "a")
    node_cycles = list(elementary_node_cycles(g))
    assert len(node_cycles) == 1
    edge_cycles = list(elementary_edge_cycles(g))
    assert len(edge_cycles) == 4  # 2 x 2 parallel choices
    assert count_edge_cycles(g) == 4
    for cycle in edge_cycles:
        assert len(cycle) == 2
        assert cycle[0].dst == cycle[1].src
        assert cycle[1].dst == cycle[0].src


def test_self_loops_are_length_one_cycles():
    g = Digraph()
    g.add_edge("a", "a")
    g.add_edge("a", "a")
    g.add_edge("a", "b")
    assert list(elementary_node_cycles(g)) == [["a"]]
    edge_cycles = list(elementary_edge_cycles(g))
    assert len(edge_cycles) == 2  # one per parallel self-loop edge
    assert count_edge_cycles(g) == 2


def test_dag_has_no_cycles():
    g = Digraph()
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    g.add_edge("a", "c")
    assert list(elementary_edge_cycles(g)) == []
    assert count_edge_cycles(g) == 0


def test_overlapping_cycles():
    # a->b->a and b->c->b share node b.
    g = Digraph()
    g.add_edge("a", "b")
    g.add_edge("b", "a")
    g.add_edge("b", "c")
    g.add_edge("c", "b")
    found = {canonical(c) for c in elementary_node_cycles(g)}
    assert found == {canonical(["a", "b"]), canonical(["b", "c"])}


def test_edge_cycles_are_closed_walks():
    g = Digraph()
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(2, 0)
    g.add_edge(1, 0)
    for cycle in elementary_edge_cycles(g):
        for i, edge in enumerate(cycle):
            assert edge.dst == cycle[(i + 1) % len(cycle)].src


def test_max_cycles_budget():
    g = Digraph()
    for i in range(4):
        for j in range(4):
            if i != j:
                g.add_edge(i, j)
    with pytest.raises(CycleExplosionError):
        list(elementary_edge_cycles(g, max_cycles=3))


def test_cycle_edges_to_nodes():
    g = Digraph()
    g.add_edge("x", "y")
    g.add_edge("y", "x")
    (cycle,) = list(elementary_edge_cycles(g))
    nodes = cycle_edges_to_nodes(cycle)
    assert set(nodes) == {"x", "y"}
    assert len(nodes) == 2


@given(digraphs(max_nodes=6, max_edges=12))
@settings(max_examples=60)
def test_node_cycles_match_networkx(g):
    theirs = set()
    for cyc in nx.simple_cycles(nx.DiGraph(to_nx(g))):
        theirs.add(canonical(cyc))
    ours = {canonical(c) for c in elementary_node_cycles(g)}
    assert ours == theirs


@given(digraphs(max_nodes=5, max_edges=10))
@settings(max_examples=60)
def test_edge_cycle_count_matches_enumeration(g):
    cycles = list(elementary_edge_cycles(g))
    assert len(cycles) == count_edge_cycles(g)
    # Every edge cycle is node-simple.
    for cycle in cycles:
        nodes = cycle_edges_to_nodes(cycle)
        assert len(nodes) == len(set(nodes))


@given(digraphs(max_nodes=5, max_edges=10))
@settings(max_examples=40)
def test_edge_cycles_match_networkx_multigraph(g):
    theirs = set()
    h = to_nx(g)
    for cyc in nx.simple_cycles(h):
        # networkx yields node lists for multigraphs too; count expansions.
        theirs.add(canonical(cyc))
    ours = {canonical(cycle_edges_to_nodes(c)) for c in elementary_edge_cycles(g)}
    assert ours == theirs


# ----------------------------------------------------------------------
# Johnson's cycle order on the systems queue sizing enumerates
# ----------------------------------------------------------------------
#: Sizing-workload inputs: Table-IV (v, s, seed) systems, enumerated
#: after the rule-4 SCC collapse the sizing path applies, and NoC
#: (rows, cols, torus, relays, seed) meshes.
ORDER_DAGS = [
    (100, 10, 752275148),
    (100, 20, 230412316),
    (200, 10, 12774322),
    (100, 10, 969176871),
    (100, 20, 550188199),
    (200, 10, 371530033),
]
ORDER_NOCS = [
    (3, 4, False, 2, 1066342687),
    (3, 3, False, 3, 693122994),
    (3, 4, False, 4, 445781048),
    (2, 5, False, 5, 435180877),
    (3, 4, False, 6, 520324522),
    (3, 3, False, 2, 1026461768),
]
#: Edge cycles hashed per system (torus4x4 has ~4e8).
ORDER_PREFIX = 60_000


def johnson_order_digests() -> dict[str, str]:
    """Per system, a digest of the edge-key sequence that
    :func:`elementary_edge_cycles` yields on its doubled marked graph
    (the first :data:`ORDER_PREFIX` cycles).  Node names hash by
    string, so the order is pinned for one ``PYTHONHASHSEED``."""
    from repro.core.cycles import collapse_sccs
    from repro.dsl import CORPUS, corpus_system
    from repro.gen import GeneratorConfig, generate_lis, mesh_lis, named_system

    systems = {name: named_system(name) for name in ("fig15", "cofdm", "fig19")}
    for name in sorted(CORPUS):
        systems[f"dsl:{name}"] = corpus_system(name).lower()
    for v, s, seed in ORDER_DAGS:
        lis = generate_lis(GeneratorConfig(v=v, s=s, c=5, rs=10, seed=seed))
        systems[f"dag:{v}:{s}:{seed}"] = collapse_sccs(lis)[0]
    for rows, cols, torus, relays, seed in ORDER_NOCS:
        lis = mesh_lis(rows, cols, torus=torus, relays=relays, seed=seed)
        systems[f"noc:{rows}x{cols}:{torus}:{relays}:{seed}"] = lis
    digests = {}
    for name, lis in systems.items():
        cycles = elementary_edge_cycles(lis.doubled_marked_graph().graph)
        h = hashlib.sha256()
        for cycle in itertools.islice(cycles, ORDER_PREFIX):
            h.update(repr([edge.key for edge in cycle]).encode())
        digests[name] = h.hexdigest()[:12]
    return digests


#: :func:`johnson_order_digests` under ``PYTHONHASHSEED=0``.  Johnson's
#: search takes each start node from a component set built in Tarjan's
#: pop order; a change there moves the cycle order, which the fig19
#: listing and the cycle-record order follow.
JOHNSON_ORDER_GOLDEN = {
    "fig15": "3974cfed9483",
    "cofdm": "668a56af663d",
    "fig19": "5449a01c1e46",
    "dsl:cofdm": "668a56af663d",
    "dsl:cofdm_fig19": "5449a01c1e46",
    "dsl:elastic_pipeline": "f38c49bec423",
    "dsl:fig1": "13a871bcd37f",
    "dsl:fig15": "3974cfed9483",
    "dsl:fig2_right": "59a70a76fe7f",
    "dsl:mesh3x3": "a8df9bd4d2b3",
    "dsl:ring8": "a1fad9993f99",
    "dsl:torus4x4": "8dd1e32c2f2c",
    "dsl:uplink_downlink": "789e1b5be61b",
    "dag:100:10:752275148": "ba67ccdfb88d",
    "dag:100:20:230412316": "d82b05166ec8",
    "dag:200:10:12774322": "4dc639acb6e1",
    "dag:100:10:969176871": "485e98975f52",
    "dag:100:20:550188199": "8c1ab3d3b928",
    "dag:200:10:371530033": "11ec13b5eb2e",
    "noc:3x4:False:2:1066342687": "a5abcb05538c",
    "noc:3x3:False:3:693122994": "c3f664fcea82",
    "noc:3x4:False:4:445781048": "3c6ff330a9c4",
    "noc:2x5:False:5:435180877": "39213866a673",
    "noc:3x4:False:6:520324522": "00691d3f6452",
    "noc:3x3:False:2:1026461768": "f874eb806df2",
}


def test_johnson_cycle_order_is_pinned():
    code = (
        "import json; "
        "from tests.graphs.test_cycles import johnson_order_digests; "
        "print(json.dumps(johnson_order_digests()))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=Path(__file__).resolve().parents[2],
        env={**os.environ, "PYTHONHASHSEED": "0"},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert json.loads(out) == JOHNSON_ORDER_GOLDEN
