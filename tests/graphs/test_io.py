"""Tests for Graphviz DOT export."""

from repro.graphs import Digraph, to_dot


def test_dot_output_marks_backedges_dashed():
    g = Digraph()
    g.add_edge("a", "b", tokens=1)
    g.add_edge("b", "a", tokens=2, kind="back")
    dot = to_dot(g)
    assert dot.startswith("digraph")
    assert "style=dashed" in dot
    assert '"a" -> "b"' in dot
    assert 'label="2"' in dot


def test_dot_custom_label_and_shape():
    g = Digraph()
    g.add_node("rs1")
    g.add_edge("rs1", "rs1")
    dot = to_dot(
        g,
        edge_label=lambda e: "loop",
        node_shape=lambda n: "box",
    )
    assert "shape=box" in dot
    assert 'label="loop"' in dot
