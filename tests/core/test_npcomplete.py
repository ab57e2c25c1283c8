"""Tests for the Vertex-Cover -> Queue-Sizing reduction (Section V)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import actual_mst, ideal_mst, size_queues
from repro.core.cycles import deficient_cycles
from repro.core.npcomplete import (
    IDEAL_REDUCTION_MST,
    PBLOCK_TABLE,
    classify_pblocks,
    cover_to_qs_solution,
    is_vertex_cover,
    minimum_vertex_cover,
    qs_solution_to_cover,
    reduce_vertex_cover_to_qs,
)


def triangle():
    return reduce_vertex_cover_to_qs("abc", [("a", "b"), ("b", "c"), ("a", "c")], 2)


def single_edge():
    return reduce_vertex_cover_to_qs("uv", [("u", "v")], 1)


def test_reduction_rejects_self_loops_and_unknown_vertices():
    with pytest.raises(ValueError):
        reduce_vertex_cover_to_qs("a", [("a", "a")], 1)
    with pytest.raises(ValueError):
        reduce_vertex_cover_to_qs("a", [("a", "z")], 1)


def test_reduction_collapses_duplicate_edges():
    red = reduce_vertex_cover_to_qs("uv", [("u", "v"), ("v", "u")], 1)
    assert len(red.vc_edges) == 1


def test_reduction_structure():
    red = single_edge()
    # 2 vertices * 2 shells + 5 limiter shells.
    assert red.lis.system.number_of_nodes() == 9
    # 2 vertex channels + 2 edge channels + 5 limiter channels.
    assert len(red.lis.channels()) == 9
    # Each edge-construct channel carries one relay station.
    for c1, c2 in red.edge_channels.values():
        assert red.lis.relays(c1) == 1
        assert red.lis.relays(c2) == 1
    # Sources/sinks: construct transitions are pure (paper's step b).
    sys = red.lis.system
    for v in red.vc_vertices:
        assert sys.in_degree((v, "a")) == 0
        assert sys.out_degree((v, "b")) == 0


def test_ideal_mst_pinned_to_five_sixths():
    assert ideal_mst(single_edge().lis).mst == IDEAL_REDUCTION_MST
    assert ideal_mst(triangle().lis).mst == IDEAL_REDUCTION_MST


def test_fig12_cycle_present():
    """Per VC edge, one doubled cycle with 6 places and 4 tokens whose
    sizable backedges are exactly the two vertex constructs."""
    red = single_edge()
    mg = red.lis.doubled_marked_graph()
    vertex_channels = set(red.vertex_channel.values())
    fig12 = [
        r
        for r in deficient_cycles(mg, IDEAL_REDUCTION_MST)
        if r.length == 6 and r.tokens == 4 and r.channels <= vertex_channels
    ]
    assert len(fig12) == 1
    assert fig12[0].channels == vertex_channels
    assert fig12[0].deficit(IDEAL_REDUCTION_MST) == 1


def test_cover_yields_qs_solution():
    """Proof direction b: a vertex cover fixes the doubled graph."""
    red = triangle()
    cover = {"a", "b"}  # covers all three triangle edges
    extra = cover_to_qs_solution(red, cover)
    assert actual_mst(red.lis, extra).mst >= IDEAL_REDUCTION_MST


def test_non_cover_fails_to_fix():
    red = triangle()
    not_cover = {"a"}  # edge (b, c) uncovered
    extra = cover_to_qs_solution(red, not_cover)
    assert actual_mst(red.lis, extra).mst < IDEAL_REDUCTION_MST


def test_qs_solution_maps_back_to_cover():
    """Proof direction a: an optimal QS solution induces a cover."""
    red = triangle()
    solution = size_queues(red.lis, method="exact")
    assert solution.restores_target
    cover = qs_solution_to_cover(red, solution.extra_tokens)
    assert is_vertex_cover(red.vc_edges, cover)
    assert len(cover) <= solution.cost


def test_optimal_qs_cost_equals_min_cover_size_on_triangle():
    red = triangle()
    solution = size_queues(red.lis, method="exact")
    assert solution.cost == len(minimum_vertex_cover("abc", red.vc_edges)) == 2


def test_minimum_vertex_cover_solver():
    assert minimum_vertex_cover("ab", [("a", "b")]) <= {"a", "b"}
    assert len(minimum_vertex_cover("abcd", [("a", "b"), ("c", "d")])) == 2
    star_edges = [("hub", x) for x in "abc"]
    assert minimum_vertex_cover("abc" "h", []) == set()
    assert minimum_vertex_cover(["hub", "a", "b", "c"], star_edges) == {"hub"}


def test_pblock_table_matches_paper():
    assert PBLOCK_TABLE["P1"].tokens == 2 and PBLOCK_TABLE["P1"].places == 3
    assert PBLOCK_TABLE["P2"].tokens == 4 and PBLOCK_TABLE["P2"].places == 3
    assert PBLOCK_TABLE["P3"].tokens == 2 and PBLOCK_TABLE["P3"].places == 2
    assert PBLOCK_TABLE["P4"].tokens == 2 and PBLOCK_TABLE["P4"].places == 2


def test_pblock_decomposition_accounts_for_all_construct_cycles():
    """Every doubled cycle in the construct region decomposes into
    P-blocks whose published token/place sums match the cycle exactly
    (after the paper's P4->P3 normalization, valid because direction
    switches pair up: #P3 == #P4)."""
    red = triangle()
    mg = red.lis.doubled_marked_graph()
    from repro.core.cycles import cycle_records

    checked = 0
    for record in cycle_records(mg):
        counts = classify_pblocks(red, record)
        if counts is None or sum(counts.values()) == 0:
            continue
        assert counts["P3"] == counts["P4"]
        expected_tokens = sum(
            PBLOCK_TABLE[name].tokens * n for name, n in counts.items()
        )
        expected_places = sum(
            PBLOCK_TABLE[name].places * n for name, n in counts.items()
        )
        assert record.tokens == expected_tokens
        assert record.length == expected_places
        checked += 1
    assert checked >= 3  # at least the three Fig. 12 cycles


@st.composite
def small_vc_instances(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    vertices = [f"v{i}" for i in range(n)]
    possible = [
        (vertices[i], vertices[j])
        for i in range(n)
        for j in range(i + 1, n)
    ]
    edges = draw(
        st.lists(st.sampled_from(possible), min_size=1, max_size=4, unique=True)
    )
    return vertices, edges


@given(small_vc_instances())
@settings(max_examples=15, deadline=None)
def test_reduction_preserves_optimum(instance):
    """Optimal QS cost on the reduction == minimum vertex cover size."""
    vertices, edges = instance
    red = reduce_vertex_cover_to_qs(vertices, edges, len(vertices))
    solution = size_queues(red.lis, method="exact")
    optimum_cover = minimum_vertex_cover(vertices, edges)
    assert solution.restores_target
    assert solution.cost == len(optimum_cover)
    # And the recovered cover really covers.
    cover = qs_solution_to_cover(red, solution.extra_tokens)
    assert is_vertex_cover(edges, cover)
