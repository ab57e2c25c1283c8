"""Property suite: every cached Context artifact equals the fresh
direct computation on the raw :class:`LisGraph` it snapshots."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import Context
from repro.core.cycles import cycle_records as fresh_cycle_records
from repro.core.cycles import deficient_cycles as fresh_deficient_cycles
from repro.core.throughput import mst

from ..strategies import lis_graphs, lis_systems


def record_key(record):
    return (record.places, record.tokens, record.channels)


@settings(max_examples=60)
@given(lis_systems(max_shells=4, max_channels=6))
def test_cached_msts_match_fresh_computation(system):
    lis, _behaviors = system
    ctx = Context(lis)
    assert ctx.ideal_mst().mst == mst(lis.ideal_marked_graph()).mst
    assert ctx.actual_mst().mst == mst(lis.doubled_marked_graph()).mst
    # Serving again (now from cache) must not change the answer.
    assert ctx.ideal_mst().mst == mst(lis.ideal_marked_graph()).mst
    assert ctx.actual_mst().mst == mst(lis.doubled_marked_graph()).mst


def graph_key(mg):
    """Every transition and place of a marked graph, with their data."""
    graph = mg.graph
    return (
        [(node, graph.node_data(node)) for node in graph.nodes],
        [(e.key, e.src, e.dst, e.data) for e in graph.edges],
    )


@settings(max_examples=60)
@given(lis_graphs(max_latency=3), st.data())
def test_doubled_lowering_on_the_ideal_master_matches_a_fresh_one(lis, data):
    ids = lis.channel_ids()
    extra = (
        data.draw(
            st.dictionaries(
                st.sampled_from(ids), st.integers(min_value=0, max_value=2)
            )
        )
        if ids
        else {}
    )
    ctx = Context(lis)
    fresh = graph_key(lis.doubled_marked_graph(extra))
    assert graph_key(ctx.doubled_marked_graph(extra)) == fresh
    # The extension copied the cached ideal lowering, never touched it.
    assert graph_key(ctx.ideal_master()) == graph_key(lis.ideal_marked_graph())


@settings(max_examples=60)
@given(
    lis_systems(max_shells=4, max_channels=6),
    st.data(),
)
def test_cached_cycle_records_match_fresh_enumeration(system, data):
    lis, _behaviors = system
    ctx = Context(lis)
    assert [record_key(r) for r in ctx.cycle_records()] == [
        record_key(r) for r in fresh_cycle_records(lis.doubled_marked_graph())
    ]
    # An arbitrary extra-token assignment: the cached structural pass
    # plus token re-summing must agree with a from-scratch enumeration
    # of the re-marked doubled graph.
    cids = lis.channel_ids()
    extra = {
        cid: data.draw(st.integers(min_value=0, max_value=3))
        for cid in cids
        if data.draw(st.booleans())
    }
    assert [record_key(r) for r in ctx.cycle_records(extra)] == [
        record_key(r)
        for r in fresh_cycle_records(lis.doubled_marked_graph(extra))
    ]
    assert ctx.actual_mst(extra).mst == mst(lis.doubled_marked_graph(extra)).mst


@settings(max_examples=60)
@given(lis_systems(max_shells=4, max_channels=6))
def test_cached_deficient_cycles_match_fresh_computation(system):
    lis, _behaviors = system
    ctx = Context(lis)
    goal = ctx.ideal_mst().mst
    assert [record_key(r) for r in ctx.deficient_cycles(goal)] == [
        record_key(r)
        for r in fresh_deficient_cycles(lis.doubled_marked_graph(), goal)
    ]


@settings(max_examples=30)
@given(lis_systems(max_shells=4, max_channels=6))
def test_cached_compile_matches_direct_compile(system):
    import numpy as np

    from repro.sim.compile import compile_lis

    lis, _behaviors = system
    if not lis.channels():
        return  # nothing to compile
    ctx = Context(lis)
    cached = ctx.compiled()
    fresh = compile_lis(lis)
    assert cached.node_names == fresh.node_names
    assert cached.is_shell == fresh.is_shell
    assert np.array_equal(cached.src, fresh.src)
    assert np.array_equal(cached.dst, fresh.dst)
    assert np.array_equal(cached.tokens0, fresh.tokens0)
    assert cached.occ_channels == fresh.occ_channels
    assert dict(cached.sizable_col) == dict(fresh.sizable_col)
