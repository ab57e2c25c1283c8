"""Unit coverage for :mod:`repro.analysis` -- the shared Context."""

from fractions import Fraction

import pytest

from repro.analysis import (
    Context,
    ContextStats,
    clear_registry,
    context_from_json,
    get_context,
    global_stats,
)
from repro.core import LisGraph, actual_mst, ideal_mst, size_queues
from repro.core.lis_graph import LisError
from repro.core.serialize import lis_to_json
from repro.engine.ops import get_op
from repro.gen import examples
from repro.stochastic import StochasticSpec


def fig1() -> LisGraph:
    return examples.fig1_lis()


# ----------------------------------------------------------------------
# Freezing
# ----------------------------------------------------------------------


def test_freeze_blocks_every_mutator():
    lis = fig1().freeze()
    assert lis.frozen
    with pytest.raises(LisError, match="frozen"):
        lis.add_shell("X")
    with pytest.raises(LisError, match="frozen"):
        lis.add_channel("A", "B")
    with pytest.raises(LisError, match="frozen"):
        lis.set_queue(0, 3)
    with pytest.raises(LisError, match="frozen"):
        lis.set_all_queues(2)
    with pytest.raises(LisError, match="frozen"):
        lis.insert_relay(0)
    with pytest.raises(LisError, match="frozen"):
        lis.remove_relay(0)


def test_copy_of_frozen_graph_is_mutable():
    lis = fig1().freeze()
    clone = lis.copy()
    assert not clone.frozen
    clone.set_all_queues(2)  # must not raise
    assert lis.fingerprint() != clone.fingerprint()


def test_fingerprint_matches_canonical_json_hash():
    from repro.core.serialize import lis_fingerprint

    lis = fig1()
    assert lis.fingerprint() == lis_fingerprint(lis_to_json(lis))
    ctx = Context(lis)
    assert ctx.fingerprint == lis.fingerprint()
    assert ctx.lis_json == lis_to_json(lis)


def test_context_snapshots_the_input_graph():
    lis = fig1()
    ctx = Context(lis)
    before = ctx.actual_mst().mst
    lis.set_all_queues(5)  # caller keeps mutating their own graph
    assert ctx.actual_mst().mst == before
    assert ctx.fingerprint != Context(lis).fingerprint


# ----------------------------------------------------------------------
# Satellite 1: the mutable-aliasing hazard
# ----------------------------------------------------------------------


def test_mutating_returned_marked_graph_does_not_poison_cache():
    ctx = Context(fig1())
    degraded = ctx.actual_mst().mst
    mg = ctx.doubled_marked_graph()
    # Simulate abuse: drain and overload every place of the copy.
    for place in list(mg.graph.edges):
        place.data["tokens"] = 99
    again = ctx.doubled_marked_graph()
    assert all(p.data["tokens"] != 99 for p in again.graph.edges)
    assert ctx.actual_mst().mst == degraded

    ideal = ctx.ideal_marked_graph()
    for place in list(ideal.graph.edges):
        place.data["tokens"] = 99
    assert all(
        p.data["tokens"] != 99 for p in ctx.ideal_marked_graph().graph.edges
    )


def test_mutating_returned_throughput_result_is_harmless():
    ctx = Context(fig1())
    first = ctx.actual_mst()
    assert first.critical  # fig1 degrades, so there is a witness cycle
    for edge in first.critical:
        edge.data["tokens"] = 1_000_000
    second = ctx.actual_mst()
    assert second.mst == first.mst
    assert all(e.data["tokens"] < 1_000_000 for e in second.critical)


def test_td_instances_are_fresh_per_call():
    ctx = Context(fig1())
    a = ctx.td_instance(simplify=False)
    b = ctx.td_instance(simplify=False)
    assert a is not b
    a.simplify()  # in-place mutation of one must not leak into the next
    c = ctx.td_instance(simplify=False)
    assert len(c.cycles) == len(b.cycles)


# ----------------------------------------------------------------------
# Satellite 2: the artifact counters
# ----------------------------------------------------------------------


def test_counters_report_single_lowering_across_consumers():
    stats = global_stats()
    ctx = get_context(fig1())
    assert ideal_mst(ctx).mst == Fraction(1)
    assert actual_mst(ctx).mst == Fraction(2, 3)
    assert actual_mst(ctx).mst == Fraction(2, 3)
    solution = size_queues(ctx)
    assert solution.extra_tokens == {1: 1}
    # The base and the rule-4 collapsed context each lower their ideal
    # graph once; every doubled lowering extends a copy of it.
    assert stats.count("ideal_mg", "miss") == 2
    assert stats.count("cycles", "miss") == 1
    # Two *distinct* doubled contents, each lowered exactly once: the
    # base marking and the rule-4 collapsed system.  The solution is
    # verified on the base marking, so the sized one is never lowered.
    assert stats.count("doubled_mg", "miss") == 2
    # Re-running the whole bundle computes nothing new.
    before = {
        k: v for k, v in stats.snapshot().items() if k.endswith(".miss")
    }
    ideal_mst(ctx)
    actual_mst(ctx)
    size_queues(ctx)
    after = {
        k: v for k, v in stats.snapshot().items() if k.endswith(".miss")
    }
    assert after == before


def test_counter_render_lists_artifacts():
    ctx = Context(fig1())
    ctx.ideal_mst()
    ctx.ideal_mst()
    text = global_stats().render()
    assert "artifact" in text
    assert "ideal_mst" in text


def test_stats_delta_and_merge():
    stats = global_stats()
    ctx = Context(fig1())
    before = stats.snapshot()
    ctx.actual_mst()
    ctx.actual_mst()
    delta = stats.delta(before)
    assert delta["actual_mst.miss"] == 1
    assert delta["actual_mst.hit"] == 1
    stats.merge({"actual_mst.hit": 5})
    assert stats.count("actual_mst", "hit") == 6


# ----------------------------------------------------------------------
# Cycle enumeration: one structural pass serves every variant
# ----------------------------------------------------------------------


def test_extra_token_records_match_fresh_enumeration():
    from repro.core.cycles import cycle_records

    lis = fig1()
    ctx = Context(lis)
    extra = {1: 2}
    cached = ctx.cycle_records(extra)
    fresh = cycle_records(lis.doubled_marked_graph(extra))
    assert [(r.places, r.tokens, r.channels) for r in cached] == [
        (r.places, r.tokens, r.channels) for r in fresh
    ]
    assert global_stats().count("cycles", "miss") == 1


def test_cached_enumeration_still_honours_budget():
    from repro.core.cycles import CycleExplosionError

    ctx = Context(fig1())
    full = ctx.cycle_records()
    assert len(full) > 1
    with pytest.raises(CycleExplosionError):
        ctx.cycle_records(max_cycles=1)
    # And a generous budget is served from the same cached pass.
    assert ctx.cycle_records(max_cycles=10_000) == full
    assert global_stats().count("cycles", "miss") == 1


def test_overflowed_budget_is_remembered(monkeypatch):
    import repro.analysis.context as context_module
    from repro.core.cycles import CycleExplosionError, cycle_records

    calls = []

    def counting(mg, max_cycles=None):
        calls.append(max_cycles)
        return cycle_records(mg, max_cycles=max_cycles)

    monkeypatch.setattr(context_module, "cycle_records", counting)
    ctx = Context(examples.fig15_lis())
    with pytest.raises(CycleExplosionError) as first:
        ctx.cycle_records(max_cycles=3)
    assert calls == [3]
    # The same budget, or a smaller one, fails without enumerating,
    # with the message the enumeration gives.
    for budget in (3, 2):
        with pytest.raises(CycleExplosionError) as again:
            ctx.cycle_records({5: 1}, max_cycles=budget)
        assert str(again.value) == f"more than {budget} elementary cycles"
    assert str(first.value) == "more than 3 elementary cycles"
    assert calls == [3]
    # A larger or unbounded budget still enumerates.
    with pytest.raises(CycleExplosionError):
        ctx.cycle_records(max_cycles=4)
    full = ctx.cycle_records()
    assert calls == [3, 4, None]
    assert len(full) > 4
    assert global_stats().count("cycles", "miss") == 1


def test_extra_key_validation():
    ctx = Context(fig1())
    with pytest.raises(LisError, match="unknown"):
        ctx.cycle_records({99: 1})
    with pytest.raises(LisError, match="negative"):
        ctx.actual_mst({0: -1})
    # Zero entries share the base artifact slot.
    base = ctx.actual_mst()
    assert ctx.actual_mst({0: 0}).mst == base.mst
    assert global_stats().count("actual_mst", "miss") == 1


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------


def test_registry_shares_one_context_per_content():
    a = get_context(fig1())
    b = get_context(fig1())
    assert a is b
    assert get_context(a) is a  # idempotent
    c = context_from_json(lis_to_json(fig1()))
    assert c is a


def test_registry_distinguishes_mutated_content():
    a = get_context(fig1())
    changed = fig1()
    changed.set_all_queues(2)
    b = get_context(changed)
    assert a is not b
    assert a.fingerprint != b.fingerprint


def test_registry_guards_against_name_type_aliasing():
    ints = LisGraph()
    ints.add_channel(1, 2)
    strs = LisGraph()
    strs.add_channel("1", "2")
    a = get_context(ints)
    b = get_context(strs)
    # str() aliasing gives both the same canonical JSON...
    assert a.fingerprint == b.fingerprint
    # ...but they must not share artifacts.
    assert a is not b
    assert list(b.system.nodes) == ["1", "2"]


def test_clear_registry_forgets_contexts():
    a = get_context(fig1())
    clear_registry()
    assert get_context(fig1()) is not a


# ----------------------------------------------------------------------
# Collapse and compile
# ----------------------------------------------------------------------


def test_collapsed_is_a_shared_context():
    from repro.soc import cofdm_transmitter

    lis = cofdm_transmitter(queue=1)
    ctx = Context(lis)
    assert ctx.is_collapsible()
    first, map_a = ctx.collapsed()
    second, map_b = ctx.collapsed()
    assert first is second
    assert map_a == map_b
    assert map_a is not map_b  # the mapping itself is handed out fresh
    assert global_stats().count("collapsed", "miss") == 1
    assert global_stats().count("collapsed", "hit") == 1


def test_compiled_arrays_match_direct_compile():
    np = pytest.importorskip("numpy")
    from repro.sim.compile import compile_lis

    lis = fig1()
    ctx = Context(lis)
    cached = ctx.compiled()
    assert compile_lis(ctx) is cached  # dispatch hits the cache
    fresh = compile_lis(lis)
    assert cached.node_names == fresh.node_names
    assert np.array_equal(cached.tokens0, fresh.tokens0)
    assert np.array_equal(cached.src, fresh.src)
    assert np.array_equal(cached.dst, fresh.dst)
    assert global_stats().count("compiled", "miss") == 1


# ----------------------------------------------------------------------
# Per-assignment artifacts are not kept
# ----------------------------------------------------------------------
BURST = StochasticSpec(kind="burst", scope="all").as_dict()


@pytest.mark.parametrize(
    "op, options",
    [
        (
            "tail_point",
            lambda k: {
                "specs": [BURST],
                "clocks": 100,
                "trials": 8,
                "extra_tokens": {5: 1 + k},
            },
        ),
        ("measure", lambda k: {"backend": "schedule", "extra_tokens": {6: 1 + k}}),
    ],
    ids=["tail_point", "measure"],
)
def test_distinct_assignments_leave_no_artifact_behind(op, options):
    """A long-lived context answers ops on six distinct queue sizings
    without keeping an artifact per sizing, and answers each as a
    fresh context does."""
    lis = examples.fig15_lis()
    run = get_op(op)
    ctx = Context(lis, stats=ContextStats())
    answers = [run(ctx, options(0))[0]]
    artifacts = len(ctx._artifacts)
    answers += [run(ctx, options(k))[0] for k in range(1, 6)]
    assert len(ctx._artifacts) == artifacts
    fresh = [run(Context(lis, stats=ContextStats()), options(k))[0] for k in range(6)]
    assert answers == fresh
