"""Unit tests for the fault specs and compiled schedules."""

import numpy as np
import pytest

from repro.core import LisGraph
from repro.faults import (
    FAULT_KINDS,
    FaultSpec,
    adversarial_stalls,
    build_schedule,
    bursty_stalls,
    default_behaviors,
    random_stalls,
    relay_jitter,
    stop_glitches,
    structural_nodes,
    void_storm,
)
from repro.gen.examples import fig15_lis


def chain_lis():
    lis = LisGraph()
    lis.add_shell("src")
    lis.add_shell("mid", latency=2)
    lis.add_shell("dst")
    lis.add_channel("src", "mid", relays=1)  # 0
    lis.add_channel("mid", "dst")  # 1
    return lis


def stalled_nodes(schedule):
    """The nodes a schedule stalls at least once."""
    return {
        node
        for j, node in enumerate(schedule.nodes)
        if schedule.stalled[:, :, j].any()
    }


def test_spec_round_trips_through_json_dict():
    spec = FaultSpec(
        "stall-bursty", seed=7, horizon=32, density=0.1, burst=3, gap=5,
        nodes=("A", "B"),
    )
    assert FaultSpec.from_dict(spec.as_dict()) == spec


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec("meteor-strike")
    with pytest.raises(ValueError, match="horizon"):
        FaultSpec("stall-random", horizon=-1)
    with pytest.raises(ValueError, match="density"):
        FaultSpec("stall-random", density=1.5)
    with pytest.raises(ValueError, match="burst"):
        FaultSpec("stall-bursty", burst=0)


def test_factories_cover_every_kind():
    made = {
        f().kind
        for f in (
            random_stalls,
            bursty_stalls,
            adversarial_stalls,
            void_storm,
            stop_glitches,
            relay_jitter,
        )
    }
    assert made == set(FAULT_KINDS)


def test_structural_nodes_use_the_shared_backend_naming():
    nodes = structural_nodes(chain_lis())
    assert "src" in nodes and "mid" in nodes and "dst" in nodes
    assert ("stage", "mid", 0) in nodes  # latency-2 pipeline stage
    assert ("rs", 0, 0) in nodes  # relay station on channel 0
    assert nodes == sorted(nodes, key=repr)


def test_build_schedule_is_deterministic():
    lis = fig15_lis()
    specs = [random_stalls(seed=11), bursty_stalls(seed=3)]
    a = build_schedule(lis, specs)
    b = build_schedule(lis, specs)
    assert a.nodes == b.nodes == tuple(structural_nodes(lis))
    assert np.array_equal(a.stalled, b.stalled)
    assert a.clocks == b.clocks == 48
    assert a.trials == 1
    assert a.stalled.shape == (48, 1, len(a.nodes))
    assert a.total_stalls > 0
    # A different seed draws a different schedule.
    c = build_schedule(lis, [random_stalls(seed=12)])
    d = build_schedule(lis, [random_stalls(seed=11)])
    assert not np.array_equal(c.stalled, d.stalled)


def test_schedule_quiet_after_horizon():
    schedule = build_schedule(fig15_lis(), random_stalls(seed=1, horizon=16))
    assert schedule.clocks == 16
    gate = schedule.gate()
    for node in schedule.nodes:
        assert not gate(node, 16)
        assert not gate(node, 1_000)


def test_void_storm_and_stop_glitch_target_the_environment_edges():
    lis = chain_lis()
    storm = build_schedule(lis, void_storm(seed=2))
    assert stalled_nodes(storm) <= {"src"}  # only the source shell
    glitch = build_schedule(lis, stop_glitches(seed=2, density=0.9))
    assert stalled_nodes(glitch) <= {"dst"}  # only the sink shell


def test_relay_jitter_targets_relay_stations_only():
    schedule = build_schedule(fig15_lis(), relay_jitter(seed=5, density=0.9))
    assert stalled_nodes(schedule)
    assert all(
        isinstance(n, tuple) and n[0] == "rs" for n in stalled_nodes(schedule)
    )


def test_adversarial_stalls_focus_on_the_critical_cycle():
    from repro.core import actual_mst

    lis = fig15_lis()
    result = actual_mst(lis)
    crit = {e.src for e in result.critical} | {e.dst for e in result.critical}
    schedule = build_schedule(lis, adversarial_stalls(seed=9))
    assert stalled_nodes(schedule)
    assert stalled_nodes(schedule) <= crit


def test_explicit_nodes_override_matches_str_and_repr():
    lis = chain_lis()
    schedule = build_schedule(
        lis,
        FaultSpec(
            "stall-random",
            density=0.9,
            # str() form for the shell, repr() form for the tuple node.
            nodes=("src", repr(("rs", 0, 0))),
        ),
    )
    assert stalled_nodes(schedule) == {"src", ("rs", 0, 0)}


def test_mask_agrees_with_gate():
    from repro.sim import compile_lis

    lis = fig15_lis()
    schedule = build_schedule(
        lis, [random_stalls(seed=4), relay_jitter(seed=4, density=0.8)]
    )
    compiled = compile_lis(lis)
    mask = schedule.mask(compiled)
    assert mask.shape == (schedule.clocks, 1, compiled.n_nodes)
    assert mask.dtype == np.bool_
    gate = schedule.gate()
    for t in range(schedule.clocks + 8):
        for i, name in enumerate(compiled.node_names):
            stalled = t < schedule.clocks and bool(mask[t, 0, i])
            assert stalled == gate(name, t)


def test_default_behaviors_are_seeded_and_stateful():
    lis = fig15_lis()
    a = default_behaviors(lis, seed=1)
    b = default_behaviors(lis, seed=1)
    c = default_behaviors(lis, seed=2)
    assert set(a) == set(lis.shells())
    assert [bh.initial for bh in a.values()] == [
        bh.initial for bh in b.values()
    ]
    assert [bh.initial for bh in a.values()] != [
        bh.initial for bh in c.values()
    ]
