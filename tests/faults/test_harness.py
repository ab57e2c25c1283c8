"""Property tests: the LIS robustness invariants hold under every
seeded fault schedule, on every simulator backend, for random systems.

This is the executable form of the paper's central claim -- stalls
(congestion, void inputs, stop glitches, relay jitter) may slow a
latency-insensitive system down transiently, but can never corrupt
the valid value streams, lose or duplicate tokens, overflow a sized
queue, or change the sustainable throughput.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    BACKENDS,
    FAULT_KINDS,
    FaultSpec,
    build_schedule,
    check_invariants,
)
from repro.gen.examples import fig15_lis, uplink_downlink_lis
from repro.lis.equivalence import valid_stream
from repro.lis.trace_sim import TraceSimulator

from ..strategies import lis_systems


@st.composite
def fault_specs(draw, max_horizon: int = 28):
    return FaultSpec(
        kind=draw(st.sampled_from(FAULT_KINDS)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        horizon=draw(st.integers(min_value=0, max_value=max_horizon)),
        density=draw(
            st.floats(
                min_value=0.0, max_value=0.5, allow_nan=False
            )
        ),
        burst=draw(st.integers(min_value=1, max_value=6)),
        gap=draw(st.integers(min_value=0, max_value=8)),
    )


@st.composite
def fault_spec_lists(draw):
    return draw(st.lists(fault_specs(), min_size=1, max_size=2))


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    system=lis_systems(max_shells=4, max_channels=6, max_relays=2),
    specs=fault_spec_lists(),
)
@settings(max_examples=30)
def test_invariants_hold_on_random_systems(backend, system, specs):
    lis, make_behaviors = system
    report = check_invariants(
        lis, specs, backend=backend, behaviors=make_behaviors, measure=120
    )
    assert report.ok, [v.as_dict() for v in report.violations]
    assert report.compared_items >= 4 * len(lis.shells())


@given(
    system=lis_systems(max_shells=4, max_channels=6, max_relays=2),
    specs=fault_spec_lists(),
)
@settings(max_examples=20)
def test_no_token_loss_beyond_the_injected_stalls(system, specs):
    """Quantitative token conservation: over the same clocks, every
    node of the faulted run fires at most as often as the reference
    and the shortfall is bounded by the total injected stall count
    (each stall delays at most one firing, and delays never multiply
    token counts)."""
    lis, make_behaviors = system
    schedule = build_schedule(lis, specs)
    clocks = schedule.clocks + 120
    reference = TraceSimulator(lis, make_behaviors()).run(clocks)
    faulted = TraceSimulator(
        lis, make_behaviors(), faults=schedule.gate()
    ).run(clocks)
    for shell in lis.shells():
        ref = len(valid_stream(reference, shell))
        got = len(valid_stream(faulted, shell))
        assert got <= ref
        assert ref - got <= schedule.total_stalls + schedule.clocks


@pytest.mark.parametrize("backend", BACKENDS)
def test_composed_storm_on_the_paper_example(backend):
    lis = fig15_lis()
    specs = [
        FaultSpec("stall-adversarial", seed=13, horizon=40, burst=8),
        FaultSpec("void-storm", seed=13, horizon=40, burst=10),
        FaultSpec("relay-jitter", seed=13, horizon=40, density=0.5),
    ]
    report = check_invariants(lis, specs, backend=backend)
    assert report.ok, [v.as_dict() for v in report.violations]
    assert report.total_stalls > 0
    # fig15: q=1 degrades the MST to 3/4 and the harness band is
    # anchored on that practical rate, not the 5/6 ideal.
    assert report.actual < report.ideal


def test_queue_sizing_assignment_is_respected_under_faults():
    """The harness validates a concrete ``size_queues`` fix: with the
    optimal extra tokens installed, the post-recovery rate must reach
    the ideal MST and occupancy must stay within the enlarged bound."""
    from repro.core import size_queues

    lis = fig15_lis()
    solution = size_queues(lis, method="exact")
    report = check_invariants(
        lis,
        FaultSpec("stall-random", seed=21, density=0.3),
        backend="trace",
        extra_tokens=solution.extra_tokens,
    )
    assert report.ok, [v.as_dict() for v in report.violations]
    # With the fix installed the practical MST equals the ideal, so the
    # harness band pins the measured rate to the ideal (mod window eps).
    assert report.actual == report.ideal
    assert report.min_rate >= report.ideal - report.epsilon


def test_detects_a_genuinely_divergent_run():
    """Sanity of the detector itself: feeding the faulted run different
    source data must trip the latency-equivalence check."""
    from repro.faults import default_behaviors

    lis = uplink_downlink_lis()
    seeds = iter((1, 2))

    def mismatched_behaviors():
        return default_behaviors(lis, seed=next(seeds))

    report = check_invariants(
        lis,
        FaultSpec("stall-random", seed=1, density=0.1),
        behaviors=mismatched_behaviors,
    )
    assert not report.ok
    assert any(
        v.invariant == "latency-equivalence" for v in report.violations
    )


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        check_invariants(
            fig15_lis(), FaultSpec("stall-random"), backend="quantum"
        )


def test_non_factory_behaviors_rejected():
    with pytest.raises(TypeError, match="factory"):
        check_invariants(
            fig15_lis(), FaultSpec("stall-random"), behaviors={"A": None}
        )


def test_report_as_dict_is_json_able():
    import json

    report = check_invariants(fig15_lis(), FaultSpec("stall-bursty", seed=3))
    payload = report.as_dict()
    text = json.dumps(payload)
    assert json.loads(text)["ok"] is True
    assert payload["specs"][0]["kind"] == "stall-bursty"
