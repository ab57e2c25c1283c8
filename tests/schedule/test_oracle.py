"""The analytic schedule oracle: exactness against the analytic MST,
cycle-exact prediction of the simulators, balanced firing words, and
numpy-vs-reference derivation equality."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

from repro.analysis import get_context
from repro.core import actual_mst, size_queues
from repro.core.scheduling import ScheduleError
from repro.gen import fig1_lis, fig15_lis, ring_lis, uplink_downlink_lis
from repro.lis import TraceSimulator, measured_throughput, schedule_applies
from repro.schedule import (
    derive_schedule,
    derive_schedule_reference,
    is_balanced,
    mechanical_word,
    word_offset,
    word_rate,
)
from tests.strategies import lis_systems

PAPER_EXAMPLES = (
    fig1_lis,
    fig15_lis,
    lambda: ring_lis(5, relays=3),
    uplink_downlink_lis,
)


def oracles_equal(a, b):
    """Structural equality of two derivations of the same system."""
    assert a.transient == b.transient
    assert a.hyperperiod == b.hyperperiod
    assert set(a.node_names) == set(b.node_names)
    for node in a.node_names:
        assert a.firing_word(node) == b.firing_word(node), node
        assert a.firing_plan(node, a.transient + 2 * a.hyperperiod) == (
            b.firing_plan(node, a.transient + 2 * a.hyperperiod)
        ), node
    assert a.max_queue_occupancy() == b.max_queue_occupancy()
    assert set(a.occ_channels) == set(b.occ_channels)
    for channel in a.occ_channels:
        assert a.occupancy_distribution(channel) == (
            b.occupancy_distribution(channel)
        ), channel


# ----------------------------------------------------------------------
# Deterministic paper examples
# ----------------------------------------------------------------------


def test_fig15_oracle_exact_rate_and_period():
    oracle = derive_schedule(fig15_lis())
    assert oracle.transient == 0
    assert oracle.hyperperiod == 4
    assert oracle.min_rate() == Fraction(3, 4)
    assert oracle.throughput("A") == Fraction(3, 4)
    rates = oracle.shell_throughputs()
    assert set(rates.values()) == {Fraction(3, 4)}
    assert oracle.transient == 0


def test_oracle_matches_pure_reference_on_paper_examples():
    for make in PAPER_EXAMPLES:
        lis = make()
        oracles_equal(derive_schedule(lis), derive_schedule_reference(lis))


def test_oracle_rate_equals_analytic_mst_on_paper_examples():
    for make in PAPER_EXAMPLES:
        lis = make()
        assert derive_schedule(lis).min_rate() == actual_mst(lis).mst


def test_firing_words_are_balanced_mechanical_rotations():
    oracle = derive_schedule(fig15_lis())
    for node in oracle.node_names:
        word = oracle.firing_word(node)
        assert word_rate(word) == oracle.throughput(node)
        assert is_balanced(word), node
        assert word_offset(word) is not None, node


def test_firings_consistent_with_firing_plan():
    oracle = derive_schedule(fig15_lis())
    for node in ("A", "B"):
        plan = oracle.firing_plan(node, 37)
        assert oracle.firings(node, 37) == sum(plan)
        assert oracle.firings(node, 37, warmup=11) == sum(plan[11:])
    with pytest.raises(ValueError, match="warmup"):
        oracle.firings("A", 10, warmup=20)


def test_firings_predict_simulator_exactly():
    lis = ring_lis(5, relays=3)
    oracle = derive_schedule(lis)
    sim = TraceSimulator(lis)
    sim.run(97)
    for shell in lis.shells():
        assert oracle.firings(shell, 97) == sum(sim.trace.fired[shell])
        assert oracle.firing_plan(shell, 97) == sim.trace.fired[shell]


def test_peak_occupancy_equals_simulator_exactly():
    for make in PAPER_EXAMPLES:
        lis = make()
        oracle = derive_schedule(lis)
        sim = TraceSimulator(lis)
        sim.run(oracle.transient + oracle.hyperperiod)
        assert oracle.max_queue_occupancy() == sim.max_queue_occupancy()


def test_occupancy_distribution_is_a_distribution():
    oracle = derive_schedule(fig15_lis())
    assert oracle.occ_channels
    for channel in oracle.occ_channels:
        dist = oracle.occupancy_distribution(channel)
        assert sum(dist.values()) == 1
        assert all(level >= 0 for level in dist)
        assert max(dist) <= oracle.max_queue_occupancy()[channel]
    with pytest.raises(KeyError, match="no observable queue"):
        oracle.occupancy_distribution(10_000)


def test_extra_tokens_shift_the_steady_state():
    lis = fig15_lis()
    fix = size_queues(lis, method="exact").extra_tokens
    oracle = derive_schedule(lis, extra_tokens=fix)
    assert oracle.min_rate() == actual_mst(lis, fix).mst == Fraction(5, 6)
    assert derive_schedule(lis).min_rate() == Fraction(3, 4)


def test_budget_exhaustion_raises_schedule_error():
    with pytest.raises(ScheduleError, match="no periodic marking"):
        derive_schedule(fig15_lis(), max_steps=1)


def test_context_memoizes_the_oracle():
    from repro.analysis import Context, ContextStats

    # A fresh, registry-independent context with private counters --
    # get_context() memoizes contexts process-wide, so a shared one may
    # already hold the oracle from an earlier test.
    ctx = Context(fig15_lis(), stats=ContextStats())
    first = ctx.schedule_oracle()
    assert ctx.schedule_oracle() is first
    assert ctx.stats.count("schedule", "miss") == 1
    assert ctx.stats.count("schedule", "hit") == 1
    fix = size_queues(ctx, method="exact").extra_tokens
    other = ctx.schedule_oracle(fix)
    assert other is not first
    again = ctx.schedule_oracle(dict(fix))  # built afresh, not kept
    assert again.shell_throughputs() == other.shell_throughputs()
    assert again.peak_occupancy == other.peak_occupancy
    assert measured_throughput(ctx, "A", backend="schedule") == Fraction(3, 4)


# ----------------------------------------------------------------------
# Hypothesis differential suite (random systems)
# ----------------------------------------------------------------------


@given(system=lis_systems(max_shells=5, max_channels=8))
@settings(deadline=None)
def test_random_systems_schedule_rate_is_exact_mst(system):
    """On every (weakly connected) generated system the oracle's rate
    equals the analytic MST as an exact Fraction, and the simulation
    backends land within the finite-horizon tolerance."""
    lis, _ = system
    assume(schedule_applies(lis))
    from repro.lis import crossvalidate

    oracle = get_context(lis).schedule_oracle()
    assert oracle.min_rate() == actual_mst(lis).mst
    report = crossvalidate(lis, clocks=200, warmup=80)
    assert report["agreed"], report
    assert report["schedule"] == report["analytic"]


@given(system=lis_systems(max_shells=4, max_channels=6))
@settings(deadline=None)
def test_random_systems_peak_occupancy_exact(system):
    """Exact-Fraction (integer) equality of the oracle's peak queue
    occupancy with the simulator's, once the horizon covers one full
    transient + hyperperiod."""
    lis, _ = system
    assume(schedule_applies(lis))
    oracle = get_context(lis).schedule_oracle()
    sim = TraceSimulator(lis)
    sim.run(oracle.transient + oracle.hyperperiod)
    assert oracle.max_queue_occupancy() == sim.max_queue_occupancy()


@given(system=lis_systems(max_shells=4, max_channels=6, max_latency=2))
@settings(max_examples=50, deadline=None)
def test_random_systems_numpy_matches_reference(system):
    """The compiled-array walk and the pure marked-graph walk derive
    the identical decomposition."""
    lis, _ = system
    oracles_equal(derive_schedule(lis), derive_schedule_reference(lis))


@given(system=lis_systems(max_shells=4, max_channels=6))
@settings(max_examples=50, deadline=None)
def test_random_systems_words_have_balanced_normal_form(system):
    """Every steady-state firing word carries the exact throughput as
    its density, and a balanced word of that exact rate exists (the
    mechanical word) -- ASAP words themselves need not be balanced
    (``1100`` shows up on tiny rings), so balancedness is only asserted
    when it holds, via the offset round-trip."""
    lis, _ = system
    assume(schedule_applies(lis))
    oracle = get_context(lis).schedule_oracle()
    for node in oracle.node_names:
        word = oracle.firing_word(node)
        rate = word_rate(word)
        assert rate == oracle.throughput(node)
        normal = mechanical_word(rate.numerator, rate.denominator)
        assert is_balanced(normal)
        assert word_rate(normal) == rate
        if is_balanced(word):
            offset = word_offset(word)
            assert offset is not None
            assert mechanical_word(sum(word), len(word), offset) == word
        else:
            assert word_offset(word) is None
