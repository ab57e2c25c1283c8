"""MST analysis tests: every worked example of the paper is checked here."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    LisGraph,
    actual_mst,
    cycle_time,
    degradation_ratio,
    ideal_mst,
    mst_per_scc,
)
from repro.gen import (
    fig1_lis,
    fig2_right_lis,
    fig10_limiter_lis,
    fig15_lis,
    ring_lis,
    tree_lis,
    uplink_downlink_lis,
)


def test_fig1_ideal_mst_is_one():
    """No feedback loop: the relay station's tau leaves the system."""
    result = ideal_mst(fig1_lis())
    assert result.mst == 1
    assert not result.is_degraded
    assert result.critical is None


def test_fig5_doubled_mst_two_thirds():
    """Fig. 5: with q=1 backpressure, the cycle {A, rs, B, A} has three
    places and two tokens, so the MST drops to 2/3."""
    result = actual_mst(fig1_lis())
    assert result.mst == Fraction(2, 3)
    assert result.is_degraded
    assert len(result.critical) == 3
    assert sum(p.data["tokens"] for p in result.critical) == 2


def test_fig5_cycle_time_is_three_halves():
    mg = fig1_lis().doubled_marked_graph()
    assert cycle_time(mg) == Fraction(3, 2)


def test_fig6_queue_of_two_restores_mst():
    """Fig. 6: one extra token on the lower channel's backedge."""
    assert actual_mst(fig1_lis(), extra_tokens={1: 1}).mst == 1
    # Equivalently, configure the queue itself.
    lis = fig1_lis()
    lis.set_queue(1, 2)
    assert actual_mst(lis).mst == 1


def test_fig2_right_relay_insertion_restores_mst():
    """Equalizing the two paths with a second relay station: MST = 1."""
    lis = fig2_right_lis()
    assert ideal_mst(lis).mst == 1
    assert actual_mst(lis).mst == 1


def test_fig15_numbers():
    """Fig. 15: ideal 5/6; doubled with q=1 degrades to 3/4."""
    lis = fig15_lis()
    assert ideal_mst(lis).mst == Fraction(5, 6)
    assert actual_mst(lis).mst == Fraction(3, 4)


def test_fig15_relay_insertion_cannot_recover():
    """Adding a relay station on (A,C) or (C,E) lowers the *ideal* MST
    to 3/4, so insertion alone can never reach 5/6 (Section VI)."""
    for channel in (5, 6):  # (A,C) and (C,E)
        lis = fig15_lis()
        lis.insert_relay(channel)
        assert ideal_mst(lis).mst == Fraction(3, 4)


def test_fig15_queue_sizing_recovers():
    """One extra queue slot on (A,C) and one on (C,E) recovers 5/6."""
    lis = fig15_lis()
    assert actual_mst(lis, extra_tokens={5: 1, 6: 1}).mst == Fraction(5, 6)


def test_fig10_limiter_is_five_sixths():
    result = ideal_mst(fig10_limiter_lis())
    assert result.mst == Fraction(5, 6)
    assert len(result.critical) == 6


def test_uplink_downlink_sccs():
    """Intro example: uplink MST 3/4 feeding downlink MST 2/3."""
    lis = uplink_downlink_lis()
    per_scc = mst_per_scc(lis.ideal_marked_graph())
    values = sorted(v for k, v in per_scc.items() if len(k) > 1)
    assert values == [Fraction(2, 3), Fraction(3, 4)]
    assert ideal_mst(lis).mst == Fraction(2, 3)


def test_ring_mst_formula():
    for n, relays in [(3, 0), (3, 1), (4, 2), (5, 3)]:
        lis = ring_lis(n, relays)
        expected = min(Fraction(1), Fraction(n, n + relays))
        assert ideal_mst(lis).mst == expected


def test_tree_never_degrades_with_q1():
    """Section IV-A: trees keep MST 1 with q = 1, any relay count."""
    for relays in (1, 3):
        lis = tree_lis(depth=3, fanout=2, relays_per_channel=relays)
        assert ideal_mst(lis).mst == 1
        assert actual_mst(lis).mst == 1


def test_cycle_time_none_for_acyclic_or_dead():
    lis = LisGraph.from_edges([("a", "b")])
    assert cycle_time(lis.ideal_marked_graph()) is None  # acyclic
    dead = ring_lis(2)
    mg = dead.ideal_marked_graph()
    for place in mg.places:
        mg.set_tokens(place.key, 0)
    assert cycle_time(mg) is None  # deadlocked


def test_degradation_ratio():
    assert degradation_ratio(fig1_lis()) == Fraction(2, 3)
    assert degradation_ratio(fig1_lis(), extra_tokens={1: 1}) == 1


def test_degradation_ratio_raises_on_dead_ideal():
    lis = ring_lis(2)
    mgless = lis.copy()
    # A 2-ring of shells is live (tokens on both places); force deadlock
    # by relays on both channels making a token-free cycle impossible to
    # construct through the public API -- instead check the error path
    # directly with a custom marked graph via monkeypatched ideal.
    from repro.core import throughput

    class DeadLis(LisGraph):
        def ideal_marked_graph(self):
            from repro.core import MarkedGraph

            mg = MarkedGraph()
            mg.add_place("x", "y", tokens=0)
            mg.add_place("y", "x", tokens=0)
            return mg

        def doubled_marked_graph(self, extra_tokens=None):
            return self.ideal_marked_graph()

    with pytest.raises(ValueError):
        throughput.degradation_ratio(DeadLis())
    assert mgless is not None


def test_mst_monotone_in_queue_capacity_examples():
    lis = fig1_lis()
    values = []
    for q in range(1, 5):
        lis.set_all_queues(q)
        values.append(actual_mst(lis).mst)
    assert values == sorted(values)
    assert values[-1] == 1


@given(
    n=st.integers(min_value=2, max_value=6),
    relays=st.integers(min_value=0, max_value=4),
    q=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60)
def test_backpressure_never_helps(n, relays, q):
    """theta(d[G]) <= theta(G) for rings of any configuration."""
    lis = ring_lis(n, relays, queue=q)
    assert actual_mst(lis).mst <= ideal_mst(lis).mst


@given(
    n=st.integers(min_value=2, max_value=5),
    relays=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=40)
def test_conservative_fixed_qs_bound(n, relays):
    """Section IV: q = r + 1 always preserves the ideal MST."""
    lis = ring_lis(n, relays)
    lis.set_all_queues(lis.total_relays() + 1)
    assert actual_mst(lis).mst == ideal_mst(lis).mst
