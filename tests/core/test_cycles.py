"""Tests for deficient-cycle analysis and the SCC collapse."""

from fractions import Fraction

import pytest

from repro.core import (
    CollapseError,
    LisGraph,
    actual_mst,
    collapse_sccs,
    cycle_records,
    deficient_cycles,
    ideal_mst,
    is_collapsible,
    size_queues,
)
from repro.core.cycles import total_extra_tokens
from repro.gen import fig1_lis, fig15_lis, ring_lis


def test_cycle_records_on_fig1_doubled():
    mg = fig1_lis().doubled_marked_graph()
    records = cycle_records(mg)
    # Node cycles: A<->B via four place pairings plus A<->rs and rs<->B
    # edge/backedge pairs and the 3-hop mixed cycles.
    means = sorted(r.mean for r in records)
    assert means[0] == Fraction(2, 3)  # the Fig. 5 critical cycle
    assert all(r.length == len(r.places) for r in records)


def test_deficit_computation():
    mg = fig1_lis().doubled_marked_graph()
    (worst,) = deficient_cycles(mg, Fraction(1))
    assert worst.mean == Fraction(2, 3)
    assert worst.deficit(Fraction(1)) == 1
    assert worst.deficit(Fraction(2, 3)) == 0
    assert worst.deficit(Fraction(5, 6)) == 1  # ceil(5/6*3 - 2) = 1


def test_deficient_cycles_channels_are_sizable_only():
    mg = fig15_lis().doubled_marked_graph()
    for record in deficient_cycles(mg, Fraction(5, 6)):
        assert record.channels  # every deficient cycle can be fixed
        for cid in record.channels:
            assert 0 <= cid <= 6


def test_fig15_deficient_cycle_set():
    """Three deficient doubled cycles, all fixable via channels 5/6."""
    mg = fig15_lis().doubled_marked_graph()
    records = deficient_cycles(mg, Fraction(5, 6))
    assert len(records) == 3
    assert {r.mean for r in records} <= {Fraction(3, 4), Fraction(4, 5)}
    union = set()
    for r in records:
        union |= r.channels
    assert {5, 6} <= union


def test_is_collapsible():
    assert is_collapsible(fig1_lis())  # trivial SCCs, inter-SCC relay
    assert not is_collapsible(ring_lis(3, relays=1))  # intra-SCC relay
    assert is_collapsible(ring_lis(3))  # no relays at all


def test_pipelined_core_blocks_the_collapse():
    """A latency-2 core on one branch of a reconvergence acts as a
    relay station; the collapse would drop it, size nothing, and leave
    the system at 3/4."""
    lis = LisGraph()
    lis.add_shell("b", latency=2)
    lis.add_channel("a", "b")
    short = lis.add_channel("a", "c")
    lis.add_channel("b", "c")
    assert not is_collapsible(lis)
    with pytest.raises(CollapseError):
        collapse_sccs(lis)
    solution = size_queues(lis)
    assert solution.extra_tokens == {short: 1}
    assert solution.achieved == solution.target == 1


def test_collapse_requires_inter_scc_relays():
    with pytest.raises(CollapseError):
        collapse_sccs(ring_lis(3, relays=1))


def test_collapse_merges_scc_and_maps_channels():
    # Two 3-rings connected by one pipelined channel.
    lis = LisGraph()
    for ring_id in (0, 1):
        names = [f"r{ring_id}n{i}" for i in range(3)]
        for i, name in enumerate(names):
            lis.add_channel(name, names[(i + 1) % 3])
    bridge = lis.add_channel("r0n0", "r1n0", relays=2)
    collapsed, channel_map = collapse_sccs(lis)
    assert collapsed.system.number_of_nodes() == 2
    assert len(collapsed.channels()) == 1
    (new_cid,) = collapsed.channel_ids()
    assert channel_map[new_cid] == bridge
    assert collapsed.relays(new_cid) == 2
    assert collapsed.queue(new_cid) == lis.queue(bridge)


def test_collapsed_solution_is_equivalent():
    """A diamond of SCCs with inter-SCC relays: the deficits computed on
    the collapsed system equal those on the full system (q = 1)."""
    lis = LisGraph()
    # Four 2-rings (SCCs) in a diamond: s0 -> s1 -> s3, s0 -> s2 -> s3.
    for s in range(4):
        a, b = f"s{s}a", f"s{s}b"
        lis.add_channel(a, b)
        lis.add_channel(b, a)
    c01 = lis.add_channel("s0a", "s1a", relays=2)
    lis.add_channel("s0b", "s2a")
    lis.add_channel("s1b", "s3a")
    lis.add_channel("s2b", "s3b")
    assert is_collapsible(lis)
    collapsed, channel_map = collapse_sccs(lis)

    full = deficient_cycles(lis.doubled_marked_graph(), Fraction(1))
    small = deficient_cycles(collapsed.doubled_marked_graph(), Fraction(1))
    # Many full-graph cycles (one per intra-SCC routing) collapse onto
    # far fewer cycles, but the distinct deficits coincide.
    assert len(small) < len(full)
    assert {r.deficit(Fraction(1)) for r in full} == {
        r.deficit(Fraction(1)) for r in small
    }
    # Every inter-SCC channel a collapsed cycle can use maps back to a
    # channel some full-graph cycle also uses.
    full_channels = {c for r in full for c in r.channels}
    for record in small:
        for c in record.channels:
            assert channel_map[c] in full_channels
    # The relayed channel itself is traversed forward by the deficient
    # cycles, so the fix must land on the *reconvergent* path's
    # backedges -- never on c01's own backedge.
    assert c01 not in full_channels

    # Solution equivalence: sizing via the collapsed system restores
    # the ideal MST of the original, at the same cost as solving the
    # full system directly.
    from repro.core import size_queues

    via_collapse = size_queues(lis, method="exact", collapse="always")
    direct = size_queues(lis, method="exact", collapse="never")
    assert via_collapse.restores_target and direct.restores_target
    assert via_collapse.cost == direct.cost


def test_collapse_of_acyclic_system_is_identity_shaped():
    lis = fig1_lis()
    collapsed, channel_map = collapse_sccs(lis)
    assert collapsed.system.number_of_nodes() == 2
    assert len(collapsed.channels()) == 2
    assert sorted(channel_map.values()) == [0, 1]
    assert ideal_mst(collapsed).mst == ideal_mst(lis).mst
    assert actual_mst(collapsed).mst == actual_mst(lis).mst


def test_total_extra_tokens_helper():
    assert total_extra_tokens({1: 2, 5: 3}) == 5
    assert total_extra_tokens([(1, 2), (5, 3)]) == 5
    assert total_extra_tokens({}) == 0
