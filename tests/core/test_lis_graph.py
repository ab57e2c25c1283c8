"""Tests for the LIS system model and its marked-graph lowerings."""

import sys
import threading

import pytest

from repro.core import RELAY_CAPACITY, LisError, LisGraph, relay_name
from repro.gen import GeneratorConfig, fig1_lis, generate_lis


def test_add_channel_defaults():
    lis = LisGraph()
    cid = lis.add_channel("a", "b")
    assert lis.queue(cid) == 1
    assert lis.relays(cid) == 0
    assert lis.shells() == ["a", "b"]


def test_default_queue_propagates():
    lis = LisGraph(default_queue=3)
    cid = lis.add_channel("a", "b")
    assert lis.queue(cid) == 3


def test_invalid_parameters_raise():
    with pytest.raises(LisError):
        LisGraph(default_queue=0)
    lis = LisGraph()
    with pytest.raises(LisError):
        lis.add_channel("a", "b", queue=0)
    with pytest.raises(LisError):
        lis.add_channel("a", "b", relays=-1)
    cid = lis.add_channel("a", "b")
    with pytest.raises(LisError):
        lis.set_queue(cid, 0)
    with pytest.raises(LisError):
        lis.remove_relay(cid, 1)


def test_parallel_channels_allowed():
    lis = fig1_lis()
    assert len(lis.channels()) == 2
    assert lis.relays(0) == 1
    assert lis.relays(1) == 0


def test_relay_insertion_and_removal():
    lis = LisGraph()
    cid = lis.add_channel("a", "b")
    lis.insert_relay(cid, 2)
    assert lis.relays(cid) == 2
    assert lis.total_relays() == 2
    lis.remove_relay(cid)
    assert lis.relays(cid) == 1


def test_set_all_queues():
    lis = fig1_lis()
    lis.set_all_queues(4)
    assert all(lis.queue(c) == 4 for c in lis.channel_ids())


def test_from_edges():
    lis = LisGraph.from_edges([("a", "b"), ("b", "c")], queue=2)
    assert len(lis.channels()) == 2
    assert all(lis.queue(c) == 2 for c in lis.channel_ids())


def test_copy_is_independent():
    lis = fig1_lis()
    clone = lis.copy()
    clone.insert_relay(0)
    assert lis.relays(0) == 1
    assert clone.relays(0) == 2


def test_ideal_marked_graph_structure():
    """Fig. 1's ideal marked graph: A, B, one relay station; tokens per
    the head-of-edge convention (1 into shells, 0 into relays)."""
    lis = fig1_lis()
    mg = lis.ideal_marked_graph()
    rs = relay_name(0, 0)
    assert set(mg.transitions) == {"A", "B", rs}
    assert mg.graph.node_data(rs)["kind"] == "relay"
    tokens = {
        (p.src, p.dst): p.data["tokens"] for p in mg.places
    }
    assert tokens[("A", rs)] == 0  # into relay station: void at t0
    assert tokens[(rs, "B")] == 1  # into shell
    assert tokens[("A", "B")] == 1  # lower channel, into shell
    assert all(p.data["kind"] == "fwd" for p in mg.places)


def test_doubled_marked_graph_backedges():
    lis = fig1_lis()
    mg = lis.doubled_marked_graph()
    rs = relay_name(0, 0)
    back = {
        (p.src, p.dst): p for p in mg.places if p.data["kind"] == "back"
    }
    # Backedge of A->rs segment: capacity of the relay station.
    assert back[(rs, "A")].data["tokens"] == RELAY_CAPACITY
    # Backedge of rs->B segment: B's queue for the upper channel.
    assert back[("B", rs)].data["tokens"] == 1
    assert back[("B", rs)].data["sizable"]
    assert not back[(rs, "A")].data["sizable"]
    # Lower channel backedge.
    lower = [
        p for (s, d), p in back.items() if (s, d) == ("B", "A")
    ]
    assert len(lower) == 1 and lower[0].data["tokens"] == 1
    # Forward and backward place counts match.
    fwd = [p for p in mg.places if p.data["kind"] == "fwd"]
    assert len(fwd) == len(back)


def test_doubled_with_extra_tokens():
    lis = fig1_lis()
    mg = lis.doubled_marked_graph(extra_tokens={1: 1})  # lower channel +1
    lower_back = [
        p
        for p in mg.places
        if p.data["kind"] == "back" and p.data["channel"] == 1
    ]
    assert lower_back[0].data["tokens"] == 2


def test_doubled_extra_tokens_validation():
    lis = fig1_lis()
    with pytest.raises(LisError):
        lis.doubled_marked_graph(extra_tokens={99: 1})
    with pytest.raises(LisError):
        lis.doubled_marked_graph(extra_tokens={0: -1})


def test_multi_relay_chain_expansion():
    lis = LisGraph()
    cid = lis.add_channel("a", "b", relays=3)
    mg = lis.doubled_marked_graph()
    # Chain a -> rs0 -> rs1 -> rs2 -> b: 4 forward + 4 backward places.
    assert mg.graph.number_of_edges() == 8
    fwd_tokens = sorted(
        p.data["tokens"] for p in mg.places if p.data["kind"] == "fwd"
    )
    assert fwd_tokens == [0, 0, 0, 1]
    back_tokens = sorted(
        p.data["tokens"] for p in mg.places if p.data["kind"] == "back"
    )
    assert back_tokens == [1, 2, 2, 2]
    assert lis.relays(cid) == 3


def test_sizable_backedges_mapping():
    lis = fig1_lis()
    mg = lis.doubled_marked_graph()
    mapping = lis.sizable_backedges(mg)
    assert set(mapping) == {0, 1}
    for cid, key in mapping.items():
        place = mg.graph.edge(key)
        assert place.data["kind"] == "back"
        assert place.data["channel"] == cid
        assert place.data["sizable"]


def test_frozen_graph_memoizes_content_values():
    lis = fig1_lis()
    assert lis.scc_map() is not lis.scc_map()  # mutable: built afresh
    frozen = lis.freeze()
    assert frozen.scc_map() is frozen.scc_map()
    assert frozen.fingerprint() is frozen.fingerprint()
    clone = frozen.copy()
    assert not clone.frozen and clone.scc_map() == frozen.scc_map()


def test_frozen_memo_hands_every_thread_one_value():
    """Threads racing to build a memoized value all get the one that
    was stored: a lost update would hand out distinct copies."""
    lis = generate_lis(GeneratorConfig(v=100, s=10, c=5, rs=10, seed=1)).freeze()
    results: list = []
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait(timeout=30)
        results.append(lis.scc_map())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 8
    assert all(result is results[0] for result in results)
