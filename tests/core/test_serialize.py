"""Tests for LIS JSON serialization."""

from fractions import Fraction

from repro.core import LisGraph, actual_mst, ideal_mst
from repro.core.serialize import (
    lis_from_json,
    lis_to_json,
    load_lis,
    save_lis,
)
from repro.gen import fig1_lis, fig15_lis


def test_roundtrip_preserves_structure():
    lis = fig15_lis()
    lis.set_queue(3, 4)
    clone = lis_from_json(lis_to_json(lis))
    assert clone.system.number_of_nodes() == lis.system.number_of_nodes()
    assert len(clone.channels()) == len(lis.channels())
    assert ideal_mst(clone).mst == ideal_mst(lis).mst
    assert actual_mst(clone).mst == actual_mst(lis).mst
    assert clone.queue(3) == 4


def test_roundtrip_preserves_channel_ids():
    """Channel ids are array indices, so solutions stay meaningful."""
    lis = fig1_lis()
    clone = lis_from_json(lis_to_json(lis))
    for cid in lis.channel_ids():
        original = lis.channel(cid)
        restored = clone.channel(cid)
        assert (str(original.src), str(original.dst)) == (
            restored.src,
            restored.dst,
        )
        assert original.data["relays"] == restored.data["relays"]


def test_roundtrip_preserves_latency():
    lis = LisGraph()
    lis.add_shell("m", latency=3)
    lis.add_channel("m", "n")
    clone = lis_from_json(lis_to_json(lis))
    assert clone.latency("m") == 3
    assert clone.latency("n") == 1


def test_default_queue_in_document():
    lis = LisGraph(default_queue=2)
    lis.add_channel("a", "b")
    lis.add_channel("a", "b", queue=5)
    clone = lis_from_json(lis_to_json(lis))
    assert clone.default_queue == 2
    assert clone.queue(0) == 2
    assert clone.queue(1) == 5


def test_implicit_shells_from_channels():
    clone = lis_from_json(
        '{"channels": [{"src": "x", "dst": "y"}]}'
    )
    assert set(clone.shells()) == {"x", "y"}
    assert clone.queue(0) == 1


def test_save_and_load(tmp_path):
    path = tmp_path / "system.json"
    save_lis(fig1_lis(), path)
    clone = load_lis(path)
    assert actual_mst(clone).mst == Fraction(2, 3)
