"""Tests for LIS JSON serialization."""

import json
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from repro.core import LisGraph, actual_mst, ideal_mst
from repro.core.serialize import (
    lis_from_json,
    lis_to_json,
    load_lis,
    save_lis,
)
from repro.gen import fig1_lis, fig15_lis
from tests.strategies import lis_graphs


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


def _dumps_reference(lis: LisGraph) -> str:
    """The reference canonical text: the document built as a dict and
    written by ``json.dumps(doc, indent=2)``."""
    shells = {}
    for shell in lis.shells():
        entry = {}
        latency = lis.latency(shell)
        if latency != 1:
            entry["latency"] = latency
        shells[str(shell)] = entry
    channels = []
    for channel in lis.channels():
        entry = {"src": str(channel.src), "dst": str(channel.dst)}
        if channel.data["queue"] != lis.default_queue:
            entry["queue"] = channel.data["queue"]
        if channel.data["relays"]:
            entry["relays"] = channel.data["relays"]
        channels.append(entry)
    return json.dumps(
        {
            "default_queue": lis.default_queue,
            "shells": shells,
            "channels": channels,
        },
        indent=2,
    )


#: Shell names with quotes, backslashes, control and non-ASCII
#: characters, and ints (``1`` and ``"1"`` stringify alike).
_NAMES = st.one_of(
    st.text(
        alphabet=st.sampled_from('ab"\\/\n\t\x00\x1f\x7fé☃\U0001F600 '),
        max_size=4,
    ),
    st.text(max_size=3),
    st.integers(min_value=-2, max_value=2),
)


@st.composite
def _odd_systems(draw):
    """Systems with odd shell names, pipelined cores, a non-default
    default queue and channels that override it."""
    names = draw(st.lists(_NAMES, min_size=1, max_size=5, unique=True))
    lis = LisGraph(default_queue=draw(st.integers(min_value=1, max_value=3)))
    for name in names:
        lis.add_shell(name, latency=draw(st.integers(min_value=1, max_value=4)))
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        lis.add_channel(
            draw(st.sampled_from(names)),
            draw(st.sampled_from(names)),
            queue=draw(st.none() | st.integers(min_value=1, max_value=4)),
            relays=draw(st.integers(min_value=0, max_value=2)),
        )
    return lis


@given(
    st.one_of(
        st.just(LisGraph()),
        lis_graphs(),
        lis_graphs(max_latency=3),
        _odd_systems(),
    )
)
def test_direct_writer_matches_json_dumps(lis):
    assert lis_to_json(lis) == _dumps_reference(lis)
    frozen = lis.copy().freeze()
    assert lis_to_json(frozen) == lis_to_json(frozen) == _dumps_reference(lis)
