"""The LIS -> flat-array compiler behind the vectorized kernel."""

import numpy as np
import pytest

from repro.core import LisGraph
from repro.core.lis_graph import LisError
from repro.gen import fig1_lis, fig15_lis
from repro.sim import BatchSimulator, compile_lis


def test_columns_cover_every_place():
    lis = fig15_lis()
    mg = lis.doubled_marked_graph()
    compiled = compile_lis(lis)
    assert compiled.n_places == len(mg.places)
    assert int(compiled.tokens0.sum()) == mg.total_tokens()
    assert compiled.n_nodes == len(mg.transitions)
    assert set(compiled.node_names) == set(mg.transitions)


def test_columns_grouped_by_consumer():
    compiled = compile_lis(fig15_lis())
    assert np.all(np.diff(compiled.dst) >= 0)
    width = compiled.slot_width
    assert width == np.bincount(compiled.dst).max()
    assert compiled.n_slots == compiled.n_nodes * width
    # Each column has its own slot in its consumer's block, and every
    # slot's consumer is the node that owns the block.
    assert len(set(compiled.place_slot.tolist())) == compiled.n_places
    owner = np.arange(compiled.n_slots) // width
    assert np.array_equal(compiled.slot_dst, owner)
    assert np.array_equal(compiled.slot_src[compiled.place_slot], compiled.src)
    # Padding slots are self-loops of their node holding one token.
    padding = np.setdiff1d(np.arange(compiled.n_slots), compiled.place_slot)
    assert padding.size == compiled.n_slots - compiled.n_places > 0
    assert np.array_equal(compiled.slot_src[padding], owner[padding])
    marking = compiled.slot_marking([{}], horizon=1)
    assert np.all(marking[padding] == 1)
    assert np.array_equal(marking[compiled.place_slot, 0], compiled.tokens0)


def test_sizable_columns_match_lis_backedges():
    lis = fig15_lis()
    compiled = compile_lis(lis)
    assert set(compiled.sizable_col) == set(lis.channel_ids())
    # Each sizable column starts with the channel's queue capacity.
    for cid, col in compiled.sizable_col.items():
        assert compiled.tokens0[col] == lis.queue(cid)


def test_occupancy_columns_are_the_shell_queues():
    lis = fig15_lis()
    compiled = compile_lis(lis)
    assert sorted(compiled.occ_channels) == lis.channel_ids()
    # Shell-side forward places start with one token (the latched datum).
    assert np.all(compiled.tokens0[compiled.occ_cols] == 1)


def test_initial_tokens_batch_and_validation():
    lis = fig1_lis()
    compiled = compile_lis(lis)
    tokens = compiled.initial_tokens([{}, {1: 2}])
    assert tokens.shape == (2, compiled.n_places)
    col = compiled.sizable_col[1]
    assert tokens[1, col] - tokens[0, col] == 2
    with pytest.raises(LisError):
        compiled.initial_tokens([{99: 1}])
    with pytest.raises(LisError):
        compiled.initial_tokens([{1: -1}])
    with pytest.raises(ValueError):
        compiled.initial_tokens([])


def test_single_shell_no_channels_compiles():
    lis = LisGraph()
    lis.add_shell("only")
    compiled = compile_lis(lis)
    assert compiled.n_places == 0
    # Its one slot is padding, so the shell is always enabled.
    assert compiled.slot_width == 1
    assert compiled.slot_src.tolist() == compiled.slot_dst.tolist() == [0]
    assert BatchSimulator(lis).run(3).counts.tolist() == [[3]]


def test_pipelined_core_expands_stages():
    lis = LisGraph()
    lis.add_shell("A", latency=3)
    lis.add_channel("A", "A")
    compiled = compile_lis(lis)
    assert compiled.n_nodes == 3  # core + two stages
    assert sum(compiled.is_shell) == 1
    # The self-channel is the only occupancy column.
    assert compiled.occ_channels == (0,)
