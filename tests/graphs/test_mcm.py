"""Tests for minimum-cycle-mean algorithms (Karp, Howard, witness cycles)."""

import contextlib
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.marked_graph import place_tokens
from repro.core.throughput import ideal_mst, ideal_mst_compact
from repro.gen import mesh_lis
from repro.graphs import (
    Digraph,
    critical_cycle,
    elementary_edge_cycles,
    howard_minimum_cycle_mean,
    karp_minimum_cycle_mean,
    minimum_cycle_mean,
)
from tests.strategies import weighted_digraphs

W = lambda e: e.data["w"]  # noqa: E731


def brute_force_mcm(g):
    best = None
    for cycle in elementary_edge_cycles(g):
        mean = Fraction(sum(W(e) for e in cycle), len(cycle))
        if best is None or mean < best:
            best = mean
    return best


def ring(weights):
    g = Digraph()
    n = len(weights)
    for i, w in enumerate(weights):
        g.add_edge(i, (i + 1) % n, w=w)
    return g


def test_single_ring_mean():
    g = ring([1, 0, 1])
    assert karp_minimum_cycle_mean(g, W) == Fraction(2, 3)
    assert howard_minimum_cycle_mean(g, W) == Fraction(2, 3)


def test_acyclic_returns_none():
    g = Digraph()
    g.add_edge("a", "b", w=1)
    g.add_edge("b", "c", w=1)
    assert karp_minimum_cycle_mean(g, W) is None
    assert howard_minimum_cycle_mean(g, W) is None
    assert minimum_cycle_mean(g, W) is None


def test_self_loop_mean():
    g = Digraph()
    g.add_edge("a", "a", w=3)
    assert karp_minimum_cycle_mean(g, W) == Fraction(3)
    assert howard_minimum_cycle_mean(g, W) == Fraction(3)


def test_parallel_edges_pick_cheaper():
    g = Digraph()
    g.add_edge("a", "b", w=5)
    g.add_edge("a", "b", w=1)
    g.add_edge("b", "a", w=1)
    assert karp_minimum_cycle_mean(g, W) == Fraction(1)
    assert howard_minimum_cycle_mean(g, W) == Fraction(1)


def test_min_over_multiple_sccs():
    g = Digraph()
    # SCC 1: mean 1; SCC 2: mean 1/2; connected by a bridge edge.
    g.add_edge("a", "b", w=1)
    g.add_edge("b", "a", w=1)
    g.add_edge("b", "c", w=0)
    g.add_edge("c", "d", w=0)
    g.add_edge("d", "c", w=1)
    assert karp_minimum_cycle_mean(g, W) == Fraction(1, 2)


def test_critical_cycle_attains_mean():
    g = Digraph()
    g.add_edge(0, 1, w=1)
    g.add_edge(1, 2, w=0)
    g.add_edge(2, 0, w=1)  # ring mean 2/3
    g.add_edge(0, 3, w=0)
    g.add_edge(3, 0, w=0)  # 2-cycle mean 0 <- critical
    result = minimum_cycle_mean(g, W)
    assert result.mean == Fraction(0)
    assert sum(W(e) for e in result.cycle) == 0
    assert len(result.cycle) == 2
    # The witness is a closed walk.
    for i, edge in enumerate(result.cycle):
        assert edge.dst == result.cycle[(i + 1) % len(result.cycle)].src


def test_critical_cycle_on_known_mean():
    g = ring([1, 0, 1])
    cycle = critical_cycle(g, W, Fraction(2, 3))
    assert len(cycle) == 3
    assert sum(W(e) for e in cycle) == 2


def test_cycle_mean_result_tokens_property():
    g = ring([1, 0, 1])
    result = minimum_cycle_mean(g, W)
    assert result.tokens == 2


@given(weighted_digraphs())
@settings(max_examples=80)
def test_karp_matches_brute_force(g):
    assert karp_minimum_cycle_mean(g, W) == brute_force_mcm(g)


@given(weighted_digraphs())
@settings(max_examples=80)
def test_howard_matches_karp(g):
    assert howard_minimum_cycle_mean(g, W) == karp_minimum_cycle_mean(g, W)


@given(weighted_digraphs())
@settings(max_examples=60)
def test_witness_cycle_is_valid_and_attains_minimum(g):
    result = minimum_cycle_mean(g, W)
    if result is None:
        assert brute_force_mcm(g) is None
        return
    cycle = result.cycle
    assert Fraction(sum(W(e) for e in cycle), len(cycle)) == result.mean
    nodes = [e.src for e in cycle]
    assert len(nodes) == len(set(nodes))  # elementary
    for i, edge in enumerate(cycle):
        assert edge.dst == cycle[(i + 1) % len(cycle)].src


# ----------------------------------------------------------------------
# Howard's policy iteration on NoCs with relay stations
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _deadline(seconds):
    """Fail instead of hanging when the body overruns ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"did not return within {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# 3x4 meshes on which policy iteration used to cycle forever: an
# unchanged policy cycle re-picked its zero-bias reference node, so its
# biases shifted between iterations and nodes flipped between
# equal-eta basins.
HOWARD_LOOPING_MESHES = [(957065847, 3), (602984901, 2), (852169396, 3)]


@pytest.mark.parametrize("seed, relays", HOWARD_LOOPING_MESHES)
def test_howard_terminates_on_meshes_with_relays(seed, relays):
    graph = mesh_lis(3, 4, relays=relays, seed=seed).ideal_marked_graph().graph
    with _deadline(1.0):
        mean = howard_minimum_cycle_mean(graph, place_tokens)
    assert mean == karp_minimum_cycle_mean(graph, place_tokens) == Fraction(2, 3)


def test_minimum_cycle_ratio_terminates_on_mesh_with_relays():
    """The same loop backs minimum_cycle_ratio (ideal_mst_compact)."""
    lis = mesh_lis(4, 4, relays=5, seed=420495362)
    with _deadline(1.0):
        compact = ideal_mst_compact(lis)
    assert compact == ideal_mst(lis).mst


@given(
    shape=st.sampled_from([(2, 5), (3, 3), (3, 4)]),
    relays=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    torus=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_howard_matches_karp_on_meshes_with_relays(shape, relays, seed, torus):
    lis = mesh_lis(*shape, relays=relays, seed=seed, torus=torus)
    for marked in (lis.ideal_marked_graph(), lis.doubled_marked_graph()):
        with _deadline(5.0):
            mean = howard_minimum_cycle_mean(marked.graph, place_tokens)
        assert mean == karp_minimum_cycle_mean(marked.graph, place_tokens)
