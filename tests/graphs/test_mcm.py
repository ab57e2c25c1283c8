"""Tests for minimum-cycle-mean algorithms (the parametric search,
Karp, Howard, witness cycles)."""

import contextlib
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import Context
from repro.core import analyze
from repro.core.marked_graph import place_tokens
from repro.core.throughput import ideal_mst, ideal_mst_compact, mst
from repro.dsl import CORPUS, corpus_system
from repro.gen import (
    GeneratorConfig,
    fig15_lis,
    generate_lis,
    mesh_lis,
    named_system,
)
from repro.graphs import (
    Digraph,
    critical_cycle,
    elementary_edge_cycles,
    howard_minimum_cycle_mean,
    karp_minimum_cycle_mean,
    mcm,
    minimum_cycle_mean,
    minimum_cycle_ratio,
)
from tests.strategies import weighted_digraphs

W = lambda e: e.data["w"]  # noqa: E731
T = lambda e: e.data["t"]  # noqa: E731


def searched(g, weight=W, time=None):
    """The minimum cycle mean (or ratio, with ``time``) of the search."""
    if time is None:
        result = minimum_cycle_mean(g, weight)
    else:
        result = minimum_cycle_ratio(g, weight, time)
    return None if result is None else result.mean


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


@given(weighted_digraphs(min_weight=-4))
@settings(max_examples=80)
def test_karp_matches_brute_force(g):
    """Negative weights give negative candidate numerators: Karp's
    cross-multiplied comparisons must still order them exactly, and
    the search's reduced weights must still find every cycle below
    its candidate."""
    brute = brute_force_mcm(g)
    assert karp_minimum_cycle_mean(g, W) == brute
    assert searched(g) == brute


@given(weighted_digraphs())
@settings(max_examples=80)
def test_howard_matches_karp(g):
    karp = karp_minimum_cycle_mean(g, W)
    assert howard_minimum_cycle_mean(g, W) == karp
    assert searched(g) == karp


@given(weighted_digraphs(min_weight=-4), st.data())
@settings(max_examples=80)
def test_search_matches_howard_on_cycle_ratios(g, data):
    """Minimum cycle *ratio* with times 1-3: the search against
    Howard's policy iteration, and its witness attains the ratio."""
    for edge in g.edges:
        edge.data["t"] = data.draw(st.integers(1, 3))
    result = minimum_cycle_ratio(g, W, T)
    assert searched(g, time=T) == howard_minimum_cycle_mean(g, W, T)
    if result is not None:
        cycle = result.cycle
        assert Fraction(sum(map(W, cycle)), sum(map(T, cycle))) == result.mean
    if g.number_of_edges():
        edge = data.draw(st.sampled_from(list(g.edges)))
        edge.data["t"] = data.draw(st.integers(-2, 0))
        with pytest.raises(ValueError, match="non-positive time"):
            minimum_cycle_ratio(g, W, T)


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
    """ideal_mst_compact (minimum_cycle_ratio) on a mesh on which
    Howard's policy iteration, its engine before the search, looped."""
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
        assert mean == searched(marked.graph, place_tokens)


# ----------------------------------------------------------------------
# The search and Karp on Table-IV doubled graphs (one SCC of 110-210
# nodes each)
# ----------------------------------------------------------------------
#: (v, s, seed) -> practical MST of ``generate_lis(v, s, c=5, rs=10)``.
TABLE_IV_DOUBLED_MST = {
    (100, 10, 1): Fraction(10, 11),
    (100, 10, 2): Fraction(14, 17),
    (100, 10, 3): Fraction(8, 11),
    (100, 20, 1): Fraction(17, 23),
    (100, 20, 2): Fraction(11, 13),
    (100, 20, 3): Fraction(5, 6),
    (200, 10, 1): Fraction(6, 7),
    (200, 10, 2): Fraction(26, 27),
    (200, 10, 3): Fraction(17, 21),
}


@pytest.mark.parametrize("v, s, seed", sorted(TABLE_IV_DOUBLED_MST))
def test_karp_matches_howard_and_golden_on_table_iv_doubled_graphs(v, s, seed):
    lis = generate_lis(GeneratorConfig(v=v, s=s, c=5, rs=10, seed=seed))
    graph = lis.doubled_marked_graph().graph
    karp = karp_minimum_cycle_mean(graph, place_tokens)
    assert karp == howard_minimum_cycle_mean(graph, place_tokens)
    assert karp == TABLE_IV_DOUBLED_MST[v, s, seed]
    assert searched(graph, place_tokens) == karp


def test_search_restarts_down_to_the_ablation_v40_mean(monkeypatch):
    """The v = 40 doubled graph of the MCM ablation: the search lowers
    its candidate round by round to the enumerated minimum."""
    lis = generate_lis(
        GeneratorConfig(v=40, s=3, c=2, rs=6, rp=True, policy="scc", seed=40)
    )
    graph = lis.doubled_marked_graph().graph
    rounds = []
    relax = mcm._relax

    def counting(n, arcs):
        rounds.append(n)
        return relax(n, arcs)

    monkeypatch.setattr(mcm, "_relax", counting)
    mean = searched(graph, place_tokens)
    assert len(rounds) > 1
    assert mean == Fraction(19, 23) == karp_minimum_cycle_mean(graph, place_tokens)
    best = min(
        Fraction(sum(map(place_tokens, cycle)), len(cycle))
        for cycle in elementary_edge_cycles(graph)
    )
    assert mean == best


def _witness_systems():
    systems = {name: (named_system, name) for name in ("fig15", "cofdm", "fig19")}
    systems["mesh:4x4"] = (named_system, "mesh:4x4")
    for name in sorted(CORPUS):
        systems[f"dsl:{name}"] = (lambda n: corpus_system(n).lower(), name)
    for v, s, seed in sorted(TABLE_IV_DOUBLED_MST):
        config = GeneratorConfig(v=v, s=s, c=5, rs=10, seed=seed)
        systems[f"table4:{v}:{s}:{seed}"] = (generate_lis, config)
    return systems


WITNESS_SYSTEMS = _witness_systems()


@pytest.mark.parametrize("name", sorted(WITNESS_SYSTEMS))
def test_mst_witness_is_the_critical_cycle_of_its_mean(name):
    """``mst`` reads its witness from the search's settled potentials:
    place for place the cycle ``critical_cycle`` extracts afresh."""
    build, arg = WITNESS_SYSTEMS[name]
    lis = build(arg)
    for mg in (lis.ideal_marked_graph(), lis.doubled_marked_graph()):
        result = mst(mg)
        if result.critical is None:
            assert result.mst == 1
            continue
        expected = critical_cycle(mg.graph, place_tokens, result.mst)
        assert [p.key for p in result.critical] == [p.key for p in expected]


def test_fresh_context_analyze_searches_twice(monkeypatch):
    """Ideal MST and practical MST.  The bottleneck report reuses the
    memoized practical MST, and the sized system reaches the ideal MST,
    which one Bellman--Ford pass shows without a search; Karp, the
    reference, never runs."""
    calls = {"search": 0, "karp": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        mcm, "_parametric_search", counting("search", mcm._parametric_search)
    )
    monkeypatch.setattr(mcm, "_karp_on_scc", counting("karp", mcm._karp_on_scc))
    report = analyze(Context(fig15_lis()))
    assert (report.ideal, report.practical) == (Fraction(5, 6), Fraction(3, 4))
    assert report.bottlenecks
    assert report.fix.achieved == report.ideal
    assert calls == {"search": 2, "karp": 0}
