"""Tests for the Section VIII random LIS generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    RelayPlacement,
    actual_mst,
    ideal_mst,
    relay_placement,
)
from repro.gen.generator import GeneratorConfig, GeneratorError, generate_lis
from repro.graphs import (
    scc_of,
    strongly_connected_components,
)
from repro.graphs.cycles import count_edge_cycles


def nontrivial_sccs(lis):
    return [
        c for c in strongly_connected_components(lis.system) if len(c) > 1
    ]


def test_default_config_shape():
    lis = generate_lis(GeneratorConfig(seed=0))
    assert len(lis.shells()) == 50
    assert len(nontrivial_sccs(lis)) == 5
    assert lis.total_relays() == 10


def test_validation_errors():
    with pytest.raises(GeneratorError):
        generate_lis(GeneratorConfig(v=5, s=3))  # v < 2s
    with pytest.raises(GeneratorError):
        generate_lis(GeneratorConfig(s=0))
    with pytest.raises(GeneratorError):
        generate_lis(GeneratorConfig(c=-1))
    with pytest.raises(GeneratorError):
        generate_lis(GeneratorConfig(policy="everywhere"))
    with pytest.raises(GeneratorError):
        generate_lis(GeneratorConfig(v=4, s=1, policy="scc", rs=1))
    with pytest.raises(GeneratorError):
        generate_lis(GeneratorConfig(queue=0))


def test_seed_reproducibility():
    a = generate_lis(GeneratorConfig(seed=42))
    b = generate_lis(GeneratorConfig(seed=42))
    ea = sorted((str(e.src), str(e.dst), e.data["relays"]) for e in a.channels())
    eb = sorted((str(e.src), str(e.dst), e.data["relays"]) for e in b.channels())
    assert ea == eb


def test_different_seeds_differ():
    a = generate_lis(GeneratorConfig(seed=1))
    b = generate_lis(GeneratorConfig(seed=2))
    ea = sorted((str(e.src), str(e.dst)) for e in a.channels())
    eb = sorted((str(e.src), str(e.dst)) for e in b.channels())
    assert ea != eb


def test_scc_policy_places_relays_between_sccs_only():
    lis = generate_lis(GeneratorConfig(policy="scc", seed=3))
    assert relay_placement(lis) is RelayPlacement.INTER_SCC


def test_scc_policy_keeps_ideal_mst_at_one():
    """With no relay stations inside SCCs, no forward cycle carries a
    relay station, so the ideal MST is exactly 1 (Section VIII-A)."""
    for seed in range(5):
        lis = generate_lis(GeneratorConfig(policy="scc", seed=seed))
        assert ideal_mst(lis).mst == 1


def test_any_policy_typically_degrades_ideal_mst():
    degraded = 0
    for seed in range(8):
        lis = generate_lis(
            GeneratorConfig(policy="any", rs=15, seed=seed)
        )
        if ideal_mst(lis).mst < 1:
            degraded += 1
    assert degraded >= 6  # relays land inside SCC cycles almost surely


def test_queue_parameter_applies_to_all_channels():
    lis = generate_lis(GeneratorConfig(queue=4, seed=5))
    assert all(lis.queue(cid) == 4 for cid in lis.channel_ids())


def test_minimum_cycles_per_scc():
    """Each SCC holds its Hamiltonian cycle plus >= 1 chord cycle
    (exact chord count may be capped only in tiny SCCs)."""
    lis = generate_lis(GeneratorConfig(v=30, s=3, c=4, rs=0, seed=7))
    mapping = scc_of(lis.system)
    for comp in nontrivial_sccs(lis):
        sub = lis.system.subgraph(comp)
        assert count_edge_cycles(sub) >= 1 + 1  # Hamiltonian + chords


def test_no_inter_scc_cycles():
    """The auxiliary graph is a DAG: exactly s nontrivial SCCs."""
    for rp in (False, True):
        lis = generate_lis(GeneratorConfig(rp=rp, seed=11))
        assert len(nontrivial_sccs(lis)) == 5


def test_rp_zero_gives_tree_of_sccs():
    """Without reconvergent paths, collapsed inter-SCC structure is a
    tree: exactly s - 1 inter-SCC channels."""
    lis = generate_lis(GeneratorConfig(rp=False, rs=0, seed=13))
    mapping = scc_of(lis.system)
    inter = [
        e
        for e in lis.channels()
        if mapping[e.src] != mapping[e.dst]
    ]
    assert len(inter) == 4  # s - 1


def test_rp_one_adds_extra_inter_scc_channels():
    lis = generate_lis(GeneratorConfig(rp=True, rs=0, seed=13))
    mapping = scc_of(lis.system)
    inter = [
        e for e in lis.channels() if mapping[e.src] != mapping[e.dst]
    ]
    assert len(inter) >= 5  # tree + at least one extra


@given(
    v=st.integers(min_value=6, max_value=24),
    s=st.integers(min_value=1, max_value=3),
    c=st.integers(min_value=0, max_value=3),
    rs=st.integers(min_value=0, max_value=5),
    rp=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_generator_postconditions(v, s, c, rs, rp, seed):
    if v < 2 * s:
        return
    policy = "scc" if s >= 2 else "any"
    lis = generate_lis(
        GeneratorConfig(v=v, s=s, c=c, rs=rs, rp=rp, policy=policy, seed=seed)
    )
    assert len(lis.shells()) == v
    assert len(nontrivial_sccs(lis)) == s
    assert lis.total_relays() == rs
    # The system is weakly connected (the auxiliary graph is connected).
    from repro.graphs.biconnected import undirected_adjacency

    adj = undirected_adjacency(lis.system)
    seen = set()
    stack = [next(iter(lis.system.nodes))]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        for edge in adj[node]:
            stack.append(edge.src)
            stack.append(edge.dst)
    assert seen == set(lis.system.nodes)
    # Backpressure never raises the MST above ideal.
    assert actual_mst(lis).mst <= ideal_mst(lis).mst
