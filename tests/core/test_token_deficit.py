"""Tests for the token-deficit abstraction and its simplification rules."""

from fractions import Fraction

import pytest

from repro.core import (
    InfeasibleError,
    TokenDeficitInstance,
    build_td_instance,
)
from repro.core.cycles import CycleRecord
from repro.gen import fig1_lis, fig15_lis


def make_instance(deficits, sets):
    """Bare instance with synthetic cycle records for error messages."""
    n = max(deficits) + 1 if deficits else 0
    cycles = [
        CycleRecord(places=(), tokens=0, channels=frozenset(), node_path=(i,))
        for i in range(n)
    ]
    return TokenDeficitInstance(
        deficits=dict(deficits),
        sets={k: set(v) for k, v in sets.items()},
        cycles=cycles,
    )


def test_is_solution():
    inst = make_instance({0: 2, 1: 1}, {10: {0, 1}, 11: {0}})
    assert inst.is_solution({10: 2})
    assert inst.is_solution({10: 1, 11: 1})
    assert not inst.is_solution({11: 2})  # cycle 1 uncovered
    assert not inst.is_solution({10: 1})


def test_solution_cost_includes_forced():
    inst = make_instance({0: 1}, {10: {0}})
    inst.forced = {99: 3}
    assert inst.solution_cost({10: 1}) == 4


def test_merge_forced():
    inst = make_instance({}, {})
    inst.forced = {1: 2}
    merged = inst.merge_forced({1: 1, 2: 0, 3: 4})
    assert merged == {1: 3, 3: 4}


def test_subset_rule_drops_dominated_edges():
    inst = make_instance({0: 1, 1: 1}, {10: {0}, 11: {0, 1}})
    inst._drop_subset_sets()
    assert 10 not in inst.sets
    assert 11 in inst.sets


def test_subset_rule_keeps_one_of_equal_sets():
    inst = make_instance({0: 1}, {10: {0}, 11: {0}})
    inst._drop_subset_sets()
    assert len(inst.sets) == 1


def test_singleton_forcing():
    inst = make_instance({0: 2, 1: 1}, {10: {0, 1}})
    inst.simplify()
    assert inst.is_trivial
    # Cycle 0 forces 2 tokens on edge 10, which also covers cycle 1.
    assert inst.forced == {10: 2}


def test_singleton_forcing_accumulates():
    # Cycle 0 only on edge 10 (deficit 1); after discounting, cycle 1
    # (deficit 3, also only on 10) still needs 2 more.
    inst = make_instance({0: 1, 1: 3}, {10: {0, 1}})
    inst.simplify()
    assert inst.forced == {10: 3}
    assert inst.is_trivial


def test_infeasible_cycle_without_edges():
    inst = make_instance({0: 1}, {})
    with pytest.raises(InfeasibleError):
        inst.simplify()


def test_simplify_fixpoint_chains():
    """Forcing one edge can make another cycle singleton-covered."""
    inst = make_instance(
        {0: 1, 1: 1},
        {10: {0}, 11: {0, 1}, 12: {1}},
    )
    # Rule 2 first drops 10 (subset of 11) and 12 (subset of 11), then
    # both cycles are singleton-covered by 11.
    inst.simplify()
    assert inst.is_trivial
    assert inst.forced == {11: 1}


def test_build_td_instance_fig1():
    inst = build_td_instance(fig1_lis())
    assert inst.target == 1
    # One deficient cycle, covered only by the lower channel's backedge
    # -> fully solved by simplification.
    assert inst.is_trivial
    assert inst.forced == {1: 1}


def test_build_td_instance_fig15():
    inst = build_td_instance(fig15_lis())
    assert inst.target == Fraction(5, 6)
    merged_channels = set(inst.forced) | set(inst.sets)
    assert merged_channels <= {1, 2, 3, 4, 5, 6}
    # The paper's fix needs tokens on channels 5 and 6.
    assert {5, 6} <= merged_channels


def test_build_with_explicit_target_and_extra():
    lis = fig1_lis()
    # Committing the known fix leaves nothing deficient.
    inst = build_td_instance(lis, extra_tokens={1: 1})
    assert inst.is_trivial and not inst.forced


def test_build_unsimplified_keeps_cycles():
    inst = build_td_instance(fig1_lis(), simplify=False)
    assert not inst.is_trivial
    assert len(inst.deficits) == 1


def test_build_respects_lower_target():
    """Asking only for 2/3 on Fig. 1 requires nothing at all."""
    inst = build_td_instance(fig1_lis(), target=Fraction(2, 3))
    assert inst.is_trivial and not inst.forced


def test_covering_channels():
    inst = make_instance({0: 1, 1: 1}, {10: {0}, 11: {0, 1}})
    assert inst.covering_channels(0) == {10, 11}
    assert inst.covering_channels(1) == {11}


def test_infeasible_unsimplified_build(monkeypatch):
    """A deficient cycle with no sizable backedges raises even when
    simplification is skipped."""
    lis = fig1_lis()
    import repro.core.token_deficit as td_mod

    real = td_mod.deficient_cycles

    def strip_channels(mg, goal, max_cycles=None):
        return [
            CycleRecord(
                places=r.places,
                tokens=r.tokens,
                channels=frozenset(),
                node_path=r.node_path,
            )
            for r in real(mg, goal, max_cycles=max_cycles)
        ]

    monkeypatch.setattr(td_mod, "deficient_cycles", strip_channels)
    with pytest.raises(InfeasibleError):
        build_td_instance(lis, simplify=False)
