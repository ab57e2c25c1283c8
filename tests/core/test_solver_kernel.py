"""Differential properties of the bitset-compiled TD kernel.

The pure-Python solvers (``exact-ref`` / ``heuristic-ref``) are the
oracle: on random abstract instances and on instances lowered from
random whole systems, the kernel must return the same optimal cost
(exact), bit-for-bit identical weights (heuristic), and row-by-row
identical feasibility verdicts (``check_batch`` vs ``is_solution``).
"""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import get_context
from repro.core.solvers import ExactTimeout, compile_td, get_solver
from repro.core.solvers.exact import solve_td_exact_reference_instance
from repro.core.solvers.heuristic import _descend
from repro.core.solvers.kernel import TdKernel
from repro.core.token_deficit import (
    InfeasibleError,
    TokenDeficitInstance,
    build_td_instance,
)

from tests.strategies import lis_graphs


@st.composite
def td_instances(draw, max_cycles: int = 8, max_channels: int = 8):
    """A random feasible TD instance: every cycle is covered by at
    least one channel (uncovered cycles are dropped, mirroring what
    simplification guarantees for real systems)."""
    n_cycles = draw(st.integers(min_value=1, max_value=max_cycles))
    n_channels = draw(st.integers(min_value=1, max_value=max_channels))
    sets: dict[int, set[int]] = {}
    for cid in range(n_channels):
        cover = draw(
            st.sets(
                st.integers(min_value=0, max_value=n_cycles - 1),
                max_size=n_cycles,
            )
        )
        if cover:
            sets[cid] = cover
    covered = set().union(*sets.values()) if sets else set()
    deficits = {
        idx: draw(st.integers(min_value=1, max_value=4)) for idx in covered
    }
    return TokenDeficitInstance(deficits=deficits, sets=sets)


def clone(instance: TokenDeficitInstance) -> TokenDeficitInstance:
    return TokenDeficitInstance(
        deficits=dict(instance.deficits),
        sets={cid: set(cov) for cid, cov in instance.sets.items()},
        forced=dict(instance.forced),
    )


@given(td_instances())
@settings(deadline=None)
def test_kernel_exact_cost_matches_reference(instance):
    if instance.is_trivial:
        return
    kern_weights, kern_stats = get_solver("exact").solve_instance(
        clone(instance), timeout=60
    )
    ref_weights, ref_stats = solve_td_exact_reference_instance(
        clone(instance), timeout=60
    )
    # Same optimum; witnesses may differ (search-order ties).
    assert sum(kern_weights.values()) == sum(ref_weights.values())
    assert instance.is_solution(kern_weights)
    assert instance.is_solution(ref_weights)
    for stats in (kern_stats, ref_stats):
        assert {
            "nodes_explored",
            "table_hits",
            "bound_cuts",
            "batch_checks",
            "backend",
        } <= set(stats)


@given(td_instances())
@settings(deadline=None)
def test_kernel_heuristic_matches_descend_bit_for_bit(instance):
    kern = compile_td(clone(instance))
    assert kern.solve_heuristic() == _descend(clone(instance))


@given(
    td_instances(),
    st.lists(
        st.dictionaries(
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=4),
            max_size=8,
        ),
        min_size=1,
        max_size=6,
    ),
)
@settings(deadline=None)
def test_check_batch_agrees_with_is_solution(instance, assignments):
    kern = compile_td(clone(instance))
    # Mix in the two solver outputs so feasible rows are well covered.
    assignments = assignments + [
        kern.solve_heuristic(),
        get_solver("exact").solve_instance(clone(instance), timeout=60)[0],
    ]
    verdicts = kern.check_batch(assignments)
    assert len(list(verdicts)) == len(assignments)
    for weights, verdict in zip(assignments, verdicts):
        assert bool(verdict) == instance.is_solution(weights)
    assert kern.stats.batch_checks == len(assignments)


@given(lis_graphs(max_shells=4, max_channels=7))
@settings(deadline=None)
def test_kernel_agrees_on_lowered_systems(lis):
    """End-to-end: instances lowered from random whole systems."""
    try:
        instance = build_td_instance(lis, simplify=True)
    except InfeasibleError:
        return
    if instance.is_trivial:
        return
    kern_weights, _ = get_solver("exact").solve_instance(
        clone(instance), timeout=60
    )
    ref_weights, _ = solve_td_exact_reference_instance(
        clone(instance), timeout=60
    )
    assert sum(kern_weights.values()) == sum(ref_weights.values())
    assert compile_td(clone(instance)).solve_heuristic() == _descend(
        clone(instance)
    )


# ----------------------------------------------------------------------
# Directed unit behavior
# ----------------------------------------------------------------------


def _hard_instance(n: int = 7) -> TokenDeficitInstance:
    """Pairwise-overlapping covers with uniform deficits -- enough
    branching to exercise the table and the bound."""
    deficits = {i: 2 for i in range(n)}
    sets = {
        100 + i: {i, (i + 1) % n, (i + 3) % n} for i in range(n)
    }
    return TokenDeficitInstance(deficits=deficits, sets=sets)


def test_compile_rejects_uncovered_cycles():
    with pytest.raises(InfeasibleError):
        compile_td(
            TokenDeficitInstance(deficits={0: 1, 1: 1}, sets={5: {0}})
        )


def test_compile_layout_and_reverse_index():
    instance = TokenDeficitInstance(
        deficits={0: 1, 1: 3, 2: 2},
        sets={10: {0, 1}, 7: {1, 2}, 99: {2}},
    )
    kern = compile_td(instance)
    # Rows by decreasing deficit, columns by ascending channel id.
    assert kern.cycle_ids == (1, 2, 0)
    assert kern.deficits == (3, 2, 1)
    assert kern.channels == (7, 10, 99)
    assert kern.covering_channels(1) == frozenset({7, 10})
    assert kern.covering_channels(2) == frozenset({7, 99})
    # Masks are consistent transposes of each other.
    for row in range(kern.n_cycles):
        for col in range(kern.n_channels):
            assert bool(kern.cover_mask(row) & (1 << col)) == bool(
                kern.channel_mask(col) & (1 << row)
            )


def test_deadline_overshoot_is_reported():
    kern = compile_td(_hard_instance(9))
    with pytest.raises(ExactTimeout) as excinfo:
        kern.solve_exact(timeout=-1.0)
    assert excinfo.value.overshoot >= 0.0


def test_registry_reference_solvers_registered():
    assert get_solver("exact-ref").name == "exact-ref"
    assert get_solver("heuristic-ref").name == "heuristic-ref"


def test_solver_stats_are_uniform_across_registry():
    """Every registered solver reports the same counter keys, so the
    engine and ``repro stats`` render one table (zeros included)."""
    instance = _hard_instance(4)
    for name in ("heuristic", "heuristic-ref", "greedy", "exact",
                 "exact-ref"):
        _, stats = get_solver(name).solve_instance(
            clone(instance), timeout=60
        )
        assert {
            "nodes_explored",
            "table_hits",
            "bound_cuts",
            "batch_checks",
        } <= set(stats), name


def test_context_td_kernel_is_cached():
    from repro.gen import GeneratorConfig, generate_lis

    lis = generate_lis(
        GeneratorConfig(
            v=16, s=2, c=1, rs=3, rp=True, policy="scc", seed=5
        )
    )
    ctx = get_context(lis)
    first = ctx.td_kernel()
    assert isinstance(first, TdKernel)
    assert ctx.td_kernel() is first
    # The unsimplified variant is a distinct artifact (no forcing).
    assert ctx.td_kernel(simplify=False) is not first
    assert ctx.td_kernel(simplify=False).forced == {}


# ----------------------------------------------------------------------
# Golden search trace
# ----------------------------------------------------------------------


def _golden_family():
    """150 seeded random instances plus the hard overlapping family."""
    rng = random.Random(7)
    family = []
    for k in range(150):
        nc, nch = rng.randint(3, 12), rng.randint(3, 12)
        sets = {}
        for c in range(nch):
            sets[100 + c] = {
                rng.randrange(nc) for _ in range(rng.randint(1, 4))
            }
        deficits = {
            i: rng.randint(1, 4) for i in sorted(set().union(*sets.values()))
        }
        family.append(
            (f"r{k}", TokenDeficitInstance(deficits=deficits, sets=sets))
        )
    for n in range(5, 12):
        family.append((f"hard{n}", _hard_instance(n)))
    return family


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:12]


def test_exact_search_golden_witnesses_and_counters():
    """Pins the exact search itself, not just its optimum: the witness
    weights and the node / table-hit / bound-cut counts of every
    instance.  The probe order (floor probe, bisection, final probe at
    the converged budget) and both prunes determine these numbers, so
    a change to the search that is meant to alter them updates the
    counter digest and says why."""
    witnesses, counters = [], []
    for name, instance in _golden_family():
        weights, stats = get_solver("exact").solve_instance(
            instance, timeout=120
        )
        assert instance.is_solution(weights), name
        witnesses.append([name, sorted(weights.items())])
        counters.append(
            [
                name,
                stats["nodes_explored"],
                stats["table_hits"],
                stats["bound_cuts"],
            ]
        )
    assert len(witnesses) == 157
    assert sum(1 for c in counters if c[1]) == 66
    assert [sum(c[i] for c in counters) for i in (1, 2, 3)] == [
        11_232,
        2_212,
        2_858,
    ]
    assert _digest(witnesses) == "490d141bd283"
    assert _digest(counters) == "cc3e5c165b39"
