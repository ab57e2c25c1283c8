"""Optimality-preservation invariants of the §VII-A simplifications.

The paper's simplification rules are only legitimate because they never
change the optimal solution cost.  These properties check exactly
that, against brute force on abstract instances and against the
unsimplified exact solve on whole generated systems.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import size_queues
from repro.gen import GeneratorConfig, generate_lis
from tests.core.test_solvers import (
    brute_force_optimum,
    size_uncollapsed,
    solve,
    td_instances,
)


@given(td_instances())
@settings(max_examples=60, deadline=None)
def test_simplify_preserves_optimal_cost(inst):
    """forced tokens + optimum of the residual == optimum of the raw
    instance, for the full rule set."""
    raw_optimum = brute_force_optimum(inst)
    simplified = copy.deepcopy(inst)
    simplified.simplify()
    residual = sum(solve("exact", simplified).values())
    assert sum(simplified.forced.values()) + residual == raw_optimum


@given(td_instances(), st.sampled_from([("subset",), ("singleton",)]))
@settings(max_examples=40, deadline=None)
def test_each_rule_alone_preserves_optimal_cost(inst, rules):
    raw_optimum = brute_force_optimum(inst)
    simplified = copy.deepcopy(inst)
    simplified.simplify(rules)
    residual = sum(solve("exact", simplified).values())
    assert sum(simplified.forced.values()) + residual == raw_optimum


@given(td_instances())
@settings(max_examples=30, deadline=None)
def test_simplify_is_idempotent(inst):
    once = copy.deepcopy(inst)
    once.simplify()
    twice = copy.deepcopy(once)
    twice.simplify()
    assert once.deficits == twice.deficits
    assert once.forced == twice.forced
    assert {k: set(v) for k, v in once.sets.items()} == {
        k: set(v) for k, v in twice.sets.items()
    }


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_scc_collapse_preserves_exact_cost_on_whole_systems(seed):
    """Rule 4 end-to-end: solving the collapsed system is exactly as
    good as solving the full doubled graph (q = 1 baselines)."""
    lis = generate_lis(
        GeneratorConfig(
            v=18, s=3, c=1, rs=4, rp=True, policy="scc", seed=seed
        )
    )
    collapsed = size_queues(lis, method="exact", timeout=60)
    direct, achieved = size_uncollapsed(lis, "exact", timeout=60)
    assert collapsed.simplified
    assert collapsed.restores_target and achieved >= collapsed.target
    assert collapsed.cost == sum(direct.values())
