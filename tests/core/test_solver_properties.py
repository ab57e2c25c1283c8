"""Cross-solver properties on randomly generated whole systems."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import actual_mst, ideal_mst, size_queues
from repro.gen import GeneratorConfig, generate_lis


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=12, deadline=None)
def test_all_solvers_restore_and_order_correctly(seed):
    lis = generate_lis(
        GeneratorConfig(
            v=20, s=3, c=1, rs=4, rp=True, policy="scc", seed=seed
        )
    )
    costs = {}
    for method in ("heuristic", "greedy", "exact", "exact-ref"):
        solution = size_queues(lis, method=method, timeout=60)
        assert solution.restores_target, (seed, method)
        # The solution is verified against the real doubled graph.
        assert (
            actual_mst(lis, solution.extra_tokens).mst
            == ideal_mst(lis).mst
        )
        costs[method] = solution.cost
    assert costs["exact-ref"] == costs["exact"]
    assert costs["heuristic"] >= costs["exact"]
    assert costs["greedy"] >= costs["exact"]


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_solutions_are_minimal_under_token_removal(seed):
    """Dropping any single token from an exact solution reopens a
    deficiency -- exact solutions contain no dead weight."""
    lis = generate_lis(
        GeneratorConfig(
            v=16, s=2, c=1, rs=3, rp=True, policy="scc", seed=seed
        )
    )
    solution = size_queues(lis, method="exact", timeout=60)
    if not solution.extra_tokens:
        return
    target = solution.target
    for cid in solution.extra_tokens:
        reduced = dict(solution.extra_tokens)
        reduced[cid] -= 1
        if reduced[cid] == 0:
            del reduced[cid]
        assert actual_mst(lis, reduced).mst < target, (
            seed,
            cid,
            solution.extra_tokens,
        )


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    q=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=10, deadline=None)
def test_bigger_baseline_queues_never_need_more_tokens(seed, q):
    """Raising all baseline queues can only shrink the residual
    queue-sizing cost."""
    base = generate_lis(
        GeneratorConfig(
            v=16, s=2, c=1, rs=3, rp=True, policy="scc", seed=seed, queue=1
        )
    )
    wide = base.copy()
    wide.set_all_queues(q)
    cost_base = size_queues(base, method="exact", timeout=60).cost
    cost_wide = size_queues(wide, method="exact", timeout=60).cost
    assert cost_wide <= cost_base
