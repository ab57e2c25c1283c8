"""Ablation: what does each simplification rule of Section VII-A buy?

Runs the exact solver on the same token-deficit instances with the
simplification machinery selectively disabled:

* ``none``       -- raw instance;
* ``subset``     -- rule 2 only (dominated-edge elimination);
* ``singleton``  -- rule 3 only (forced singleton-covered cycles);
* ``both``       -- rules 2+3 (the production default);
* ``collapse``   -- rules 2+3 after the SCC collapse (rule 4), where
  the topology admits it.

Solution costs must agree across variants (simplification is
optimality-preserving); the interesting column is the search effort.
"""

import time
from fractions import Fraction

from repro.core.cycles import collapse_sccs, is_collapsible
from repro.core.solvers import solve_td_exact_instance
from repro.core.token_deficit import build_td_instance
from repro.experiments import render_table
from repro.gen import GeneratorConfig, generate_lis


def make_system(seed):
    return generate_lis(
        GeneratorConfig(v=60, s=8, c=2, rs=10, rp=True, policy="scc", seed=seed)
    )


def run_variant(lis, variant):
    work = lis
    if variant == "collapse":
        assert is_collapsible(lis)
        work, _ = collapse_sccs(lis)
    instance = build_td_instance(work, target=Fraction(1), simplify=False)
    rules = {
        "none": (),
        "subset": ("subset",),
        "singleton": ("singleton",),
        "both": ("subset", "singleton"),
        "collapse": ("subset", "singleton"),
    }[variant]
    if rules:
        instance.simplify(rules)
    t0 = time.perf_counter()
    weights, stats = solve_td_exact_instance(instance, timeout=60)
    elapsed = (time.perf_counter() - t0) * 1e3
    cost = sum(weights.values()) + sum(instance.forced.values())
    return {
        "cost": cost,
        "residual_cycles": len(instance.deficits),
        "residual_edges": len(instance.sets),
        "nodes": stats["nodes_explored"],
        "ms": elapsed,
    }


VARIANTS = ["none", "subset", "singleton", "both", "collapse"]
SEEDS = [11, 23, 37]


def test_ablation_simplification(benchmark, publish):
    def run_all():
        out = {v: [] for v in VARIANTS}
        for seed in SEEDS:
            lis = make_system(seed)
            for variant in VARIANTS:
                out[variant].append(run_variant(lis, variant))
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    # Simplification preserves optimal cost on every instance.
    for i in range(len(SEEDS)):
        costs = {results[v][i]["cost"] for v in VARIANTS}
        assert len(costs) == 1, f"seed {SEEDS[i]}: costs diverged {costs}"
    # Each rule strictly shrinks the residual problem on average.
    def avg(variant, key):
        return sum(r[key] for r in results[variant]) / len(SEEDS)

    assert avg("subset", "residual_edges") <= avg("none", "residual_edges")
    assert avg("singleton", "residual_cycles") <= avg("none", "residual_cycles")
    assert avg("both", "residual_cycles") <= avg("singleton", "residual_cycles")
    assert avg("collapse", "residual_cycles") <= avg("both", "residual_cycles") + 1

    rows = [
        [
            variant,
            f"{avg(variant, 'residual_cycles'):.1f}",
            f"{avg(variant, 'residual_edges'):.1f}",
            f"{avg(variant, 'nodes'):.1f}",
            f"{avg(variant, 'ms'):.3f}",
            f"{avg(variant, 'cost'):.2f}",
        ]
        for variant in VARIANTS
    ]
    publish(
        "ablation_simplification",
        render_table(
            [
                "variant",
                "residual cycles",
                "residual edges",
                "search nodes",
                "exact ms",
                "cost",
            ],
            rows,
            title=(
                "Ablation - Section VII-A simplification rules "
                f"(exact solver, {len(SEEDS)} systems, v=60 s=8 rs=10)"
            ),
        ),
        data={
            "seeds": SEEDS,
            "variants": {
                variant: {
                    key: avg(variant, key)
                    for key in (
                        "residual_cycles",
                        "residual_edges",
                        "nodes",
                        "ms",
                        "cost",
                    )
                }
                for variant in VARIANTS
            },
        },
    )
