"""Ablation: queue-sizing solver shoot-out on NP-hard instances.

Uses the Vertex Cover reduction of Section V as a difficulty dial:
random VC instances of growing size produce queue-sizing problems
whose optimum equals the minimum cover.  Compares the heuristic
(Section VII-B), the branch-and-bound exact solver and its
pure-Python reference (``exact-ref``).

Checks: exact == exact-ref == minimum vertex cover; heuristic
feasible and within a bounded factor.

The two exact searches each get a freshly built instance, so neither
reuses the other's compiled kernel or memoized heuristic, and their
summed times are written on every run as a before/after pair
(``ablation_solvers.before.json`` = ``exact-ref``,
``ablation_solvers.after.json`` = the kernel) for
``check_regression.py --metric exact_total_ms --min-speedup``.
"""

import random
import time

from repro.core.npcomplete import (
    minimum_vertex_cover,
    reduce_vertex_cover_to_qs,
)
from repro.core.solvers import get_solver
from repro.core.token_deficit import build_td_instance
from repro.experiments import render_table, save_result_json

SIZES = [4, 6, 8]


def random_vc_instance(n, seed):
    rng = random.Random(seed)
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                edges.append((vertices[i], vertices[j]))
    if not edges:
        edges.append((vertices[0], vertices[1]))
    return vertices, edges


def timed_solve(name, instance, **kwargs):
    solver = get_solver(name)
    t0 = time.perf_counter()
    weights, _stats = solver.solve_instance(instance, **kwargs)
    return sum(weights.values()), (time.perf_counter() - t0) * 1e3


def test_ablation_solvers(benchmark, publish):
    def run_all():
        rows = []
        for n in SIZES:
            vertices, edges = random_vc_instance(n, seed=n * 31)
            red = reduce_vertex_cover_to_qs(vertices, edges, n)
            instance = build_td_instance(red.lis, simplify=True)
            heur, heur_ms = timed_solve("heuristic", instance)
            exact, exact_ms = timed_solve(
                "exact", build_td_instance(red.lis, simplify=True),
                timeout=120,
            )
            ref, ref_ms = timed_solve(
                "exact-ref", build_td_instance(red.lis, simplify=True),
                timeout=120,
            )
            forced = sum(instance.forced.values())
            vc = len(minimum_vertex_cover(vertices, edges))
            rows.append(
                {
                    "n": n,
                    "edges": len(edges),
                    "vc": vc,
                    "heur": heur + forced,
                    "heur_ms": heur_ms,
                    "exact": exact + forced,
                    "exact_ms": exact_ms,
                    "exact_ref": ref + forced,
                    "exact_ref_ms": ref_ms,
                }
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    for row in rows:
        # The complete solvers certify the reduction's optimum.
        assert row["exact"] == row["vc"]
        assert row["exact_ref"] == row["vc"]
        # Sandwich: optimum <= heuristic <= 2x optimum + slack (the
        # vertex-construct structure caps the greedy's overshoot).
        assert row["vc"] <= row["heur"] <= 2 * row["vc"] + 1

    table = [
        [
            r["n"],
            r["edges"],
            r["vc"],
            r["heur"],
            f"{r['heur_ms']:.2f}",
            r["exact"],
            f"{r['exact_ms']:.2f}",
            f"{r['exact_ref_ms']:.2f}",
        ]
        for r in rows
    ]
    save_result_json(
        "ablation_solvers.before",
        {
            "phase": "exact-ref-pure-python",
            "sizes": SIZES,
            "exact_total_ms": sum(r["exact_ref_ms"] for r in rows),
        },
    )
    save_result_json(
        "ablation_solvers.after",
        {
            "phase": "exact-bitset-kernel",
            "sizes": SIZES,
            "exact_total_ms": sum(r["exact_ms"] for r in rows),
        },
    )
    publish(
        "ablation_solvers",
        render_table(
            [
                "|V|",
                "|E|",
                "min cover",
                "heuristic",
                "ms",
                "exact",
                "ms",
                "ref ms",
            ],
            table,
            title=(
                "Ablation - solvers on Vertex-Cover-reduction instances "
                "(optimum == minimum cover)"
            ),
        ),
        data={"rows": rows},
    )
