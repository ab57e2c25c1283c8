"""Ablation: minimum-cycle-mean algorithm choice.

The MST of a LIS can be computed four ways: the parametric
negative-cycle search the library runs (Bellman--Ford on the reduced
weights of a falling candidate ratio), Karp's O(nm) dynamic program
(the paper's suggestion), Howard's policy iteration, or brute-force
enumeration of every elementary cycle.  This benchmark times all four
on doubled marked graphs of growing size and asserts they agree --
quantifying why the library runs the search (Karp is the reference,
Howard the independent oracle) and reserves enumeration for the
queue-sizing stage (where the cycle list is needed anyway).
"""

import time
from fractions import Fraction

from repro.core.marked_graph import place_tokens
from repro.experiments import render_table
from repro.gen import GeneratorConfig, generate_lis
from repro.graphs import (
    elementary_edge_cycles,
    howard_minimum_cycle_mean,
    karp_minimum_cycle_mean,
    minimum_cycle_mean,
)

SIZES = [20, 40, 80, 160, 320]


def doubled_graph(v, seed):
    lis = generate_lis(
        GeneratorConfig(
            v=v, s=max(2, v // 12), c=2, rs=6, rp=True, policy="scc", seed=seed
        )
    )
    return lis.doubled_marked_graph().graph


def brute_force(graph):
    best = None
    for cycle in elementary_edge_cycles(graph, max_cycles=2_000_000):
        mean = Fraction(sum(place_tokens(e) for e in cycle), len(cycle))
        if best is None or mean < best:
            best = mean
    return best


def search(graph, weight):
    result = minimum_cycle_mean(graph, weight)
    return None if result is None else result.mean


def timed(fn, *args):
    t0 = time.perf_counter()
    value = fn(*args)
    return value, (time.perf_counter() - t0) * 1e3


def test_ablation_mcm_algorithms(benchmark, publish):
    def run_all():
        rows = []
        for v in SIZES:
            graph = doubled_graph(v, seed=v)
            found, search_ms = timed(search, graph, place_tokens)
            karp, karp_ms = timed(
                karp_minimum_cycle_mean, graph, place_tokens
            )
            howard, howard_ms = timed(
                howard_minimum_cycle_mean, graph, place_tokens
            )
            if v <= 40:  # enumeration explodes beyond small systems
                brute, brute_ms = timed(brute_force, graph)
            else:
                brute, brute_ms = None, None
            rows.append(
                {
                    "v": v,
                    "nodes": graph.number_of_nodes(),
                    "edges": graph.number_of_edges(),
                    "search": found,
                    "search_ms": search_ms,
                    "karp": karp,
                    "karp_ms": karp_ms,
                    "howard": howard,
                    "howard_ms": howard_ms,
                    "brute": brute,
                    "brute_ms": brute_ms,
                }
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    for row in rows:
        assert row["search"] == row["karp"] == row["howard"]
        if row["brute"] is not None:
            assert row["brute"] == row["search"]
    # The search is the library's engine because it is the fast exact
    # path; Karp is the reference and Howard the independent oracle.
    # Same-run guards at the largest size: the search must stay at
    # least 3x faster than Karp, and integer Karp at least 3x faster
    # than Howard.
    big = rows[-1]
    assert big["search_ms"] * 3 <= big["karp_ms"]
    assert big["karp_ms"] * 3 <= big["howard_ms"]

    table = [
        [
            r["v"],
            f"{r['nodes']}/{r['edges']}",
            f"{float(r['search']):.3f}",
            f"{r['search_ms']:.2f}",
            f"{r['karp_ms']:.2f}",
            f"{r['howard_ms']:.2f}",
            "-" if r["brute_ms"] is None else f"{r['brute_ms']:.2f}",
        ]
        for r in rows
    ]
    publish(
        "ablation_mcm",
        render_table(
            [
                "v",
                "nodes/edges",
                "MST",
                "search ms",
                "Karp ms",
                "Howard ms",
                "enumerate ms",
            ],
            table,
            title="Ablation - minimum cycle mean algorithms on doubled graphs",
        ),
        data={"rows": rows},
    )
