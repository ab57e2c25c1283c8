"""Tail-latency curves: batched Monte-Carlo vs per-trial simulation.

Runs the ``tail_curves`` deliverable (p50/p99/p999 completion time vs
uniform queue sizing under a 10% global Bernoulli service modulation)
on Fig. 15, the COFDM transmitter, and a 4x4 mesh NoC, and asserts the
two properties the stochastic layer is built on:

* **exactness** -- under global modulated service the analytic
  dilation estimate is an exact quantile, so it must land inside every
  Monte-Carlo confidence band (``agreement["ok"]``);
* **batching wins** -- the whole ladder of
  ``(max_extra + 1) * trials`` configurations runs as one vectorized
  kernel batch; a per-trial loop through the same fast backend is the
  "before" timing, published as a before/after pair
  (``tail_curves.before.json`` / ``tail_curves.after.json``) so
  ``check_regression.py --min-speedup`` can guard it in CI.
"""

import time

from repro.analysis import get_context
from repro.experiments import render_table, save_result_json, tail_latency_curves
from repro.gen import fig15_lis, mesh_lis
from repro.soc import cofdm_transmitter
from repro.stochastic import (
    bernoulli_stalls,
    compile_stochastic,
)

CLOCKS = 400
TRIALS = 64
MAX_EXTRA = 2
SPEC = bernoulli_stalls(rate=0.1, scope="global", seed=11)
MIN_SPEEDUP = 2.0


def _per_trial_sweep(ctx):
    """The unbatched baseline: one FastSimulator run per (sizing,
    trial) through the same stall schedule -- what the Monte-Carlo
    estimator would cost without the batch axis."""
    from repro.sim import FastSimulator

    schedule = compile_stochastic(ctx.lis, SPEC, clocks=CLOCKS, trials=TRIALS)
    t0 = time.perf_counter()
    for extra in ({}, {cid: 1 for cid in ctx.channel_ids()}):
        for trial in range(TRIALS):
            sim = FastSimulator(
                ctx, extra_tokens=extra, faults=schedule.gate(trial)
            )
            sim.run(CLOCKS)
    return time.perf_counter() - t0


def test_tail_curves(benchmark, publish):
    systems = {
        "fig15": fig15_lis(),
        "cofdm": cofdm_transmitter(),
        "mesh4x4": mesh_lis(4, 4),
    }

    t0 = time.perf_counter()
    curves = tail_latency_curves(
        systems=systems,
        specs=[SPEC.as_dict()],
        clocks=CLOCKS,
        trials=TRIALS,
        max_extra=MAX_EXTRA,
    )
    batched_s = time.perf_counter() - t0

    rows = []
    for name, curve in curves.items():
        for point in curve["points"]:
            check = point["agreement"]
            # Global scope -> the dilation estimate is exact and must
            # sit inside every MC confidence band.
            assert check["exact"], name
            assert check["ok"], (name, check)
        base = curve["points"][0]
        best = curve["points"][-1]
        rows.append(
            [
                name,
                curve["node"],
                curve["work"],
                base["completion"]["p99"],
                best["completion"]["p99"],
                base["throughput"]["mean"],
                best["throughput"]["mean"],
            ]
        )

    # The unbatched baseline, timed on the cheapest system only (it is
    # already the slow side of the comparison).
    ctx = get_context(fig15_lis())
    loop_s = _per_trial_sweep(ctx)
    # Scale: the loop covered 2 sizings of 1 system; the batch covered
    # (MAX_EXTRA + 1) sizings of 3 systems.
    loop_equiv_s = loop_s * ((MAX_EXTRA + 1) / 2) * len(systems)
    speedup = loop_equiv_s / batched_s
    assert speedup >= MIN_SPEEDUP, speedup

    def batched_fig15():
        return tail_latency_curves(
            systems={"fig15": fig15_lis()},
            specs=[SPEC.as_dict()],
            clocks=CLOCKS,
            trials=TRIALS,
            max_extra=MAX_EXTRA,
        )

    benchmark.pedantic(batched_fig15, rounds=3, iterations=1)

    save_result_json(
        "tail_curves.before",
        {
            "phase": "per-trial-loop",
            "clocks": CLOCKS,
            "trials": TRIALS,
            "max_extra": MAX_EXTRA,
            "sweep_mean_ms": loop_equiv_s * 1e3,
        },
    )
    save_result_json(
        "tail_curves.after",
        {
            "phase": "batched-monte-carlo",
            "clocks": CLOCKS,
            "trials": TRIALS,
            "max_extra": MAX_EXTRA,
            "sweep_mean_ms": batched_s * 1e3,
        },
    )
    publish(
        "tail_curves",
        render_table(
            [
                "system",
                "node",
                "work",
                "p99 @0",
                f"p99 @+{MAX_EXTRA}",
                "rate @0",
                f"rate @+{MAX_EXTRA}",
            ],
            rows,
            title=(
                f"Tail curves - global Bernoulli 10%, {TRIALS} trials x "
                f"{CLOCKS} clocks, sizing ladder 0..+{MAX_EXTRA}"
            ),
        ),
        data={
            "clocks": CLOCKS,
            "trials": TRIALS,
            "max_extra": MAX_EXTRA,
            "batched_ms": batched_s * 1e3,
            "per_trial_equiv_ms": loop_equiv_s * 1e3,
            "speedup": speedup,
            "min_speedup_floor": MIN_SPEEDUP,
            "analytic_inside_mc_bands": True,
        },
    )
