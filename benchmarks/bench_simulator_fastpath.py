"""Fast-path speedup: the vectorized batch kernel vs TraceSimulator.

Times a Table-II-scale generated system (50 shells plus relay stations)
three ways:

* ``trace``  -- the reference pure-Python ``TraceSimulator``;
* ``fast``   -- one configuration through the NumPy kernel;
* ``batch``  -- 64 queue-sizing assignments in a single (64, P) sweep.

The acceptance bar from the issue: at least 5x on a single
configuration and at least 20x aggregate on the 64-configuration batch,
with throughput numbers that match the reference *exactly*.
"""

import time

from repro.experiments import render_table
from repro.gen import GeneratorConfig, generate_lis
from repro.lis import TraceSimulator
from repro.sim import BatchSimulator

CONFIG = GeneratorConfig(
    v=50, s=5, c=5, rs=10, rp=True, policy="scc", queue=1, seed=4242
)
CLOCKS = 500
WARMUP = 100
BATCH = 64


def _assignments(lis):
    """64 deterministic queue-sizing assignments over the sizable set."""
    cids = lis.channel_ids()
    out = []
    for b in range(BATCH):
        extra = {cid: (b + i) % 3 for i, cid in enumerate(cids[:8])}
        out.append({c: x for c, x in extra.items() if x})
    return out


def _trace_rates(lis, probe, assignments):
    rates = []
    for extra in assignments:
        sim = TraceSimulator(lis, extra_tokens=extra)
        sim.run(CLOCKS)
        rates.append(sim.trace.throughput(probe, skip=WARMUP))
    return rates


def test_fastpath_speedup(benchmark, publish):
    lis = generate_lis(CONFIG)
    probe = lis.shells()[0]
    assignments = _assignments(lis)

    t0 = time.perf_counter()
    trace_rates = _trace_rates(lis, probe, assignments)
    trace_elapsed = time.perf_counter() - t0
    trace_per_config = trace_elapsed / BATCH

    t0 = time.perf_counter()
    single = BatchSimulator(lis, [assignments[0]]).run(CLOCKS, warmup=WARMUP)
    fast_single = time.perf_counter() - t0

    def run_batch():
        return BatchSimulator(lis, assignments).run(CLOCKS, warmup=WARMUP)

    batched = benchmark.pedantic(run_batch, rounds=3, iterations=1)
    t0 = time.perf_counter()
    run_batch()
    fast_batch = time.perf_counter() - t0

    # Cycle-exact: every configuration's measured rate equals the
    # reference simulator's, bit for bit.
    assert single.throughput(0, probe) == trace_rates[0]
    batch_rates = [batched.throughput(b, probe) for b in range(BATCH)]
    assert batch_rates == trace_rates

    speedup_single = trace_per_config / fast_single
    speedup_batch = trace_elapsed / fast_batch
    assert speedup_single >= 5, speedup_single
    assert speedup_batch >= 20, speedup_batch

    rows = [
        ["trace (per config)", f"{trace_per_config * 1e3:.1f} ms", "1.0x"],
        ["fast (1 config)", f"{fast_single * 1e3:.1f} ms",
         f"{speedup_single:.1f}x"],
        [f"batch ({BATCH} configs)", f"{fast_batch * 1e3:.1f} ms",
         f"{speedup_batch:.1f}x aggregate"],
    ]
    publish(
        "simulator_fastpath",
        render_table(
            ["backend", "wall time", "speedup"],
            rows,
            title=(
                f"Vectorized fast path - v={CONFIG.v} system, "
                f"{CLOCKS} clocks, {BATCH}-assignment batch"
            ),
        ),
        data={
            "system": {"v": CONFIG.v, "s": CONFIG.s, "rs": CONFIG.rs,
                       "seed": CONFIG.seed},
            "clocks": CLOCKS,
            "warmup": WARMUP,
            "batch": BATCH,
            "trace_elapsed_s": trace_elapsed,
            "fast_single_s": fast_single,
            "fast_batch_s": fast_batch,
            "speedup_single": speedup_single,
            "speedup_batch_aggregate": speedup_batch,
            "rates_exact_match": True,
            "probe_rate": batch_rates[0],
        },
    )
