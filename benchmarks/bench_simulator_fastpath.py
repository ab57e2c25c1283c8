"""Fast-path speedups: the vectorized batch kernel vs TraceSimulator,
and the ``simulate_batch`` op's derived answers vs kernel stepping.

Times a Table-II-scale generated system (50 shells plus relay stations)
three ways:

* ``trace``  -- the reference pure-Python ``TraceSimulator``;
* ``fast``   -- one configuration through the NumPy kernel;
* ``batch``  -- 64 queue-sizing assignments in a single (64, P) sweep.

The bar: at least 5x on a single configuration and at least 20x
aggregate on the 64-configuration batch, with throughput numbers that
match the reference *exactly*.

Then, on fig15, COFDM, ``mesh:4x4`` and ``torus:3x3``, batches shaped
like ``serve-mix``'s ``simulate`` misses go through the op, which
answers them from each assignment's eventually-periodic schedule,
and through ``BatchSimulator`` stepping.  The answers must be equal
dict for dict, and the op at least 5x faster in the same run.

Last, on the same four systems, Monte-Carlo batches shaped like
``serve-mix``'s ``tail`` misses (128 trials of 600 clocks, 5%
Bernoulli stalls on every node) step through ``BatchSimulator`` and
through the kernel step it replaced (``minimum.reduceat`` over a
(B, P) place marking, kept in this file only as the timing baseline
and equality oracle).  Counts, occupancies and firing histories must
be equal, and the kernel at least 2x faster in the same run.
"""

import random
import statistics
import time

import numpy as np

from repro.analysis import get_context
from repro.engine.ops import get_op
from repro.experiments import render_table
from repro.gen import GeneratorConfig, generate_lis, named_system
from repro.lis import TraceSimulator
from repro.sim import BatchSimulator
from repro.stochastic import bernoulli_stalls, compile_stochastic

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


MIX_SYSTEMS = ("fig15", "cofdm", "mesh:4x4", "torus:3x3")
MIX_CLOCKS = 2000
MIX_WARMUP = 100
MIX_SEEDS = (1, 2, 3)


def _mix_batch(lis, seed):
    """16 seeded assignments, each 1-2 extra tokens on 1-3 channels."""
    rng = random.Random(seed)
    ids = lis.channel_ids()
    return [
        {c: rng.randint(1, 2) for c in rng.sample(ids, rng.randint(1, 3))}
        for _ in range(16)
    ]


def _stepped(ctx, assignments):
    """The op's answer the stepping way: one ``BatchSimulator`` run."""
    result = BatchSimulator(ctx, assignments).run(
        MIX_WARMUP + MIX_CLOCKS, warmup=MIX_WARMUP
    )
    compiled = result.compiled
    return [
        {
            "throughput": {
                name: result.throughput(b, name)
                for i, name in enumerate(compiled.node_names)
                if compiled.is_shell[i]
            },
            "max_occupancy": result.max_queue_occupancy(b),
        }
        for b in range(result.width)
    ]


def test_derived_batches_beat_stepping(publish):
    simulate_batch = get_op("simulate_batch")
    rows = []
    derived_total = stepped_total = 0.0
    for name in MIX_SYSTEMS:
        ctx = get_context(named_system(name))
        derived_s = stepped_s = 0.0
        # Seed 0 is an untimed warm-up: both paths share the compile.
        for seed in (0, *MIX_SEEDS):
            assignments = _mix_batch(ctx, seed)
            t0 = time.perf_counter()
            out, meta = simulate_batch(
                ctx,
                {
                    "assignments": assignments,
                    "clocks": MIX_CLOCKS,
                    "warmup": MIX_WARMUP,
                },
            )
            t1 = time.perf_counter()
            reference = _stepped(ctx, assignments)
            t2 = time.perf_counter()
            assert meta["simulated_cycles"] == 0, name
            assert out == reference, name
            if seed:
                derived_s += t1 - t0
                stepped_s += t2 - t1
        derived_total += derived_s
        stepped_total += stepped_s
        rows.append(
            [
                name,
                f"{stepped_s * 1e3 / len(MIX_SEEDS):.1f} ms",
                f"{derived_s * 1e3 / len(MIX_SEEDS):.1f} ms",
                f"{stepped_s / derived_s:.1f}x",
            ]
        )
    speedup = stepped_total / derived_total
    assert speedup >= 5, speedup
    rows.append(
        [
            "total",
            f"{stepped_total * 1e3:.1f} ms",
            f"{derived_total * 1e3:.1f} ms",
            f"{speedup:.1f}x",
        ]
    )
    publish(
        "simulator_derived",
        render_table(
            ["system", "stepped / batch", "derived / batch", "speedup"],
            rows,
            title=(
                f"simulate_batch from the periodic schedule - 16 "
                f"assignments, {MIX_CLOCKS} clocks after {MIX_WARMUP}, "
                f"seeds {MIX_SEEDS[0]}-{MIX_SEEDS[-1]}"
            ),
        ),
        data={
            "systems": list(MIX_SYSTEMS),
            "clocks": MIX_CLOCKS,
            "warmup": MIX_WARMUP,
            "seeds": list(MIX_SEEDS),
            "stepped_s": stepped_total,
            "derived_s": derived_total,
            "speedup": speedup,
            "answers_equal": True,
        },
    )


MC_CLOCKS = 600
MC_TRIALS = 128
MC_REPS = 3


def _reduceat_run(compiled, trials, clocks, stall_mask):
    """The kernel step that the slot layout replaced: a (B, P) place
    marking, each node enabled by a ``minimum.reduceat`` over its
    consumer-sorted columns.  ``stall_mask`` is (clocks, B, n_nodes).
    Returns the counts, occupancies and history of a recorded run."""
    tokens = compiled.initial_tokens([{}] * trials)
    src, dst, occ_cols = compiled.src, compiled.dst, compiled.occ_cols
    starts = np.flatnonzero(np.diff(dst, prepend=-1))
    group_nodes = dst[starts]
    fired = np.ones((trials, compiled.n_nodes), dtype=tokens.dtype)
    live = np.empty_like(fired)
    counts = np.zeros_like(fired)
    occupancy = tokens[:, occ_cols].copy()
    history = np.zeros((clocks, trials, compiled.n_nodes), dtype=bool)
    for t in range(clocks):
        if starts.size:
            mins = np.minimum.reduceat(tokens, starts, axis=1)
            fired[:, group_nodes] = mins >= 1
        np.multiply(fired, ~stall_mask[t], out=live)
        history[t] = live != 0
        tokens += live[:, src]
        tokens -= live[:, dst]
        if occ_cols.size:
            np.maximum(occupancy, tokens[:, occ_cols], out=occupancy)
        counts += live
    return counts, occupancy, history


def _median_s(fn):
    times = []
    for _ in range(MC_REPS):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def test_monte_carlo_kernel_beats_reduceat(publish):
    spec = bernoulli_stalls(rate=0.05, scope="all", seed=1)
    rows = []
    slot_total = reduceat_total = 0.0
    for name in MIX_SYSTEMS:
        ctx = get_context(named_system(name))
        schedule = compile_stochastic(
            ctx, spec, clocks=MC_CLOCKS, trials=MC_TRIALS
        )
        sim = BatchSimulator(ctx, [{}] * MC_TRIALS)
        mask = schedule.mask(sim.compiled)
        flat_mask = np.ascontiguousarray(mask)
        slot_s, run = _median_s(
            lambda: sim.run(MC_CLOCKS, record=True, stall_mask=mask)
        )
        reduceat_s, (counts, occupancy, history) = _median_s(
            lambda: _reduceat_run(
                sim.compiled, MC_TRIALS, MC_CLOCKS, flat_mask
            )
        )
        assert np.array_equal(run.counts, counts), name
        assert np.array_equal(run.occupancy, occupancy), name
        assert np.array_equal(run.history, history), name
        slot_total += slot_s
        reduceat_total += reduceat_s
        compiled = sim.compiled
        rows.append(
            [
                name,
                f"{compiled.n_nodes}x{compiled.slot_width}",
                str(compiled.slot_marking([{}]).dtype),
                f"{reduceat_s * 1e3:.1f} ms",
                f"{slot_s * 1e3:.1f} ms",
                f"{reduceat_s / slot_s:.1f}x",
            ]
        )
    speedup = reduceat_total / slot_total
    assert speedup >= 2, speedup
    rows.append(
        [
            "total",
            "",
            "",
            f"{reduceat_total * 1e3:.1f} ms",
            f"{slot_total * 1e3:.1f} ms",
            f"{speedup:.1f}x",
        ]
    )
    publish(
        "simulator_montecarlo",
        render_table(
            ["system", "slots (N x D)", "marking", "reduceat", "slot kernel",
             "speedup"],
            rows,
            title=(
                f"Monte-Carlo stepping - {MC_TRIALS} trials x {MC_CLOCKS} "
                "clocks, 5% Bernoulli stalls on every node, recorded; "
                f"median of {MC_REPS}"
            ),
        ),
        data={
            "systems": list(MIX_SYSTEMS),
            "clocks": MC_CLOCKS,
            "trials": MC_TRIALS,
            "reduceat_s": reduceat_total,
            "slot_s": slot_total,
            "speedup": speedup,
            "answers_equal": True,
        },
    )
