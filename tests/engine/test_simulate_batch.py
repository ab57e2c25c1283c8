"""The ``simulate_batch`` engine op: caching, parallel determinism,
and the derived answers of its ``fast`` path, pinned to stepping."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import Context, ContextStats, get_context
from repro.core.lis_graph import LisError
from repro.engine import AnalysisEngine
from repro.engine.ops import get_op
from repro.gen import (
    GeneratorConfig,
    fig1_lis,
    fig15_lis,
    generate_lis,
    named_system,
)
from repro.sim import BatchSimulator

from ..strategies import lis_graphs

simulate_batch = get_op("simulate_batch")


def batch_task(lis, assignments, clocks=200, warmup=50):
    return (
        "simulate_batch",
        lis,
        {"assignments": assignments, "clocks": clocks, "warmup": warmup},
    )


def test_matches_direct_batch_simulator():
    lis = fig1_lis()
    assignments = [{}, {1: 1}]
    with AnalysisEngine() as eng:
        (result,) = eng.run([batch_task(lis, assignments, clocks=300, warmup=60)])
    direct = BatchSimulator(lis, assignments).run(360, warmup=60)
    for b in range(2):
        assert result[b]["max_occupancy"] == direct.max_queue_occupancy(b)
        for shell, rate in result[b]["throughput"].items():
            assert rate == direct.throughput(b, shell)
    assert result[0]["throughput"]["A"] == Fraction(2, 3)
    assert result[1]["throughput"]["A"] == Fraction(1)


def test_identical_batch_hits_the_cache():
    lis = fig15_lis()
    task = batch_task(lis, [{}, {5: 1, 6: 1}])
    with AnalysisEngine() as eng:
        first = eng.run([task])
        second = eng.run([task])
        assert first == second
        op = eng.stats.ops["simulate_batch"]
        assert op.calls == 2
        assert op.misses == 1
        assert op.hits == 1


def test_different_assignments_miss_the_cache():
    lis = fig15_lis()
    with AnalysisEngine() as eng:
        eng.run([batch_task(lis, [{}])])
        eng.run([batch_task(lis, [{5: 1}])])
        assert eng.stats.ops["simulate_batch"].misses == 2


def test_parallel_results_identical_and_ordered(tmp_path):
    systems = [
        generate_lis(
            GeneratorConfig(
                v=14, s=3, c=2, rs=4, rp=True, policy="scc", seed=8800 + i
            )
        )
        for i in range(5)
    ]
    tasks = [batch_task(lis, [{}, {0: 1}], clocks=120, warmup=30) for lis in systems]
    with AnalysisEngine() as serial_eng:
        serial = serial_eng.run(tasks)
    with AnalysisEngine(jobs=2) as par_eng:
        parallel = par_eng.run(tasks)
    with AnalysisEngine(jobs=2, cache_dir=tmp_path / "c") as cold_eng:
        cold = cold_eng.run(tasks)
    assert parallel == serial  # submission order, bit-for-bit
    assert cold == serial


def test_disk_cache_roundtrip(tmp_path):
    lis = fig1_lis()
    task = batch_task(lis, [{}, {1: 1}])
    with AnalysisEngine(cache_dir=tmp_path / "c") as eng:
        first = eng.run([task])
    with AnalysisEngine(cache_dir=tmp_path / "c") as warm:
        second = warm.run([task])
        assert warm.stats.ops["simulate_batch"].disk_hits == 1
    assert first == second


# ----------------------------------------------------------------------
# The fast path answers from the schedule; stepping is the reference
# ----------------------------------------------------------------------


def stepped(ctx, assignments, clocks, warmup, check_feasible=False):
    """The op's answer computed the reference way: step the whole batch."""
    result = BatchSimulator(ctx, assignments).run(warmup + clocks, warmup=warmup)
    compiled = result.compiled
    flags = (
        ctx.td_kernel(simplify=False).check_batch(assignments)
        if check_feasible
        else None
    )
    out = []
    for b in range(result.width):
        rates = result.throughput(b)
        entry = {
            "throughput": {
                name: rates[name]
                for i, name in enumerate(compiled.node_names)
                if compiled.is_shell[i]
            },
            "max_occupancy": result.max_queue_occupancy(b),
        }
        if flags is not None:
            entry["feasible"] = bool(flags[b])
        out.append(entry)
    return out


@settings(max_examples=60)
@given(lis_graphs(max_relays=2, max_latency=3, min_channels=1), st.data())
def test_fast_path_equals_stepping(lis, data):
    ctx = get_context(lis)
    ids = lis.channel_ids()
    assignments = data.draw(
        st.lists(
            st.dictionaries(
                st.sampled_from(ids), st.integers(min_value=0, max_value=3)
            ),
            min_size=1,
            max_size=8,
        )
    )
    warmup = data.draw(st.integers(min_value=0, max_value=20))
    # From 1 clock up: short horizons, often shorter than a transient
    # plus a period, leave the walks too small a budget, so the batch
    # falls back to stepping.
    clocks = data.draw(
        st.one_of(
            st.integers(min_value=1, max_value=12),
            st.integers(min_value=200, max_value=800),
        )
    )
    check = data.draw(st.booleans())
    out, meta = simulate_batch(
        ctx,
        {
            "assignments": assignments,
            "clocks": clocks,
            "warmup": warmup,
            "check_feasible": check,
        },
    )
    assert out == stepped(ctx, assignments, clocks, warmup, check)
    assert meta["simulated_cycles"] in (0, warmup + clocks)


def serve_mix_batch(lis, seed):
    """16 seeded assignments of 1-2 extra tokens on 1-3 channels."""
    rng = random.Random(seed)
    ids = lis.channel_ids()
    return [
        {c: rng.randint(1, 2) for c in rng.sample(ids, rng.randint(1, 3))}
        for _ in range(16)
    ]


@pytest.mark.parametrize("system", ["fig15", "cofdm", "mesh:4x4", "torus:3x3"])
def test_serve_mix_batches_are_derived(system):
    ctx = get_context(named_system(system))
    assignments = serve_mix_batch(ctx, 7)
    out, meta = simulate_batch(
        ctx, {"assignments": assignments, "clocks": 2000}
    )
    assert meta["simulated_cycles"] == 0  # no silent fallback
    assert out == stepped(ctx, assignments, 2000, 100)


@pytest.mark.parametrize(
    "options, error, message",
    [
        ({"clocks": 0, "warmup": 0}, ValueError, "clocks must be positive"),
        ({"clocks": 0}, ValueError, "warmup must satisfy"),
        ({"clocks": -5}, ValueError, "warmup must satisfy"),
        ({"warmup": -1}, ValueError, "warmup must satisfy"),
        (
            {"assignments": [{}, {99: 1}]},
            LisError,
            r"extra tokens on unknown channels: \[99\]",
        ),
        (
            {"assignments": [{1: 1}, {1: -1}]},
            LisError,
            "negative extra tokens on channel 1",
        ),
    ],
    ids=[
        "empty-horizon",
        "no-clocks",
        "negative-clocks",
        "negative-warmup",
        "unknown-channel",
        "negative-extra",
    ],
)
def test_bad_requests_fail_as_stepping_does(options, error, message):
    ctx = get_context(fig1_lis())
    with pytest.raises(error, match=message):
        simulate_batch(ctx, options)
    assignments = options.get("assignments") or [{}]
    warmup = options.get("warmup", 100)
    with pytest.raises(error, match=message):
        BatchSimulator(ctx, assignments).run(
            warmup + options.get("clocks", 400), warmup=warmup
        )


@pytest.mark.parametrize("backend", ["fast", "schedule"])
def test_distinct_assignments_leave_nothing_behind(backend):
    ctx = Context(fig15_lis(), stats=ContextStats())
    batches = [[{5: 1 + k // 7, 6: k % 7}] for k in range(41)]
    simulate_batch(ctx, {"assignments": batches[0], "backend": backend})
    misses = ctx.stats.count("schedule", "miss")
    artifacts = len(ctx._artifacts)
    for batch in batches[1:]:
        simulate_batch(ctx, {"assignments": batch, "backend": backend})
    assert ctx.stats.count("schedule", "miss") == misses
    assert len(ctx._artifacts) == artifacts
