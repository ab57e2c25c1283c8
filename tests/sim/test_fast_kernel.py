"""The vectorized kernel front-ends: FastSimulator and BatchSimulator."""

from fractions import Fraction

import pytest

from repro.core import actual_mst, relay_name
from repro.gen import fig1_lis, fig15_lis, uplink_downlink_lis
from repro.lis import TAU, ShellBehavior, TraceSimulator, adder
from repro.sim import BatchSimulator, FastSimulator, simulate_fast


def table1_behaviors():
    state = {"k": 0}

    def a_fn(_inputs):
        state["k"] += 1
        return {0: 2 * state["k"], 1: 2 * state["k"] + 1}

    return {
        "A": ShellBehavior(initial={0: 0, 1: 1}, fn=a_fn),
        "B": adder(initial=0),
    }


def test_fast_reproduces_table1():
    lis = fig1_lis()
    lis.set_queue(1, 2)
    trace = simulate_fast(lis, 4, table1_behaviors())
    assert trace.row("A") == [0, 2, 4, 6]
    assert trace.row(relay_name(0, 0)) == [TAU, 0, 2, 4]
    assert trace.row("B") == [0, TAU, 1, 5]


def test_incremental_runs_accumulate():
    sim = FastSimulator(fig1_lis(), table1_behaviors())
    sim.run(3)
    trace = sim.run(3)
    assert trace.clocks == sim.clocks == 6
    reference = TraceSimulator(fig1_lis(), table1_behaviors()).run(6)
    assert trace.outputs == reference.outputs


def test_throughput_and_occupancy_match_trace_sim():
    lis = uplink_downlink_lis()
    fast = FastSimulator(lis)
    fast.run(300)
    ref = TraceSimulator(lis)
    ref.run(300)
    for shell in lis.shells():
        assert fast.throughput(shell, skip=50) == ref.trace.throughput(
            shell, skip=50
        )
    assert fast.max_queue_occupancy() == ref.max_queue_occupancy()


def test_extra_tokens_restore_throughput():
    lis = fig15_lis()
    fast = FastSimulator(lis, extra_tokens={5: 1, 6: 1})
    fast.run(420)
    assert abs(fast.throughput("A", skip=20) - Fraction(5, 6)) < Fraction(
        1, 40
    )


def test_batch_evaluates_assignments_independently():
    res = BatchSimulator(fig1_lis(), [{}, {1: 1}]).run(400, warmup=100)
    assert res.width == 2
    assert res.throughput(0, "A") == Fraction(2, 3)
    assert res.throughput(1, "A") == Fraction(1)
    # Each configuration's rates equal a dedicated reference run.
    for b, extra in enumerate(res.assignments):
        ref = TraceSimulator(fig1_lis(), extra_tokens=extra)
        ref.run(400)
        for shell in ("A", "B"):
            assert res.throughput(b, shell) == ref.trace.throughput(
                shell, skip=100
            )
        assert res.max_queue_occupancy(b) == ref.max_queue_occupancy()


def test_batch_throughput_dict_covers_all_nodes():
    res = BatchSimulator(fig1_lis()).run(60)
    rates = res.throughput(0)
    assert set(rates) == set(res.compiled.node_names)
    assert rates["A"] == res.throughput(0, "A")


def test_batch_record_history_and_replay():
    res = BatchSimulator(fig1_lis(), [{}, {1: 1}]).run(40, record=True)
    ref = TraceSimulator(fig1_lis(), table1_behaviors()).run(40)
    assert res.fired(0) == ref.fired
    assert res.to_trace(0, table1_behaviors()).outputs == ref.outputs
    # The repaired configuration fires every clock after startup.
    assert all(res.fired(1)["A"][3:])


def test_replay_of_a_sized_configuration():
    """``to_trace(b)`` of a sized configuration equals a reference run
    with that configuration's extra tokens."""
    res = BatchSimulator(fig1_lis(), [{}, {1: 1}]).run(40, record=True)
    ref = TraceSimulator(fig1_lis(), table1_behaviors(), {1: 1}).run(40)
    replayed = res.to_trace(1, table1_behaviors())
    assert replayed.fired == ref.fired
    assert replayed.outputs == ref.outputs


def test_history_required_for_replay():
    res = BatchSimulator(fig1_lis()).run(10)
    with pytest.raises(ValueError):
        res.fired(0)
    with pytest.raises(ValueError):
        res.to_trace(0)


def test_run_argument_validation():
    sim = BatchSimulator(fig1_lis())
    with pytest.raises(ValueError):
        sim.run(0)
    with pytest.raises(ValueError):
        sim.run(10, warmup=10)
    with pytest.raises(ValueError):
        BatchSimulator(fig1_lis(), [])
    with pytest.raises(ValueError):
        FastSimulator(fig1_lis()).run(0)


def test_fast_rate_matches_static_mst():
    lis = fig15_lis()
    rate = FastSimulator(lis).run(420).throughput("A", skip=20)
    assert abs(rate - actual_mst(lis).mst) < Fraction(1, 40)


def test_kernel_thread_leaves_the_gil_to_an_event_loop():
    """A small-batch run in a worker thread must not starve an asyncio
    loop in the main thread (a server shard beside its event loop)."""
    import asyncio
    import threading
    import time

    from repro.analysis import get_context

    ctx = get_context(fig15_lis())  # compiled once, as a server's is
    stop = threading.Event()

    def worker():
        while not stop.is_set():
            BatchSimulator(ctx).run(2000)

    async def lateness_ms():
        late = []
        for _ in range(200):
            t0 = time.perf_counter()
            await asyncio.sleep(0.001)
            late.append((time.perf_counter() - t0 - 0.001) * 1e3)
        return sorted(late)

    thread = threading.Thread(target=worker)
    thread.start()
    try:
        late = asyncio.run(lateness_ms())
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    # Handed the GIL every few hundred steps, the loop is late by well
    # under a millisecond on average; starved, it was late by tens of
    # milliseconds at a time.
    assert sum(late) / len(late) < 2, late[-20:]
