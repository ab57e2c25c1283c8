"""The stalled batch kernel against the reference simulator.

Monte-Carlo trials and queue-sizing assignments share one kernel
batch.  Every (assignment, trial) configuration must fire exactly as
a ``TraceSimulator`` driven by that assignment and that trial's stall
gate: the same firing history, the same window counts and the same
peak queue occupancies.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gen import fig1_lis, fig15_lis
from repro.lis import TraceSimulator
from repro.sim import BatchSimulator, FastSimulator, compile_lis
from repro.stochastic import bernoulli_stalls, compile_stochastic
from tests.strategies import lis_systems, stochastic_specs


def _assert_matches_reference(run, b, lis, extra, gate):
    """Configuration ``b`` of ``run`` equals a reference run."""
    ref = TraceSimulator(lis, extra_tokens=extra, faults=gate)
    trace = ref.run(run.clocks)
    for i, name in enumerate(run.compiled.node_names):
        fired = trace.fired[name]
        assert run.history[:, b, i].tolist() == fired, name
        assert int(run.counts[b, i]) == sum(fired[run.warmup :]), name
    assert run.max_queue_occupancy(b) == ref.max_queue_occupancy()


@settings(max_examples=50)
@given(
    system=lis_systems(max_shells=4, max_channels=6, max_latency=3),
    specs=st.lists(
        stochastic_specs(kinds=("bernoulli", "burst")),
        min_size=1,
        max_size=2,
    ),
    data=st.data(),
)
def test_stalled_batch_equals_reference_per_trial(system, specs, data):
    lis, _behaviors = system
    clocks = data.draw(st.integers(min_value=1, max_value=40))
    trials = data.draw(st.integers(min_value=1, max_value=3))
    warmup = data.draw(st.integers(min_value=0, max_value=clocks - 1))
    channels = lis.channel_ids()
    extra = (
        st.dictionaries(
            st.sampled_from(channels), st.integers(min_value=0, max_value=3)
        )
        if channels
        else st.just({})
    )
    assignments = data.draw(st.lists(extra, min_size=1, max_size=3))
    schedule = compile_stochastic(lis, specs, clocks, trials=trials)
    sim = BatchSimulator(lis, [a for a in assignments for _ in range(trials)])
    mask = schedule.mask(sim.compiled, assignments=len(assignments))
    run = sim.run(clocks, warmup=warmup, record=True, stall_mask=mask)
    for a, assignment in enumerate(assignments):
        for trial in range(trials):
            _assert_matches_reference(
                run, a * trials + trial, lis, assignment, schedule.gate(trial)
            )


def test_one_stall_mask_shared_by_the_whole_batch():
    lis = fig15_lis()
    clocks = 60
    schedule = compile_stochastic(
        lis, bernoulli_stalls(rate=0.3, seed=9), clocks
    )
    assignments = [{}, {5: 1}, {5: 1, 6: 2}]
    sim = BatchSimulator(lis, assignments)
    mask = schedule.mask(sim.compiled)[:, 0, :]  # (clocks, n_nodes)
    run = sim.run(clocks, warmup=10, record=True, stall_mask=mask)
    for b, extra in enumerate(assignments):
        _assert_matches_reference(run, b, lis, extra, schedule.gate())


def test_incremental_stalled_runs_continue_one_run():
    lis = fig15_lis()
    schedule = compile_stochastic(
        lis, bernoulli_stalls(rate=0.25, seed=4), 70
    )
    whole = FastSimulator(lis, extra_tokens={5: 1}, faults=schedule.gate())
    whole.run(70)
    parts = FastSimulator(lis, extra_tokens={5: 1}, faults=schedule.gate())
    parts.run(23)
    parts.run(47)
    assert parts.clocks == 70
    assert parts.trace.fired == whole.trace.fired
    assert parts.max_queue_occupancy() == whole.max_queue_occupancy()
    ref = TraceSimulator(lis, extra_tokens={5: 1}, faults=schedule.gate())
    assert ref.run(70).fired == whole.trace.fired
    assert ref.max_queue_occupancy() == whole.max_queue_occupancy()


def test_marking_dtype_follows_the_token_bound():
    lis = fig1_lis()
    compiled = compile_lis(lis)
    assert compiled.paired
    assert compiled.slot_marking([{}]).dtype == np.int8
    assert compiled.slot_marking([{}, {1: 254}]).dtype == np.int16
    assert compiled.slot_marking([{1: 65_534}]).dtype == np.int64
    # The ideal lowering has places without a reverse partner: only
    # the horizon bounds them.
    ideal = compile_lis(lis, mg=lis.ideal_marked_graph())
    assert not ideal.paired
    assert ideal.slot_marking([{}]).dtype == np.int64
    assert ideal.slot_marking([{}], horizon=100).dtype == np.int8
    assert ideal.slot_marking([{}], horizon=1000).dtype == np.int16


def test_wide_markings_step_like_the_reference():
    # Counts that would wrap to -1 in the next narrower dtype, which
    # would block the channel for good.
    lis = fig1_lis()
    schedule = compile_stochastic(lis, bernoulli_stalls(rate=0.2, seed=3), 80)
    assignments = [{1: 254}, {1: 65_534}]
    sim = BatchSimulator(lis, assignments)
    run = sim.run(
        80, warmup=5, record=True, stall_mask=schedule.mask(sim.compiled)[:, 0]
    )
    for b, extra in enumerate(assignments):
        _assert_matches_reference(run, b, lis, extra, schedule.gate())
