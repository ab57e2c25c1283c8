"""Degeneracy pinning: the stochastic layer collapses onto the
deterministic toolchain exactly when the randomness does.

* Zero-variance specs (periodic patterns, rate-0/1 Bernoulli) make
  every Monte-Carlo trial identical and equal to one reference
  simulation under the same gate.
* Zero stalls reproduce the ``schedule`` oracle's exact firing counts,
  rates, and peak occupancies.
* A fixed seed is bit-for-bit reproducible, and the batched fast run
  matches trace/rtl through the same :meth:`StallSchedule.gate`.
"""

import numpy as np
from hypothesis import assume, example, given, settings

from repro.analysis import get_context
from repro.core import LisGraph
from repro.gen import fig15_lis
from repro.lis import RtlSimulator, TraceSimulator, get_backend
from repro.sim import FastSimulator
from repro.stochastic import (
    bernoulli_stalls,
    compile_stochastic,
    periodic_stalls,
    run_monte_carlo,
)
from tests.strategies import lis_graphs, stochastic_specs

CLOCKS = 40
TRIALS = 3


def _fired_counts(trace, clocks):
    return {node: sum(flags[:clocks]) for node, flags in trace.fired.items()}


# ----------------------------------------------------------------------
# Zero-variance specs = one deterministic reference run
# ----------------------------------------------------------------------


@given(
    lis=lis_graphs(max_shells=4, max_channels=6, max_relays=2),
    spec=stochastic_specs(deterministic=True),
)
@settings(max_examples=40, deadline=None)
def test_zero_variance_trials_equal_reference_sim(lis, spec):
    schedule = compile_stochastic(lis, spec, CLOCKS, trials=TRIALS)
    assert spec.is_deterministic()
    # Every trial drew the identical stall pattern...
    assert np.array_equal(
        schedule.stalled,
        np.broadcast_to(
            schedule.stalled[:, :1, :], schedule.stalled.shape
        ),
    )
    mc = run_monte_carlo(
        lis, spec, clocks=CLOCKS, trials=TRIALS, schedule=schedule
    )
    assert len(set(mc.counts.tolist())) == 1
    assert len(set(mc.occupancy.tolist())) == 1

    # ...and it equals one FastSimulator run under the same gate,
    # firing count and peak occupancy alike.
    sim = FastSimulator(lis, faults=schedule.gate(0))
    trace = sim.run(CLOCKS)
    assert int(mc.counts[0]) == sum(trace.fired[mc.node])
    occ = sim.max_queue_occupancy()
    assert int(mc.occupancy[0]) == (max(occ.values()) if occ else 0)


def _late_peak_system():
    """Transient 53, hyperperiod 3: its peak occupancy (4) is not
    reached within the default 40-clock horizon."""
    lis = LisGraph()
    for shell in ("s0", "s1", "s2", "s3"):
        lis.add_shell(shell)
    lis.add_channel("s0", "s0", relays=2)
    lis.add_channel("s3", "s1", queue=3)
    lis.add_channel("s3", "s2", relays=1)
    lis.add_channel("s0", "s1")
    lis.add_channel("s2", "s3", relays=2)
    return lis


@given(lis=lis_graphs(max_shells=4, max_channels=6, max_relays=2))
@example(lis=_late_peak_system())
@settings(max_examples=40, deadline=None)
def test_zero_stalls_reproduce_schedule_oracle(lis):
    """rate-0 Bernoulli is the deterministic system: counts, rates and
    peak occupancy must equal the analytic oracle exactly.  The peak
    is only reached once the horizon covers the oracle's transient
    and one hyperperiod, so the run lasts at least that long."""
    assume(get_backend("schedule").supports(lis))
    ctx = get_context(lis)
    spec = bernoulli_stalls(rate=0.0, scope="global")
    oracle = ctx.schedule_oracle()
    clocks = max(CLOCKS, oracle.transient + oracle.hyperperiod)
    mc = run_monte_carlo(ctx, spec, clocks=clocks, trials=2)
    expected = oracle.firings(mc.node, clocks)
    assert [int(c) for c in mc.counts] == [expected, expected]
    assert all(
        rate == expected / clocks for rate in mc.throughput.tolist()
    )
    occ = oracle.max_queue_occupancy()
    assert int(mc.occupancy[0]) == (max(occ.values()) if occ else 0)


def test_rate_one_stalls_everything():
    mc = run_monte_carlo(
        fig15_lis(),
        bernoulli_stalls(rate=1.0, scope="global"),
        clocks=20,
        trials=2,
        work=1,
    )
    assert mc.counts.tolist() == [0, 0]
    assert np.isinf(mc.completion).all()


# ----------------------------------------------------------------------
# The dilation identity, pinned directly
# ----------------------------------------------------------------------


def test_global_periodic_dilation_identity():
    """Global stalls freeze the marking, so the stochastic count is the
    oracle count on the active-clock subsequence: N(t) = F(A(t))."""
    ctx = get_context(fig15_lis())
    spec = periodic_stalls(burst=2, gap=5, scope="global")
    schedule = compile_stochastic(ctx.lis, spec, 60, trials=2)
    mc = run_monte_carlo(ctx, spec, clocks=60, trials=2, schedule=schedule)
    active = int((~schedule.stalled[:, 0, 0]).sum())
    oracle = ctx.schedule_oracle()
    assert [int(c) for c in mc.counts] == [
        oracle.firings(mc.node, active)
    ] * 2


# ----------------------------------------------------------------------
# Fixed seeds: bit-for-bit across backends and runs
# ----------------------------------------------------------------------


def test_fixed_seed_runs_are_bit_for_bit_reproducible():
    lis = fig15_lis()
    spec = bernoulli_stalls(rate=0.2, scope="all", seed=5)
    a = run_monte_carlo(lis, spec, clocks=50, trials=8)
    b = run_monte_carlo(lis, spec, clocks=50, trials=8)
    assert a.node == b.node and a.work == b.work
    for metric in ("counts", "throughput", "completion", "occupancy"):
        assert np.array_equal(getattr(a, metric), getattr(b, metric))


def test_cross_backend_firings_identical_under_shared_schedule():
    """trace, rtl and fast, driven by the same sampled trial, fire the
    same transitions on the same clocks -- so the batched Monte-Carlo
    counts are exactly what the reference simulators would measure."""
    lis = fig15_lis()
    spec = bernoulli_stalls(rate=0.2, scope="all", seed=5)
    clocks, trials = 48, 2
    schedule = compile_stochastic(lis, spec, clocks, trials=trials)
    mc = run_monte_carlo(
        lis, spec, clocks=clocks, trials=trials, schedule=schedule
    )
    for trial in range(trials):
        gate = schedule.gate(trial)
        fast = FastSimulator(lis, faults=gate).run(clocks)
        trace = TraceSimulator(lis, faults=gate).run(clocks)
        rtl = RtlSimulator(lis, faults=gate).run(clocks)
        assert fast.fired == trace.fired == rtl.fired
        assert int(mc.counts[trial]) == sum(fast.fired[mc.node])
