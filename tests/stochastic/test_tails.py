"""The analytic tail layer: exponents, effective-bandwidth dilation,
and the exact/approximate split of :func:`estimate_tails`."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import Context, ContextStats, get_context
from repro.core import LisGraph
from repro.gen import fig15_lis, mesh_lis
from repro.stochastic import (
    arrival_envelope,
    bernoulli_stalls,
    burst_stalls,
    estimate_tails,
    periodic_stalls,
)
from repro.stochastic.spec import _targets
from repro.stochastic.tails import (
    _combined_fraction,
    default_work,
    effective_rate,
    tail_exponent,
)

from ..strategies import lis_graphs, stochastic_specs


# ----------------------------------------------------------------------
# Large-deviations exponents
# ----------------------------------------------------------------------


def test_tail_exponent_values():
    # Bernoulli: each extra delay clock costs a factor p -> -ln p.
    assert tail_exponent(bernoulli_stalls(rate=0.1)) == pytest.approx(
        -math.log(0.1)
    )
    # Burst: the stalled run must persist -> -ln(1 - 1/burst).
    assert tail_exponent(burst_stalls(burst=4.0, gap=12.0)) == pytest.approx(
        -math.log1p(-0.25)
    )
    # Degenerate burst length 1: every stalled run ends immediately.
    assert tail_exponent(burst_stalls(burst=1.0, gap=3.0)) == math.inf
    # arrival_envelope may clamp burst to 1.0 -- must not raise.
    assert tail_exponent(arrival_envelope(0.8, sigma=3.0)) == math.inf
    # Periodic: bounded delay, no tail.
    assert tail_exponent(periodic_stalls(burst=2, gap=6)) == math.inf
    # Limits.
    assert tail_exponent(bernoulli_stalls(rate=0.0)) == math.inf
    assert tail_exponent(bernoulli_stalls(rate=1.0)) == 0.0


def test_exponents_order_heavier_tails():
    """A heavier service process must have a smaller decay exponent."""
    light = tail_exponent(bernoulli_stalls(rate=0.05))
    heavy = tail_exponent(bernoulli_stalls(rate=0.5))
    assert heavy < light
    short = tail_exponent(burst_stalls(burst=2.0, gap=6.0))
    long_ = tail_exponent(burst_stalls(burst=8.0, gap=24.0))
    assert long_ < short


# ----------------------------------------------------------------------
# Effective-bandwidth rate bound
# ----------------------------------------------------------------------


def test_effective_rate_dilations():
    ctx = get_context(fig15_lis())
    r0 = float(ctx.schedule_oracle().min_rate())
    # No specs / zero-stall spec: the deterministic rate.
    assert effective_rate(ctx, []) == pytest.approx(r0)
    assert effective_rate(
        ctx, [bernoulli_stalls(rate=0.0)]
    ) == pytest.approx(r0)
    # A global Bernoulli dilates every cycle by exactly (1 - p).
    dilated = effective_rate(ctx, [bernoulli_stalls(rate=0.2, scope="global")])
    assert dilated == pytest.approx(r0 * 0.8)
    # Two independent processes compound; the bound is monotone.
    both = effective_rate(
        ctx,
        [
            bernoulli_stalls(rate=0.2, scope="global"),
            bernoulli_stalls(rate=0.1, scope="all"),
        ],
    )
    assert both <= dilated + 1e-12
    assert both == pytest.approx(r0 * 0.8 * 0.9)


def test_effective_rate_scoped_specs_spare_untouched_cycles():
    """A source-only envelope cannot slow a cycle that avoids the
    sources more than a cycle through them."""
    ctx = get_context(mesh_lis(3, 3))
    r0 = float(ctx.schedule_oracle().min_rate())
    scoped = effective_rate(ctx, [arrival_envelope(0.5, sigma=4.0)])
    everywhere = effective_rate(
        ctx, [burst_stalls(burst=4.0, gap=4.0, scope="all")]
    )
    assert 0.0 <= everywhere <= scoped <= r0


def enumerated_rate(ctx, specs, extra=None):
    """The effective-bandwidth bound by its definition: every cycle,
    dilated by the specs that touch it (the enumeration loop)."""
    extra = dict(extra or {})
    r0 = float(ctx.schedule_oracle(extra).min_rate())
    target_sets = [set(_targets(ctx.lis, s)) for s in specs]
    best = r0
    for record in ctx.cycle_records(extra):
        on_cycle = set(record.node_path)
        p_c = _combined_fraction(
            spec.stall_fraction
            for spec, targets in zip(specs, target_sets)
            if targets & on_cycle
        )
        best = min(best, float(record.mean) * (1.0 - p_c))
    return max(0.0, best)


@settings(max_examples=80)
@given(
    lis_graphs(max_relays=2, max_latency=2),
    st.lists(stochastic_specs(scopes=("all", "global")), min_size=1, max_size=3),
    st.data(),
)
def test_closed_form_rate_equals_enumeration(lis, specs, data):
    ids = lis.channel_ids()
    extra = (
        data.draw(
            st.dictionaries(
                st.sampled_from(ids), st.integers(min_value=0, max_value=3)
            )
        )
        if ids
        else {}
    )
    ctx = Context(lis, stats=ContextStats())
    assert effective_rate(ctx, specs, extra) == enumerated_rate(
        Context(lis), specs, extra
    )
    assert ctx.stats.count("cycles", "miss") == 0


def test_closed_form_rate_does_not_clamp_the_mean_at_one():
    """An acyclic system whose doubled graph's minimum cycle mean is
    3/2: clamping it at 1 would give 0.95, below the true bound."""
    lis = LisGraph()
    for shell in "ABC":
        lis.add_shell(shell)
    lis.add_channel("A", "B", queue=3)
    lis.add_channel("B", "C", queue=2)
    lis.add_channel("A", "C", queue=3)
    light = [bernoulli_stalls(rate=0.05, scope="all")]
    heavy = [bernoulli_stalls(rate=0.5, scope="all")]
    ctx = Context(lis, stats=ContextStats())
    assert effective_rate(ctx, light) == enumerated_rate(Context(lis), light)
    assert effective_rate(ctx, light) == 1.0
    # 3/2 * (1 - 0.5) is below the deterministic rate 1.
    assert effective_rate(ctx, heavy) == enumerated_rate(Context(lis), heavy)
    assert effective_rate(ctx, heavy) == 0.75
    assert ("cycles", ()) not in ctx._artifacts
    assert ctx.stats.count("cycles", "miss") == 0


# ----------------------------------------------------------------------
# estimate_tails: the exact path
# ----------------------------------------------------------------------


def test_exact_path_zero_variance_is_the_oracle():
    ctx = get_context(fig15_lis())
    oracle = ctx.schedule_oracle()
    est = estimate_tails(
        ctx, bernoulli_stalls(rate=0.0), clocks=200, quantiles=(0.5, 0.99)
    )
    assert est.exact and est.method == "dilation-exact"
    assert est.rate == pytest.approx(float(oracle.throughput(est.node)))
    # All quantiles coincide on the deterministic completion time.
    assert est.completion[0.5] == est.completion[0.99]
    assert est.throughput[0.5] == pytest.approx(
        oracle.firings(est.node, 200) / 200
    )


def test_exact_path_periodic_is_deterministic():
    ctx = get_context(fig15_lis())
    est = estimate_tails(
        ctx,
        periodic_stalls(burst=1, gap=3, scope="global"),
        clocks=200,
        quantiles=(0.5, 0.999),
    )
    assert est.exact
    assert est.completion[0.5] == est.completion[0.999]
    # Dilated by exactly the 25% stall fraction.
    r0 = float(ctx.schedule_oracle().throughput(est.node))
    assert est.rate == pytest.approx(r0 * 0.75)


def test_exact_quantiles_are_monotone_in_q_and_work():
    ctx = get_context(fig15_lis())
    spec = bernoulli_stalls(rate=0.2, scope="global", seed=1)
    est = estimate_tails(
        ctx, spec, clocks=300, quantiles=(0.5, 0.9, 0.99, 0.999)
    )
    qs = sorted(est.completion)
    values = [est.completion[q] for q in qs]
    assert values == sorted(values)
    # Higher q -> worse (lower) throughput quantile.
    tps = [est.throughput[q] for q in qs]
    assert tps == sorted(tps, reverse=True)
    # More work takes longer.
    more = estimate_tails(
        ctx, spec, clocks=300, work=est.work * 2, node=est.node
    )
    assert more.completion[0.5] > est.completion[0.5]


def test_multiple_global_bernoullis_stay_exact():
    ctx = get_context(fig15_lis())
    est = estimate_tails(
        ctx,
        [
            bernoulli_stalls(rate=0.1, scope="global", seed=1),
            bernoulli_stalls(rate=0.1, scope="global", seed=2),
        ],
        clocks=200,
    )
    assert est.exact  # independent Bernoulli globals union to one
    r0 = float(ctx.schedule_oracle().throughput(est.node))
    assert est.rate == pytest.approx(r0 * 0.9 * 0.9)


# ----------------------------------------------------------------------
# The approximate path
# ----------------------------------------------------------------------


def test_per_node_scope_falls_back_to_effective_bandwidth():
    ctx = get_context(fig15_lis())
    est = estimate_tails(ctx, bernoulli_stalls(rate=0.2, scope="all"), 200)
    assert not est.exact
    assert est.method == "effective-bandwidth"
    # Mixed global kinds have no closed form either.
    mixed = estimate_tails(
        ctx,
        [
            bernoulli_stalls(rate=0.1, scope="global"),
            burst_stalls(burst=2.0, gap=6.0, scope="global"),
        ],
        clocks=200,
    )
    assert not mixed.exact


def test_unreachable_work_hits_the_cap():
    ctx = get_context(fig15_lis())
    est = estimate_tails(
        ctx,
        bernoulli_stalls(rate=0.5, scope="global"),
        clocks=50,
        work=10_000,
        quantiles=(0.5,),
        cap=100,
    )
    assert est.completion[0.5] == math.inf
    assert est.as_dict()["completion"]["p50"] is None


def test_as_dict_cleans_infinities():
    est = estimate_tails(
        get_context(fig15_lis()),
        periodic_stalls(burst=1, gap=3, scope="global"),
        clocks=100,
    )
    d = est.as_dict()
    assert d["exponent"] is None  # periodic: bounded delay
    assert d["method"] == "dilation-exact"
    assert set(d["completion"]) == {"p50", "p99", "p999"}


def test_default_work_discounts_stalls():
    ctx = get_context(fig15_lis())
    oracle = ctx.schedule_oracle()
    node = max(
        oracle.shell_throughputs(),
        key=lambda s: (oracle.shell_throughputs()[s], repr(s)),
    )
    idle = default_work(oracle, node, 200, [bernoulli_stalls(rate=0.0)])
    busy = default_work(oracle, node, 200, [bernoulli_stalls(rate=0.5)])
    assert idle == oracle.firings(node, 200) // 2
    assert 1 <= busy <= idle
