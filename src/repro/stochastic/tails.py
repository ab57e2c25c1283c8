"""Analytic tail estimates for stochastic LIS executions.

The Monte-Carlo estimator *samples* the tail; this module *computes*
it, following the large-deviations treatment of (max,+) discrete-event
systems (Lelarge, PAPERS.md): throughput and latency tails of an event
graph under random service are governed by an effective-bandwidth
reduction of its cycle structure.

The workhorse is the **dilation identity** for ``scope="global"``
processes.  A global stall clock-gates *every* transition at once, so
the marking does not move on stalled clocks -- the stochastic run is
exactly the deterministic run played on the random subsequence of
active clocks.  Writing ``A(t)`` for the number of active clocks among
the first ``t`` and ``F(m)`` for the deterministic schedule oracle's
firing count of the reference node over ``m`` clocks
(:meth:`repro.schedule.ScheduleOracle.firings` -- exact, from the
transient + hyperperiod decomposition):

* the stochastic firing count at horizon ``t`` is ``N(t) = F(A(t))``
  **exactly**, so quantiles transfer through the monotone ``F``:
  ``Q_N(q) = F(Q_A(q))``;
* the completion time of ``k`` firings is the first-passage time
  ``T_k = min{t : A(t) >= w_k}`` where ``w_k = min{m : F(m) >= k}``
  inverts the oracle.

``A`` is a Binomial count (Bernoulli service), a 2-state
Markov-additive count (burst service; quantiles by an O(t * w)
absorbing-chain DP), or deterministic (periodic service) -- all three
have exact, scipy-free quantile computations below.  The resulting
p50/p99/p999 are not estimates but the true quantiles, which is what
lets the differential suite assert they land inside the Monte-Carlo
confidence band rather than loosely near it.

For per-node scopes the marking does *not* freeze coherently and no
closed form exists; the estimator falls back to the effective-
bandwidth bound: each cycle ``c`` of rate ``r_c = tokens/length`` is
slowed to at most ``r_c * (1 - p_c)`` where ``p_c`` combines the
long-run stall fractions of the specs hitting that cycle, and the
system rate is bounded by the slowest dilated cycle.  When every spec
gates every transition (scopes ``all`` and ``global``), ``p_c`` is one
``p`` for all cycles and the slowest dilated cycle is the one of least
mean, so one minimum-cycle-mean search replaces the enumeration
(:func:`effective_rate`); specs on proper node subsets still
enumerate, within a budget.  Tails are then
approximated by the global model at the matching dilation -- a
heuristic, flagged ``exact=False``, sanity-bracketed (not pinned) by
the tests.  The delay tail's large-deviations exponent is exact per
spec kind: ``-ln p`` (Bernoulli -- each extra delay clock costs a
factor ``p``), ``-ln(1 - 1/burst)`` (burst -- the stalled run must
persist), ``inf`` (periodic -- bounded delay, no tail).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

import numpy as np

from ..analysis.context import Context, get_context
from ..core.cycles import CycleExplosionError
from ..core.lis_graph import LisGraph
from ..graphs.mcm import minimum_cycle_mean
from ..schedule.oracle import ScheduleOracle
from .montecarlo import MonteCarloResult, log_binomial, quantile_name
from .spec import StochasticSpec, _targets

__all__ = [
    "TailEstimate",
    "agreement",
    "default_work",
    "effective_rate",
    "estimate_tails",
    "tail_exponent",
]


# ----------------------------------------------------------------------
# Active-clock counting processes
# ----------------------------------------------------------------------


class _IdentityActive:
    """No stalls: every clock is active (the zero-variance limit)."""

    def count_quantile(self, t: int, q: float) -> int:
        return t

    def passage_quantile(self, w: int, q: float, cap: int) -> float:
        return float(w) if w <= cap else math.inf


class _BernoulliActive:
    """I.i.d. active clocks with probability ``r`` each."""

    def __init__(self, r: float) -> None:
        self.r = r

    def _log_pmf(self, t: int, a: np.ndarray) -> np.ndarray:
        r = self.r
        return log_binomial(t, a) + a * math.log(r) + (t - a) * math.log1p(-r)

    def count_quantile(self, t: int, q: float) -> int:
        """``min{a : P(A(t) <= a) >= q}``."""
        if self.r >= 1.0:
            return t
        if self.r <= 0.0:
            return 0
        a = np.arange(t + 1)
        cdf = np.minimum(np.cumsum(np.exp(self._log_pmf(t, a))), 1.0)
        return int(np.searchsorted(cdf, q, side="left"))

    def _reach_prob(self, t: int, w: int) -> float:
        """``P(A(t) >= w)``."""
        if w <= 0:
            return 1.0
        if w > t:
            return 0.0
        if self.r >= 1.0:
            return 1.0
        if self.r <= 0.0:
            return 0.0
        a = np.arange(w)
        below = float(np.exp(self._log_pmf(t, a)).sum())
        return max(0.0, 1.0 - below)

    def passage_quantile(self, w: int, q: float, cap: int) -> float:
        """``min{t : P(A(t) >= w) >= q}`` -- the first-passage quantile
        (monotone in ``t``, so binary search)."""
        if w <= 0:
            return 0.0
        if self.r <= 0.0 or self._reach_prob(cap, w) < q:
            return math.inf
        lo, hi = w, cap
        while lo < hi:
            mid = (lo + hi) // 2
            if self._reach_prob(mid, w) >= q:
                hi = mid
            else:
                lo = mid + 1
        return float(lo)


class _MarkovActive:
    """2-state on-off chain: stalled runs of mean ``burst`` clocks
    alternate with active runs of mean ``gap``, started stationary
    (matching :func:`repro.stochastic.spec._sample_processes`)."""

    def __init__(self, burst: float, gap: float) -> None:
        self.p_exit = 1.0 / burst  # stalled -> active
        self.p_enter = 1.0 / gap  # active -> stalled
        self.stall_frac = burst / (burst + gap)

    def _step(
        self, stalled: np.ndarray, active: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One clock: observe (active states count one more active
        clock -- shift up the count axis), then transition."""
        obs_active = np.concatenate(([0.0], active[:-1]))
        new_stalled = stalled * (1 - self.p_exit) + obs_active * self.p_enter
        new_active = stalled * self.p_exit + obs_active * (1 - self.p_enter)
        return new_stalled, new_active

    def count_quantile(self, t: int, q: float) -> int:
        stalled = np.zeros(t + 1)
        active = np.zeros(t + 1)
        stalled[0] = self.stall_frac
        active[0] = 1.0 - self.stall_frac
        for _ in range(t):
            stalled, active = self._step(stalled, active)
        cdf = np.minimum(np.cumsum(stalled + active), 1.0)
        return int(np.searchsorted(cdf, q, side="left"))

    def passage_quantile(self, w: int, q: float, cap: int) -> float:
        """Absorbing-chain DP: track the count pmf truncated at ``w``;
        mass reaching ``w`` is absorbed, and the first clock whose
        absorbed mass covers ``q`` is the quantile."""
        if w <= 0:
            return 0.0
        stalled = np.zeros(w + 1)
        active = np.zeros(w + 1)
        stalled[0] = self.stall_frac
        active[0] = 1.0 - self.stall_frac
        absorbed = 0.0
        for t in range(1, cap + 1):
            stalled, active = self._step(stalled, active)
            absorbed += float(stalled[w] + active[w])
            stalled[w] = 0.0
            active[w] = 0.0
            if absorbed >= q:
                return float(t)
        return math.inf


class _PeriodicActive:
    """Deterministic period: clocks with ``(t + phase) % period <
    burst`` are stalled; zero variance, every quantile coincides."""

    def __init__(self, burst: int, gap: int, phase: int) -> None:
        self.burst = burst
        self.period = burst + gap
        self.phase = phase

    def _count(self, t: int) -> int:
        active = 0
        full, rem = divmod(t, self.period)
        per_period = self.period - self.burst
        active = full * per_period
        for i in range(rem):
            if (i + self.phase) % self.period >= self.burst:
                active += 1
        return active

    def count_quantile(self, t: int, q: float) -> int:
        return self._count(t)

    def passage_quantile(self, w: int, q: float, cap: int) -> float:
        if w <= 0:
            return 0.0
        per_period = self.period - self.burst
        if per_period == 0:
            return math.inf
        t = (w // per_period) * self.period
        count = self._count(t)
        while count < w:
            if (t + self.phase) % self.period >= self.burst:
                count += 1
            t += 1
            if t > cap:
                return math.inf
        return float(t)


# ----------------------------------------------------------------------
# Effective bandwidth and exponents
# ----------------------------------------------------------------------


def tail_exponent(spec: StochasticSpec) -> float:
    """The large-deviations decay rate of the delay tail one spec
    induces: ``P(delay > d)`` falls like ``exp(-exponent * d)``."""
    frac = spec.stall_fraction
    if frac <= 0.0:
        return math.inf
    if frac >= 1.0:
        return 0.0
    if spec.kind == "bernoulli":
        return -math.log(spec.rate)
    if spec.kind == "burst":
        if spec.burst <= 1.0:
            return math.inf  # every stalled run lasts exactly one clock
        return -math.log1p(-1.0 / spec.burst)
    return math.inf  # periodic: delay is bounded


def _combined_fraction(fracs: Iterable[float]) -> float:
    """Long-run stall fraction of the union of independent processes."""
    clear = 1.0
    for f in fracs:
        clear *= 1.0 - min(1.0, max(0.0, f))
    return 1.0 - clear


def effective_rate(
    ctx: Context,
    specs: Iterable[StochasticSpec],
    extra_tokens: Mapping[int, int] | None = None,
) -> float:
    """The effective-bandwidth rate bound: the slowest cycle after
    dilating each cycle's rate by the stall fractions of the specs
    whose targets touch it, and never above the deterministic rate.

    When every spec gates every transition, each cycle is dilated by
    the same combined fraction ``p``, and the bound is
    ``min(r0, MCM * (1 - p))`` with the minimum cycle mean (MCM) of the
    doubled graph, found by the search without listing cycles.  This
    is the enumeration's answer float for float (THEORY.md section 7).
    Otherwise up to 5,000 cycles are enumerated; beyond that budget
    the global rate is dilated by the combined fraction of all specs.
    """
    extra = dict(extra_tokens or {})
    return _effective_rate(ctx, ctx.schedule_oracle(extra), list(specs), extra)


def _effective_rate(
    ctx: Context,
    oracle: ScheduleOracle,
    specs: list[StochasticSpec],
    extra: dict[int, int],
) -> float:
    """:func:`effective_rate` with the oracle of ``extra`` at hand."""
    r0 = float(oracle.min_rate())
    if not specs:
        return r0
    target_sets = [set(_targets(ctx.lis, s)) for s in specs]
    graph = ctx.doubled_master().graph
    if all(targets.issuperset(graph.nodes) for targets in target_sets):
        p = _combined_fraction(s.stall_fraction for s in specs)
        backedges = ctx.sizable_backedges()
        on_place = {backedges[cid]: tokens for cid, tokens in extra.items()}
        found = minimum_cycle_mean(
            graph,
            lambda place: place.data["tokens"] + on_place.get(place.key, 0),
        )
        if found is None:
            return r0
        return max(0.0, min(r0, float(found.mean) * (1.0 - p)))
    try:
        records = ctx.cycle_records(extra, max_cycles=5000)
    except CycleExplosionError:
        p = _combined_fraction(s.stall_fraction for s in specs)
        return r0 * (1.0 - p)
    best = r0
    for record in records:
        on_cycle = set(record.node_path)
        p_c = _combined_fraction(
            spec.stall_fraction
            for spec, targets in zip(specs, target_sets)
            if targets & on_cycle
        )
        best = min(best, float(record.mean) * (1.0 - p_c))
    return max(0.0, best)


# ----------------------------------------------------------------------
# The estimator
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TailEstimate:
    """Analytic tail prediction for one (system, assignment, specs).

    Attributes:
        node: Reference node (same role as in the Monte-Carlo result).
        clocks: Horizon defining the throughput quantiles.
        work: Firing target defining the completion quantiles.
        exact: True on the global-dilation path (true quantiles);
            False on the effective-bandwidth approximation.
        method: ``"dilation-exact"`` or ``"effective-bandwidth"``.
        rate: Effective long-run firing rate of ``node``.
        exponent: Large-deviations decay of the delay tail (min over
            specs; ``inf`` when delays are bounded).
        completion: ``{q: clocks}`` quantiles of the time to ``work``
            firings (``inf`` beyond the search cap).
        throughput: ``{q: rate}`` quantiles of the horizon rate, at
            the *mirrored* level ``1 - q`` for ``q > 0.5`` (so "p99"
            uniformly names a bad tail, as in
            :meth:`MonteCarloResult.summary`).
    """

    node: Hashable
    clocks: int
    work: int
    exact: bool
    method: str
    rate: float
    exponent: float
    completion: Mapping[float, float]
    throughput: Mapping[float, float]

    def as_dict(self) -> dict:
        def _clean(value: float) -> float | None:
            return None if math.isinf(value) else value

        return {
            "node": str(self.node),
            "clocks": self.clocks,
            "work": self.work,
            "exact": self.exact,
            "method": self.method,
            "rate": self.rate,
            "exponent": _clean(self.exponent),
            "completion": {
                quantile_name(q): _clean(v)
                for q, v in self.completion.items()
            },
            "throughput": {
                quantile_name(q): v for q, v in self.throughput.items()
            },
        }


def _active_clocks_needed(oracle, node: Hashable, work: int) -> int:
    """``w_k = min{m : F(m) >= work}`` -- inverts the oracle's exact
    firing count by binary search (``F`` is nondecreasing)."""
    rate = oracle.throughput(node)
    if rate == 0:
        raise ValueError(f"node {node!r} never fires; no finite tail")
    hi = oracle.transient + (
        (work * rate.denominator // rate.numerator) + oracle.hyperperiod + 1
    )
    while oracle.firings(node, hi) < work:
        hi *= 2
    lo = work  # at most one firing per clock
    while lo < hi:
        mid = (lo + hi) // 2
        if oracle.firings(node, mid) >= work:
            hi = mid
        else:
            lo = mid + 1
    return lo


def default_work(
    oracle, node: Hashable, clocks: int, specs: Iterable[StochasticSpec]
) -> int:
    """The default completion target: half the firings a run can
    expect within the horizon *after* discounting the specs' combined
    stall fraction -- deep enough in the run to see steady state,
    shallow enough that essentially every trial finishes."""
    clear = 1.0 - _combined_fraction(s.stall_fraction for s in specs)
    return max(1, int(oracle.firings(node, clocks) * clear) // 2)


def _global_model(specs: list[StochasticSpec]):
    """The exact active-clock model when one applies, else ``None``.

    Exactness needs coherent freezing: every spec global, and either a
    single process or all-Bernoulli (independent Bernoulli globals
    union to a Bernoulli global)."""
    live = [s for s in specs if s.stall_fraction > 0.0]
    if not live:
        return _IdentityActive()
    if any(s.scope != "global" for s in live):
        return None
    if len(live) == 1:
        s = live[0]
        if s.kind == "bernoulli":
            return _BernoulliActive(1.0 - s.rate)
        if s.kind == "burst":
            return _MarkovActive(s.burst, s.gap)
        return _PeriodicActive(int(s.burst), int(s.gap), s.phase)
    if all(s.kind == "bernoulli" for s in live):
        return _BernoulliActive(
            1.0 - _combined_fraction(s.rate for s in live)
        )
    return None


def estimate_tails(
    lis: LisGraph | Context,
    specs: StochasticSpec | Iterable[StochasticSpec],
    clocks: int,
    node: Hashable | None = None,
    work: int | None = None,
    quantiles: Iterable[float] = (0.5, 0.99, 0.999),
    extra_tokens: Mapping[int, int] | None = None,
    cap: int | None = None,
) -> TailEstimate:
    """Analytic p50/p99/p999 completion-time and horizon-throughput
    quantiles (see module docstring for the two computation paths).

    ``node`` defaults to the slowest shell (ties broken by repr);
    ``work`` to half the deterministic firings over ``clocks``;
    ``cap`` bounds the first-passage search (default ``8 * clocks``).
    """
    if isinstance(specs, StochasticSpec):
        specs = [specs]
    specs = list(specs)
    ctx = get_context(lis)
    extra = dict(extra_tokens or {})
    oracle = ctx.schedule_oracle(extra)
    if node is None:
        rates = oracle.shell_throughputs()
        node = min(rates, key=lambda s: (rates[s], repr(s)))
    if work is None:
        work = default_work(oracle, node, clocks, specs)
    cap = cap if cap is not None else max(8 * clocks, 4 * work + 64)

    model = _global_model(specs)
    if model is not None:
        exact, method = True, "dilation-exact"
        dilation = _combined_fraction(
            s.stall_fraction for s in specs if s.scope == "global"
        )
    else:
        # Effective-bandwidth fallback: approximate by the global
        # Bernoulli dilation matching the slowest dilated cycle.
        exact, method = False, "effective-bandwidth"
        r_hat = _effective_rate(ctx, oracle, specs, extra)
        r0 = float(oracle.min_rate())
        dilation = 0.0 if r0 == 0.0 else min(1.0, max(0.0, 1.0 - r_hat / r0))
        model = (
            _BernoulliActive(1.0 - dilation)
            if dilation > 0.0
            else _IdentityActive()
        )

    w_needed = _active_clocks_needed(oracle, node, work)
    completion: dict[float, float] = {}
    throughput: dict[float, float] = {}
    for q in sorted(set(quantiles)):
        completion[q] = model.passage_quantile(w_needed, q, cap)
        level = 1.0 - q if q > 0.5 else q
        active = model.count_quantile(clocks, level)
        throughput[q] = oracle.firings(node, active) / float(clocks)

    exponent = min(
        (tail_exponent(s) for s in specs if s.stall_fraction > 0.0),
        default=math.inf,
    )
    return TailEstimate(
        node=node,
        clocks=clocks,
        work=int(work),
        exact=exact,
        method=method,
        rate=float(oracle.throughput(node)) * (1.0 - dilation),
        exponent=exponent,
        completion=completion,
        throughput=throughput,
    )


def agreement(
    mc: MonteCarloResult,
    estimate: TailEstimate,
    quantiles: Iterable[float] = (0.5, 0.99, 0.999),
    confidence: float = 0.95,
) -> dict:
    """Cross-check report: per quantile, the analytic completion-time
    prediction, the Monte-Carlo point estimate and confidence band,
    and whether the prediction lands inside the band.  ``ok`` is the
    conjunction -- the acceptance gate the differential suite asserts
    on the exact path."""
    rows = []
    for q in sorted(set(quantiles)):
        analytic = estimate.completion.get(q)
        if analytic is None:
            continue
        point, lo, hi = mc.quantile_ci("completion", q, confidence)
        inside = (
            lo <= analytic <= hi
            if math.isfinite(analytic)
            else not math.isfinite(hi)
        )
        rows.append(
            {
                "q": q,
                "analytic": None if math.isinf(analytic) else analytic,
                "mc": None if math.isinf(point) else point,
                "band": [
                    None if math.isinf(lo) else lo,
                    None if math.isinf(hi) else hi,
                ],
                "inside": bool(inside),
            }
        )
    return {
        "node": str(mc.node),
        "work": mc.work,
        "exact": estimate.exact,
        "rows": rows,
        "ok": all(r["inside"] for r in rows),
    }
