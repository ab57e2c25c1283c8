"""Vectorized Monte-Carlo estimation over stochastic LIS executions.

One compile, hundreds of trials: :func:`run_monte_carlo` samples a
:class:`~repro.faults.StallSchedule` and pushes every
trial through :class:`repro.sim.BatchSimulator`'s compiled arrays in a
single batched run -- trials are the batch axis, so the per-trial cost
is one row of the vectorized kernel step, not a fresh simulation.

Three per-trial metrics come back in a :class:`MonteCarloResult`:

* ``throughput`` -- the reference node's firing rate over the
  measurement window (firings / clocks);
* ``completion`` -- the tail-latency metric: clocks until the
  reference node completes ``work`` firings (``inf`` when the horizon
  ends first), the quantity whose p99/p999 the analytic layer
  (:mod:`repro.stochastic.tails`) predicts;
* ``occupancy`` -- peak shell-queue occupancy over all observable
  channels (does the stochastic run need more slots than the
  deterministic sizing bought?).

Quantiles carry distribution-free confidence intervals from the
classic order-statistic construction: if ``X ~ Binomial(n, q)`` then
``P(x_(l) <= Q(q) <= x_(u)) >= conf`` whenever the binomial CDF places
``conf`` of its mass between ``l`` and ``u`` -- no normality or
continuity assumptions, exactly right for the discrete, frequently
tied samples these simulations produce.

Queue-sizing sweeps use :func:`run_monte_carlo_batch`: all assignments
ride in one batch with **common random numbers** (the identical stall
samples replicated per assignment), so tail-vs-sizing curves differ
only where the sizing actually matters, not by sampling noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from ..core.lis_graph import LisGraph
from ..faults.models import StallSchedule
from ..sim.batch import BatchSimulator
from .spec import StochasticSpec, compile_stochastic

__all__ = [
    "MonteCarloResult",
    "empirical_quantile",
    "quantile_band",
    "quantile_name",
    "run_monte_carlo",
    "run_monte_carlo_batch",
]

#: Metric names a :class:`MonteCarloResult` can be queried by.
METRICS = ("throughput", "completion", "occupancy")


# ----------------------------------------------------------------------
# Order-statistic quantile machinery (no scipy)
# ----------------------------------------------------------------------


#: ``log(k!)`` for ``k = 0, 1, ...``, grown on demand by
#: :func:`log_binomial`.  Each entry is ``math.lgamma(k + 1)``, so sums
#: over the table equal sums over those calls bit for bit.
_log_factorial = np.zeros(1)


def log_binomial(n: int, k: np.ndarray) -> np.ndarray:
    """``log C(n, k)`` for each entry of ``k`` (integers in ``0..n``),
    from the shared log-factorial table."""
    global _log_factorial
    table = _log_factorial
    if table.size <= n:
        size = max(n + 1, 2 * table.size)
        table = np.array([math.lgamma(i + 1) for i in range(size)])
        _log_factorial = table
    return table[n] - table[k] - table[n - k]


def _binom_cdf_vector(n: int, p: float) -> np.ndarray:
    """``cdf[k] = P(Binomial(n, p) <= k)`` for ``k = 0..n`` via
    log-gamma (stable for the few-hundred-trial sizes used here)."""
    if p <= 0.0:
        out = np.ones(n + 1)
        return out
    if p >= 1.0:
        out = np.zeros(n + 1)
        out[n] = 1.0
        return out
    k = np.arange(n + 1)
    log_pmf = log_binomial(n, k) + k * math.log(p) + (n - k) * math.log1p(-p)
    pmf = np.exp(log_pmf)
    cdf = np.cumsum(pmf)
    return np.minimum(cdf, 1.0)


def empirical_quantile(samples: np.ndarray, q: float) -> float:
    """The type-1 empirical quantile ``min{x : F_n(x) >= q}`` -- the
    same "smallest value covering mass q" convention the analytic layer
    uses, so the two are directly comparable."""
    if not 0.0 < q <= 1.0:
        raise ValueError("quantile level must be in (0, 1]")
    xs = np.sort(np.asarray(samples, dtype=float))
    if xs.size == 0:
        raise ValueError("no samples")
    idx = max(0, math.ceil(q * xs.size) - 1)
    return float(xs[idx])


def quantile_band(
    samples: np.ndarray, q: float, confidence: float = 0.95
) -> tuple[float, float]:
    """A distribution-free ``confidence`` interval for the true
    quantile ``Q(q)``, from order statistics (see module docstring).
    Honest at the extremes: when no order statistic bounds the
    requested tail at this sample size (e.g. a p999 band from 200
    trials) that side of the band is open (``+-inf``), never silently
    clamped to the sample min/max."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if n == 0:
        raise ValueError("no samples")
    alpha = 1.0 - confidence
    cdf = _binom_cdf_vector(n, q)
    # Largest l with P(X < l) <= alpha/2 and smallest u with
    # P(X < u) >= 1 - alpha/2, where X counts samples below Q(q).
    lo_rank = int(np.searchsorted(cdf, alpha / 2.0, side="right"))
    hi_rank = int(np.searchsorted(cdf, 1.0 - alpha / 2.0, side="left"))
    lo = float(xs[lo_rank - 1]) if lo_rank >= 1 else -math.inf
    hi = float(xs[hi_rank]) if hi_rank < n else math.inf
    return lo, hi


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MonteCarloResult:
    """Per-trial samples of one (system, assignment, spec set) cell.

    Attributes:
        node: Reference node whose firings define throughput/latency.
        clocks: Simulated horizon per trial.
        warmup: Clocks excluded from the throughput window.
        work: Firing count defining the ``completion`` metric.
        extra_tokens: The queue-sizing assignment this cell ran under.
        counts: ``(trials,)`` firings of ``node`` in the window.
        throughput: ``(trials,)`` rates ``counts / (clocks - warmup)``.
        completion: ``(trials,)`` clocks until ``work`` firings
            (``inf`` when the horizon ended first).
        occupancy: ``(trials,)`` peak occupancy over all channels.
        stall_fraction: Observed stalled slot fraction of the schedule.
    """

    node: Hashable
    clocks: int
    warmup: int
    work: int
    extra_tokens: dict
    counts: np.ndarray
    throughput: np.ndarray
    completion: np.ndarray
    occupancy: np.ndarray
    stall_fraction: float

    @property
    def trials(self) -> int:
        return int(self.counts.size)

    def samples(self, metric: str) -> np.ndarray:
        if metric not in METRICS:
            raise ValueError(
                f"unknown metric {metric!r} (available: {', '.join(METRICS)})"
            )
        return getattr(self, metric)

    def quantile(self, metric: str, q: float) -> float:
        """Empirical quantile of one metric (see module conventions:
        for throughput low is bad, so tails live at small ``q``; for
        completion/occupancy tails live at large ``q``)."""
        return empirical_quantile(self.samples(metric), q)

    def quantile_ci(
        self, metric: str, q: float, confidence: float = 0.95
    ) -> tuple[float, float, float]:
        """``(point, lo, hi)``: the empirical quantile and its
        distribution-free confidence band."""
        xs = self.samples(metric)
        lo, hi = quantile_band(xs, q, confidence)
        return empirical_quantile(xs, q), lo, hi

    def mean(self, metric: str) -> float:
        return float(np.mean(self.samples(metric)))

    def summary(
        self,
        quantiles: Sequence[float] = (0.5, 0.99, 0.999),
        confidence: float = 0.95,
    ) -> dict:
        """JSON-able digest: mean plus per-quantile point/band for each
        metric (completion/occupancy at ``q``, throughput mirrored to
        ``1 - q`` so every reported quantile is a *bad* tail)."""
        out: dict = {
            "node": str(self.node),
            "clocks": self.clocks,
            "warmup": self.warmup,
            "work": self.work,
            "trials": self.trials,
            "extra_tokens": {
                str(c): int(x) for c, x in sorted(self.extra_tokens.items())
            },
            "stall_fraction": self.stall_fraction,
        }
        for metric in METRICS:
            block: dict = {"mean": _finite(self.mean(metric))}
            for q in quantiles:
                level = 1.0 - q if metric == "throughput" and q > 0.5 else q
                point, lo, hi = self.quantile_ci(metric, level, confidence)
                block[quantile_name(q)] = _finite(point)
                block[quantile_name(q) + "_ci"] = [_finite(lo), _finite(hi)]
            finite = np.isfinite(self.samples(metric))
            if not bool(finite.all()):
                block["incomplete_trials"] = int((~finite).sum())
            out[metric] = block
        return out


def quantile_name(q: float) -> str:
    """0.5 -> "p50", 0.99 -> "p99", 0.999 -> "p999"."""
    digits = f"{q:.10f}".rstrip("0").split(".")[1]
    if len(digits) < 2:
        digits += "0"
    return "p" + digits


def _finite(value: float) -> float | None:
    """Open band edges / unfinished trials as None (strict JSON)."""
    return None if not math.isfinite(value) else value


# ----------------------------------------------------------------------
# The estimator
# ----------------------------------------------------------------------


def _pick_node(
    compiled, counts: np.ndarray, node: Hashable | None
) -> tuple[Hashable, int]:
    if node is not None:
        return node, compiled.node_index[node]
    # Default: the slowest shell -- the transition the MST binds, and
    # therefore the one whose tail the queue sizing is protecting.
    shell_ids = [i for i, s in enumerate(compiled.is_shell) if s]
    means = counts[:, shell_ids].mean(axis=0)
    i = shell_ids[int(np.argmin(means))]
    return compiled.node_names[i], i


def run_monte_carlo_batch(
    lis: LisGraph,
    specs: StochasticSpec | Iterable[StochasticSpec],
    clocks: int,
    trials: int = 200,
    warmup: int = 0,
    assignments: Sequence[Mapping[int, int]] | None = None,
    node: Hashable | None = None,
    work: int | None = None,
    schedule: StallSchedule | None = None,
) -> list[MonteCarloResult]:
    """Monte-Carlo estimates for several queue-sizing assignments in
    one batched run (one result per assignment, in order).

    All assignments share the same sampled stall schedule (common
    random numbers), and the whole ``len(assignments) * trials`` block
    runs as a single kernel batch.  ``schedule`` short-circuits
    sampling when the caller already compiled one (it must match
    ``clocks``/``trials``).

    ``node`` defaults to the slowest shell; ``work`` (the completion
    metric's firing target) defaults to half the worst trial's window
    firings, so every trial completes and the metric stays finite.
    """
    assignment_list = [dict(a) for a in (assignments or [{}])]
    if schedule is None:
        schedule = compile_stochastic(lis, specs, clocks=clocks, trials=trials)
    elif (schedule.clocks, schedule.trials) != (clocks, trials):
        raise ValueError(
            "schedule was compiled for "
            f"(clocks={schedule.clocks}, trials={schedule.trials}), "
            f"got (clocks={clocks}, trials={trials})"
        )
    sim = BatchSimulator(
        lis, [a for a in assignment_list for _ in range(trials)]
    )
    mask = schedule.mask(sim.compiled, assignments=len(assignment_list))
    run = sim.run(clocks, warmup=warmup, record=True, stall_mask=mask)
    history = run.history  # (clocks, A * trials, N)

    name, i = _pick_node(run.compiled, run.counts, node)
    window = clocks - warmup
    cum = np.cumsum(history[:, :, i], axis=0)  # (clocks, A * trials)
    if work is None:
        work = max(1, int(run.counts[:, i].min()) // 2)
    if work < 1:
        raise ValueError("work must be >= 1 firing")
    reached = cum >= work
    ever = reached[-1]
    first = np.argmax(reached, axis=0).astype(float) + 1.0
    completion_all = np.where(ever, first, np.inf)

    out = []
    for a, extra in enumerate(assignment_list):
        rows = slice(a * trials, (a + 1) * trials)
        counts = run.counts[rows, i].copy()
        out.append(
            MonteCarloResult(
                node=name,
                clocks=clocks,
                warmup=warmup,
                work=int(work),
                extra_tokens=extra,
                counts=counts,
                throughput=counts / float(window),
                completion=completion_all[rows].copy(),
                occupancy=run.occupancy[rows].max(axis=1).astype(float)
                if run.occupancy.shape[1]
                else np.zeros(trials),
                stall_fraction=schedule.stall_fraction,
            )
        )
    return out


def run_monte_carlo(
    lis: LisGraph,
    specs: StochasticSpec | Iterable[StochasticSpec],
    clocks: int,
    trials: int = 200,
    warmup: int = 0,
    extra_tokens: Mapping[int, int] | None = None,
    node: Hashable | None = None,
    work: int | None = None,
    schedule: StallSchedule | None = None,
) -> MonteCarloResult:
    """The single-assignment front of :func:`run_monte_carlo_batch`."""
    return run_monte_carlo_batch(
        lis,
        specs,
        clocks=clocks,
        trials=trials,
        warmup=warmup,
        assignments=[dict(extra_tokens or {})],
        node=node,
        work=work,
        schedule=schedule,
    )[0]
