"""Stochastic workloads and tail-latency analysis for LIS.

The package splits into four layers, bottom up:

* :mod:`~repro.stochastic.spec` -- seeded stochastic stall/service
  processes (:class:`StochasticSpec`) sampled into per-trial
  :class:`~repro.faults.StallSchedule` draws over the fault primitive;
* :mod:`~repro.stochastic.montecarlo` -- the vectorized Monte-Carlo
  estimator (trials as the batch axis) with order-statistic
  confidence intervals;
* :mod:`~repro.stochastic.tails` -- analytic quantiles: exact under
  global (dilation) service, effective-bandwidth bounds otherwise;
* :mod:`~repro.stochastic.curves` -- p50/p99/p999-vs-queue-sizing
  sweeps cross-checking the two, behind the ``tail_curves`` engine op
  and ``repro tail`` CLI.
"""

from .curves import TailCurve, TailCurvePoint, tail_curve, uniform_sizings
from .montecarlo import (
    MonteCarloResult,
    empirical_quantile,
    quantile_band,
    quantile_name,
    run_monte_carlo,
    run_monte_carlo_batch,
)
from .spec import (
    KINDS,
    SCOPES,
    StochasticSpec,
    arrival_envelope,
    bernoulli_stalls,
    burst_stalls,
    compile_stochastic,
    periodic_stalls,
)
from .tails import (
    TailEstimate,
    agreement,
    default_work,
    effective_rate,
    estimate_tails,
    tail_exponent,
)

__all__ = [
    "KINDS",
    "SCOPES",
    "MonteCarloResult",
    "StochasticSpec",
    "TailCurve",
    "TailCurvePoint",
    "TailEstimate",
    "agreement",
    "arrival_envelope",
    "bernoulli_stalls",
    "burst_stalls",
    "compile_stochastic",
    "default_work",
    "effective_rate",
    "empirical_quantile",
    "estimate_tails",
    "periodic_stalls",
    "quantile_band",
    "quantile_name",
    "run_monte_carlo",
    "run_monte_carlo_batch",
    "tail_curve",
    "tail_exponent",
    "uniform_sizings",
]
