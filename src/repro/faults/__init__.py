"""Fault injection for latency-insensitive systems (robustness layer).

The paper's central promise is that a LIS keeps functioning correctly
under *any* pattern of stalls -- channel congestion, void inputs,
backpressure glitches, relay jitter.  This package makes that promise
falsifiable:

* :mod:`repro.faults.models` -- composable, seeded fault specs
  (:class:`FaultSpec`) compiled into stall schedules
  (:class:`StallSchedule`) that inject uniformly into all three
  simulator backends;
* :mod:`repro.faults.harness` -- the invariant harness
  (:func:`check_invariants`): latency equivalence, token conservation,
  queue-occupancy bounds, and post-recovery throughput, checked
  against an unfaulted reference run;
* :mod:`repro.faults.campaign` -- seeded campaigns fanned out through
  the analysis engine (:func:`run_campaign`, the ``repro chaos``
  command) and the engine-level chaos drill
  (:func:`engine_chaos_drill`) that kills workers mid-run.

Quick start::

    from repro.faults import bursty_stalls, check_invariants
    from repro.gen.examples import fig15_lis

    report = check_invariants(fig15_lis(), bursty_stalls(seed=7), backend="fast")
    assert report.ok, report.violations
"""

from .campaign import (
    CampaignReport,
    campaign_specs,
    engine_chaos_drill,
    run_campaign,
)
from .harness import BACKENDS, FaultRunReport, Violation, check_invariants
from .models import (
    FAULT_KINDS,
    FaultSpec,
    StallSchedule,
    adversarial_stalls,
    build_schedule,
    bursty_stalls,
    default_behaviors,
    random_stalls,
    relay_jitter,
    stop_glitches,
    structural_nodes,
    void_storm,
)

__all__ = [
    "BACKENDS",
    "FAULT_KINDS",
    "FaultSpec",
    "StallSchedule",
    "FaultRunReport",
    "Violation",
    "CampaignReport",
    "build_schedule",
    "structural_nodes",
    "default_behaviors",
    "check_invariants",
    "campaign_specs",
    "run_campaign",
    "engine_chaos_drill",
    "random_stalls",
    "bursty_stalls",
    "adversarial_stalls",
    "void_storm",
    "stop_glitches",
    "relay_jitter",
]
