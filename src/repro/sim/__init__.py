"""Vectorized batch simulation of latency-insensitive systems.

The reference simulators (:mod:`repro.lis.trace_sim` and
:mod:`repro.lis.rtl_sim`) execute one system, one clock at a time, in
pure Python -- ideal as executable specifications, far too slow for
ROADMAP-scale sweeps.  This package compiles a :class:`~repro.core.
LisGraph` *once* into flat NumPy arrays (:mod:`repro.sim.compile`) and
then advances **B independent configurations x T cycles** with
vectorized AND-firing / backpressure updates (:mod:`repro.sim.kernel`).

The step semantics are exactly those of the doubled marked graph, so
the kernel is cycle-exact against both reference simulators: firing
patterns, measured throughput, and max queue occupancies all coincide,
and :mod:`repro.sim.differential` packages that comparison for the
test-suite and for ad-hoc validation.

Entry points:

* :class:`FastSimulator` -- drop-in single-configuration simulator with
  the same ``run(clocks) -> Trace`` surface as the reference pair (the
  kernel decides the firings; data values follow them through
  :meth:`~repro.lis.trace_sim.TraceSimulator.fire`, the reference's
  own value semantics, as do ``BatchRunResult.to_trace`` replays).
* :class:`BatchSimulator` -- evaluate many queue-sizing assignments of
  one topology in a single batch.
* ``simulate_batch`` engine op (registered in :mod:`repro.engine.ops`)
  -- fan batches across worker processes with caching.
"""

try:  # pragma: no cover - exercised only on minimal installs
    import numpy  # noqa: F401
except ImportError as exc:  # pragma: no cover
    raise ImportError(
        "repro.sim requires numpy; the rest of the library works "
        "without it (install the '[test]' extra or numpy itself)"
    ) from exc

from .batch import BatchRunResult, BatchSimulator, FastSimulator, simulate_fast
from .compile import CompiledSystem, compile_lis
from .differential import DifferentialReport, differential_check

__all__ = [
    "BatchRunResult",
    "BatchSimulator",
    "CompiledSystem",
    "DifferentialReport",
    "FastSimulator",
    "compile_lis",
    "differential_check",
    "simulate_fast",
]
