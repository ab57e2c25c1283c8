"""The simulation-backend registry.

Every throughput-measurement backend is registered under a short name
with one normalized signature::

    fn(lis, shell, *, clocks, warmup, extra_tokens, faults) -> Fraction

:func:`get_backend` is the one lookup used by
:func:`~repro.lis.measurement.measured_throughput`, ``crossvalidate``,
the engine ops and the CLI; a backend registered through
:func:`register_backend` is immediately cross-checked by
``crossvalidate`` and accepted everywhere a backend name is.

Capability flags make the differences first-class instead of
hardcoded:

* ``supports_faults`` -- the backend honours a fault gate
  (:mod:`repro.faults`); :data:`repro.faults.BACKENDS` is derived from
  this flag.
* ``exact`` -- the returned rate is the exact asymptotic ``Fraction``
  (no O(1/clocks) horizon error), so cross-validation may demand exact
  equality with the analytic MST.
* ``requires_scc`` -- the backend needs the doubled marked graph to be
  strongly connected (equivalently: the LIS weakly connected).
* ``fallback`` -- the backend to substitute when a capability check
  fails (:func:`resolve_backend` follows the chain), e.g.
  ``schedule`` -> ``fast`` on disconnected systems or under a fault
  schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING, Callable, Hashable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.lis_graph import LisGraph

__all__ = [
    "Backend",
    "BACKENDS",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "simulator_class",
]

MeasureFn = Callable[..., Fraction]


@dataclass(frozen=True)
class Backend:
    """A named throughput-measurement backend (see module docstring)."""

    name: str
    fn: MeasureFn = field(repr=False)
    description: str = ""
    supports_faults: bool = False
    exact: bool = False
    requires_scc: bool = False
    fallback: str | None = None

    def measure(
        self,
        lis: "LisGraph",
        shell: Hashable,
        clocks: int = 400,
        warmup: int = 100,
        extra_tokens: dict[int, int] | None = None,
        faults=None,
    ) -> Fraction:
        """Long-run firing rate of ``shell`` under this backend.

        Simulation backends measure over ``clocks`` post-``warmup``
        cycles; ``exact`` backends return the asymptotic rate and
        ignore the horizon.
        """
        if faults is not None and not self.supports_faults:
            raise ValueError(
                f"backend {self.name!r} does not support fault schedules"
            )
        return self.fn(
            lis,
            shell,
            clocks=clocks,
            warmup=warmup,
            extra_tokens=extra_tokens,
            faults=faults,
        )

    def supports(self, lis: "LisGraph", faults=None) -> bool:
        """Whether this backend can handle ``lis`` as configured."""
        if faults is not None and not self.supports_faults:
            return False
        if self.requires_scc and not _doubled_strongly_connected(lis):
            return False
        return True


def _doubled_strongly_connected(lis: "LisGraph") -> bool:
    """Whether the doubled marked graph is strongly connected.

    True for every weakly connected LIS (each channel contributes a
    backedge), so this only rejects multi-component systems, whose
    shells need not share a common rate.
    """
    from ..analysis import get_context
    from ..graphs.scc import is_strongly_connected

    ctx = get_context(lis)
    return is_strongly_connected(ctx.doubled_master().graph)


#: Registered backends in registration order (the order ``crossvalidate``
#: and diagnostics iterate them).
BACKENDS: dict[str, Backend] = {}


def register_backend(
    name: str,
    fn: MeasureFn,
    description: str = "",
    supports_faults: bool = False,
    exact: bool = False,
    requires_scc: bool = False,
    fallback: str | None = None,
    overwrite: bool = False,
) -> Backend:
    """Register ``fn`` under ``name``; returns the :class:`Backend`."""
    if name in BACKENDS and not overwrite:
        raise ValueError(f"backend {name!r} already registered")
    if fallback is not None and fallback not in BACKENDS:
        raise ValueError(f"fallback backend {fallback!r} not registered")
    backend = Backend(
        name=name,
        fn=fn,
        description=description,
        supports_faults=supports_faults,
        exact=exact,
        requires_scc=requires_scc,
        fallback=fallback,
    )
    BACKENDS[name] = backend
    return backend


def get_backend(name: str) -> Backend:
    """Look up a registered backend by name (ValueError when unknown)."""
    try:
        return BACKENDS[name]
    except KeyError:
        known = ", ".join(BACKENDS)
        raise ValueError(
            f"unknown backend {name!r} (available: {known})"
        ) from None


def available_backends() -> tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(BACKENDS)


def resolve_backend(
    backend: str | Backend,
    lis: "LisGraph",
    faults=None,
) -> Backend:
    """The backend that will actually measure ``lis``: ``backend``
    itself when it supports the system, else its ``fallback`` chain
    (e.g. ``schedule`` silently degrades to ``fast`` on disconnected
    systems or when a fault schedule is active)."""
    chosen = backend if isinstance(backend, Backend) else get_backend(backend)
    seen = {chosen.name}
    while not chosen.supports(lis, faults=faults):
        if chosen.fallback is None or chosen.fallback in seen:
            raise ValueError(
                f"backend {chosen.name!r} cannot handle this system "
                f"and has no fallback"
            )
        chosen = get_backend(chosen.fallback)
        seen.add(chosen.name)
    return chosen


# ----------------------------------------------------------------------
# The built-in backends
# ----------------------------------------------------------------------


def simulator_class(name: str) -> type:
    """The simulator class behind the ``trace``, ``rtl`` or ``fast``
    backend -- the one place a simulator is chosen by name.  Each takes
    ``(lis, behaviors, extra_tokens, faults=...)``.  ``fast`` is
    imported on demand, so ``import repro`` needs no numpy."""
    if name == "trace":
        from .trace_sim import TraceSimulator

        return TraceSimulator
    if name == "rtl":
        from .rtl_sim import RtlSimulator

        return RtlSimulator
    if name == "fast":
        from ..sim import FastSimulator

        return FastSimulator
    raise ValueError(
        f"unknown backend {name!r} (available: trace, rtl, fast)"
    )


def _measure_stepped(
    name, lis, shell, *, clocks, warmup, extra_tokens, faults
) -> Fraction:
    sim = simulator_class(name)(lis, extra_tokens=extra_tokens, faults=faults)
    return sim.run(warmup + clocks).throughput(shell, skip=warmup)


def _measure_fast(
    lis, shell, *, clocks, warmup, extra_tokens, faults
) -> Fraction:
    # Token counting only: a rate never replays values.
    from ..sim.batch import BatchSimulator, gate_mask

    sim = BatchSimulator(lis, [dict(extra_tokens or {})])
    mask = gate_mask(sim.compiled, faults, 0, warmup + clocks)
    result = sim.run(warmup + clocks, warmup=warmup, stall_mask=mask)
    return result.throughput(0, shell)


def _measure_schedule(
    lis, shell, *, clocks, warmup, extra_tokens, faults
) -> Fraction:
    from ..analysis import get_context

    return get_context(lis).schedule_oracle(extra_tokens).throughput(shell)


register_backend(
    "trace",
    partial(_measure_stepped, "trace"),
    description="data-carrying marked-graph stepper (reference)",
    supports_faults=True,
)
register_backend(
    "rtl",
    partial(_measure_stepped, "rtl"),
    description="structural RTL-style model (independent reference)",
    supports_faults=True,
)
register_backend(
    "fast",
    _measure_fast,
    description="vectorized numpy kernel (cycle-exact, token counting)",
    supports_faults=True,
)
register_backend(
    "schedule",
    _measure_schedule,
    description="analytic eventually-periodic oracle (exact Fraction rates)",
    exact=True,
    requires_scc=True,
    fallback="fast",
)
