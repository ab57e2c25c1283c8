"""Empirical throughput measurement and analytic cross-validation.

The static analysis (:func:`repro.core.throughput.actual_mst`) and the
two simulators must agree: for a closed, live LIS the long-run valid
output rate of every shell in the slowest SCC converges to the MST.
This module packages that comparison; it backs both the test-suite's
cross-validation properties and the ``sim_xval`` benchmark.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable

from ..core.lis_graph import LisGraph
from ..core.throughput import ThroughputResult, actual_mst
from .backends import BACKENDS, resolve_backend, schedule_applies, simulator_class

__all__ = [
    "measured_throughput",
    "crossvalidate",
    "effective_throughput",
    "select_probe_shell",
]


def effective_throughput(
    lis: LisGraph,
    environment_rates: dict[Hashable, Fraction] | None = None,
    extra_tokens: dict[int, int] | None = None,
) -> Fraction:
    """Analytic long-run rate of a (weakly connected) practical LIS in
    an environment that gates some shells to long-run rates.

    The doubled graph of a weakly connected LIS is strongly connected
    (every channel contributes a backedge), so all shells settle to a
    single common rate; an environment gate at rate ``r`` on any shell
    paces the whole system through the same token-conservation
    argument.  Hence::

        effective = min(MST(d[G]),  min over gated shells of r)

    Validated against both simulators by the test-suite.
    """
    rate = actual_mst(lis, extra_tokens).mst
    for shell, gate_rate in (environment_rates or {}).items():
        if shell not in lis.system:
            raise ValueError(f"no shell {shell!r} in the system")
        if not 0 < gate_rate <= 1:
            raise ValueError(f"environment rate must be in (0, 1]: {gate_rate}")
        rate = min(rate, Fraction(gate_rate))
    return rate


def measured_throughput(
    lis: LisGraph,
    shell: Hashable,
    clocks: int = 400,
    warmup: int = 100,
    backend: str | None = None,
    extra_tokens: dict[int, int] | None = None,
    *,
    faults=None,
) -> Fraction:
    """Long-run firing rate of ``shell`` under the chosen backend
    (a :data:`~repro.lis.backends.BACKENDS` name; default ``"trace"``).

    ``"trace"``, ``"rtl"`` and ``"fast"`` simulate ``clocks`` measured
    cycles after ``warmup``; ``"schedule"`` returns the exact
    asymptotic ``Fraction`` rate from the analytic oracle, ignoring the
    horizon -- and falls back to ``"fast"`` automatically when the
    system is not weakly connected or a fault gate is supplied
    (:func:`~repro.lis.backends.resolve_backend`).

    ``lis`` may be a :class:`~repro.core.LisGraph` or an
    :class:`repro.analysis.Context`; with a context, every backend
    reuses its cached lowering / compiled arrays (and the unsized
    system's ``schedule`` oracle).
    """
    name = resolve_backend(backend or "trace", lis, faults=faults)
    if name == "schedule":
        from ..analysis import get_context

        return get_context(lis).schedule_oracle(extra_tokens).throughput(shell)
    if name == "fast":
        # Token counting only: a rate never replays values.
        from ..sim.batch import BatchSimulator, gate_mask

        batch = BatchSimulator(lis, [dict(extra_tokens or {})])
        mask = gate_mask(batch.compiled, faults, 0, warmup + clocks)
        result = batch.run(warmup + clocks, warmup=warmup, stall_mask=mask)
        return result.throughput(0, shell)
    sim = simulator_class(name)(lis, extra_tokens=extra_tokens, faults=faults)
    return sim.run(warmup + clocks).throughput(shell, skip=warmup)


def select_probe_shell(
    lis: LisGraph,
    analysis: ThroughputResult | None = None,
    extra_tokens: dict[int, int] | None = None,
) -> Hashable:
    """The shell whose rate cross-validation probes.

    Prefers a *shell* on the limiting critical cycle (its rate is
    pinned to the MST even before the rest of the system settles):
    the first transition of that witness cycle
    (``analysis.limiting_scc``), in ``repr`` order, that is a node of
    ``lis.system`` -- relay stations and pipeline stages are
    implementation detail, not system nodes.  When the cycle holds no
    shell -- possible on heavily pipelined degenerate cycles -- its
    first transition in ``repr`` order is probed; with no critical
    cycle at all (MST = 1) any shell does.  The choice never depends on
    set iteration order, so results keyed by content are the same in
    every process.
    """
    if analysis is None:
        analysis = actual_mst(lis, extra_tokens)
    if analysis.limiting_scc:
        members = sorted(analysis.limiting_scc, key=repr)
        return next((n for n in members if n in lis.system), members[0])
    return lis.shells()[0]


def crossvalidate(
    lis: LisGraph,
    clocks: int = 400,
    warmup: int = 100,
    tolerance: Fraction = Fraction(1, 25),
    extra_tokens: dict[int, int] | None = None,
    backends=None,
) -> dict:
    """Compare the analytic MST against every measurement backend.

    Measures the rate of a shell on the limiting critical cycle (see
    :func:`select_probe_shell`) through each of
    :data:`~repro.lis.backends.BACKENDS` (or the given subset of names),
    skipping ``schedule`` where :func:`~repro.lis.backends.schedule_applies`
    does not hold, and returns a report dict with ``analytic``, one
    rate per backend name, and ``agreed``.

    Agreement demands:

    * every simulator within ``tolerance`` of the analytic MST (the
      finite horizon makes measured rates O(1/clocks) off);
    * the exact ``schedule`` rate **equal** to the analytic MST -- no
      tolerance;
    * the vectorized and reference simulators cycle-exactly equal
      (``fast == trace``), since they implement the same semantics.

    The system is wrapped in one shared
    :class:`repro.analysis.Context`, so the analytic MST, the trace
    backend's doubled lowering, the fast backend's compiled arrays and
    the schedule oracle all derive from a single lowering pass (of the
    unsized system: the context keeps no lowering of ``extra_tokens``).
    """
    from ..analysis import get_context

    lis = get_context(lis)
    analysis = actual_mst(lis, extra_tokens)
    probe = select_probe_shell(lis, analysis)
    names = tuple(backends) if backends is not None else BACKENDS
    rates: dict[str, Fraction] = {}
    agreed = True
    for name in names:
        if name == "schedule" and not schedule_applies(lis):
            continue
        rate = measured_throughput(
            lis,
            probe,
            clocks=clocks,
            warmup=warmup,
            backend=name,
            extra_tokens=extra_tokens,
        )
        rates[name] = rate
        if name == "schedule":
            agreed = agreed and rate == analysis.mst
        else:
            agreed = agreed and abs(rate - analysis.mst) <= tolerance
    if "fast" in rates and "trace" in rates:
        # Same semantics: exactly equal.
        agreed = agreed and rates["fast"] == rates["trace"]
    return {
        "probe": probe,
        "analytic": analysis.mst,
        **rates,
        "agreed": agreed,
    }
