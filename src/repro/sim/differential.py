"""Differential cross-validation of the simulation backends.

One system, three executions -- the vectorized kernel, the
marked-graph :class:`~repro.lis.trace_sim.TraceSimulator`, and the
structural :class:`~repro.lis.rtl_sim.RtlSimulator` (which runs the
netlist the SystemVerilog exporter emits) -- compared for
*cycle-exact* agreement on

* firing patterns (every node, every clock),
* emitted data values (when behaviours are supplied; the kernel's
  values replay through ``TraceSimulator.fire``, so ``rtl`` is the
  independent check of the value semantics),
* measured throughput at a probe shell (exact ``Fraction`` equality),
* peak queue occupancy per channel.

The analytic ``schedule`` oracle (:mod:`repro.schedule`) is pinned to
the same harness as a fourth voice: its closed-form firing plan,
finite-horizon firing counts, and (once the horizon covers
``transient + hyperperiod`` clocks) peak occupancies must equal the
simulated ones *exactly* -- the oracle predicts the simulators, it
does not approximate them.

This is the harness behind the ``tests/sim`` differential properties;
any discrepancy is reported with enough context to reproduce it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable

from ..core.lis_graph import LisGraph
from ..lis.backends import simulator_class

__all__ = ["DifferentialReport", "differential_check"]

BACKENDS = ("fast", "trace", "rtl")


@dataclass
class DifferentialReport:
    """Outcome of one multi-way comparison."""

    agreed: bool
    failures: list[str] = field(default_factory=list)
    probe: Hashable | None = None
    throughput: dict[str, Fraction] = field(default_factory=dict)
    occupancy: dict[str, dict[int, int]] = field(default_factory=dict)
    #: The analytic oracle, when ``check_schedule`` derived one.
    schedule: "object | None" = None

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.agreed


def _instantiate(behaviors):
    """Fresh behaviours per backend: stateful cores must not share
    state across the three executions."""
    if behaviors is None:
        return None
    if callable(behaviors):
        return behaviors()
    return dict(behaviors)


def differential_check(
    lis: LisGraph,
    clocks: int = 60,
    behaviors=None,
    extra_tokens: dict[int, int] | None = None,
    probe: Hashable | None = None,
    compare_values: bool = True,
    check_schedule: bool = True,
) -> DifferentialReport:
    """Run all three backends on ``lis`` and compare cycle-exactly.

    Args:
        behaviors: ``None``, a ``{shell: ShellBehavior}`` mapping, or a
            zero-argument factory returning one (use a factory for
            stateful cores).  With ``None``, only firing patterns,
            throughput, and occupancy are compared -- the default
            pass-through behaviour builds exponentially deep tuples on
            cyclic systems, so value comparison needs scalar cores.
        probe: Shell whose measured rate is compared (default: the
            first shell).
        compare_values: Also require the emitted data values to match
            (forced off when ``behaviors`` is None).
        check_schedule: Also derive the analytic schedule oracle and
            require its per-node firing plan and finite-horizon counts
            to equal the trace execution clock-for-clock (and, when
            ``clocks`` covers the transient plus one hyperperiod, its
            peak occupancies to equal the simulated ones exactly).
    """
    sims = {
        backend: simulator_class(backend)(
            lis, _instantiate(behaviors), extra_tokens
        )
        for backend in BACKENDS
    }
    traces = {backend: sim.run(clocks) for backend, sim in sims.items()}
    failures: list[str] = []

    reference = traces["trace"]
    for backend in ("fast", "rtl"):
        if traces[backend].fired != reference.fired:
            failures.append(f"firing pattern: {backend} != trace")
    if compare_values and behaviors is not None:
        for backend in ("fast", "rtl"):
            if traces[backend].outputs != reference.outputs:
                failures.append(f"data values: {backend} != trace")

    if probe is None:
        probe = lis.shells()[0]
    throughput = {
        backend: traces[backend].throughput(probe)
        for backend in BACKENDS
    }
    if len(set(throughput.values())) > 1:
        failures.append(f"throughput at {probe!r}: {throughput}")

    occupancy = {
        backend: sim.max_queue_occupancy() for backend, sim in sims.items()
    }
    for backend in ("fast", "rtl"):
        if occupancy[backend] != occupancy["trace"]:
            failures.append(
                f"max queue occupancy: {backend} != trace "
                f"({occupancy[backend]} vs {occupancy['trace']})"
            )

    oracle = None
    if check_schedule:
        from ..analysis import get_context

        oracle = get_context(lis).schedule_oracle(extra_tokens)
        for node in oracle.node_names:
            if oracle.firing_plan(node, clocks) != reference.fired[node]:
                failures.append(
                    f"firing plan: schedule oracle != trace at {node!r}"
                )
        predicted = Fraction(oracle.firings(probe, clocks), clocks)
        throughput["schedule"] = predicted
        if predicted != reference.throughput(probe):
            failures.append(
                f"finite-horizon throughput at {probe!r}: schedule "
                f"oracle predicts {predicted}, trace measured "
                f"{reference.throughput(probe)}"
            )
        if clocks >= oracle.transient + oracle.hyperperiod:
            occupancy["schedule"] = oracle.max_queue_occupancy()
            if occupancy["schedule"] != occupancy["trace"]:
                failures.append(
                    f"max queue occupancy: schedule oracle != trace "
                    f"({occupancy['schedule']} vs {occupancy['trace']})"
                )

    return DifferentialReport(
        agreed=not failures,
        failures=failures,
        probe=probe,
        throughput=throughput,
        occupancy=occupancy,
        schedule=oracle,
    )
