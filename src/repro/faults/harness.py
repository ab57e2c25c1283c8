"""The invariant harness: paper Sections III/V as executable checks.

Given a system and a fault schedule, run the faulted system on one of
the three simulator backends next to an unfaulted reference run and
check every robustness property latency-insensitive design promises:

* **latency equivalence** -- each shell's valid output stream equals
  the reference run's stream item-for-item (Section II's correctness
  guarantee: stalls reshuffle void items only);
* **zero token loss / duplication** -- a faulted node can never have
  produced *more* valid items than the reference (duplication), and a
  lost token would truncate or shift the stream, which the
  equivalence and throughput checks catch;
* **queue occupancy** -- no channel's receive queue ever exceeds its
  structural capacity ``queue + extra + 1`` (the marked-graph cycle
  token count, Section V's sizing bound), storms included;
* **throughput band** -- once the schedule's horizon has passed and
  the system re-settles, the measured system rate (min over shells)
  is within ``[MST_actual - eps, MST_ideal + eps]``: transient stalls
  must not change the sustainable rate, because cycle token counts
  are invariant under firing.

A violation of any of these is a bug -- in a simulator, in the queue
sizing, or in the fault injection itself -- never expected behaviour;
``repro chaos`` runs campaigns of these checks and fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Mapping

from ..core.lis_graph import LisGraph
from ..core.throughput import actual_mst, ideal_mst
from ..lis.backends import SIMULATORS, simulator_class
from ..lis.equivalence import valid_stream
from ..lis.protocol import ShellBehavior, Trace
from .models import (
    FaultSpec,
    StallSchedule,
    build_schedule,
    default_behaviors,
    structural_nodes,
)

__all__ = ["BACKENDS", "Violation", "FaultRunReport", "check_invariants"]

#: Fault-capable backends: the three simulators (the analytic
#: ``schedule`` oracle has no notion of a per-clock stall).
BACKENDS = SIMULATORS


@dataclass(frozen=True)
class Violation:
    """One broken invariant: which, where, and the evidence."""

    invariant: str  # latency-equivalence | token-duplication |
    #                 queue-overflow | throughput-band
    subject: str  # shell / channel / system
    detail: str

    def as_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "subject": self.subject,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class FaultRunReport:
    """Outcome of one faulted run against the invariant harness."""

    backend: str
    specs: tuple[FaultSpec, ...]
    clocks: int
    horizon: int
    skip: int
    total_stalls: int
    ideal: Fraction
    actual: Fraction
    min_rate: Fraction
    epsilon: Fraction
    max_occupancy: dict[int, int]
    capacity: dict[int, int]
    compared_items: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        """JSON-able form (the ``fault_trial`` op result)."""
        return {
            "backend": self.backend,
            "specs": [spec.as_dict() for spec in self.specs],
            "clocks": self.clocks,
            "horizon": self.horizon,
            "skip": self.skip,
            "total_stalls": self.total_stalls,
            "ideal": str(self.ideal),
            "actual": str(self.actual),
            "min_rate": str(self.min_rate),
            "epsilon": str(self.epsilon),
            "max_occupancy": {
                str(c): int(v) for c, v in self.max_occupancy.items()
            },
            "capacity": {
                str(c): int(v) for c, v in self.capacity.items()
            },
            "compared_items": self.compared_items,
            "ok": self.ok,
            "violations": [v.as_dict() for v in self.violations],
        }


def _simulate(
    backend: str,
    lis: LisGraph,
    behaviors: Mapping[Hashable, ShellBehavior],
    extra_tokens: dict[int, int] | None,
    gate,
    clocks: int,
) -> tuple[Trace, dict[int, int]]:
    sim = simulator_class(backend)(lis, behaviors, extra_tokens, faults=gate)
    trace = sim.run(clocks)
    return trace, sim.max_queue_occupancy()


def check_invariants(
    lis: LisGraph,
    faults: StallSchedule | FaultSpec | list[FaultSpec] | tuple,
    *,
    backend: str = "trace",
    behaviors: Callable[[], Mapping[Hashable, ShellBehavior]] | None = None,
    seed: int = 0,
    extra_tokens: dict[int, int] | None = None,
    settle: int | None = None,
    measure: int = 240,
    epsilon: Fraction = Fraction(1, 8),
    min_items: int = 4,
) -> FaultRunReport:
    """Run ``lis`` under a fault schedule and check every invariant.

    Args:
        lis: The system (or :class:`repro.analysis.Context`).
        faults: A :class:`StallSchedule` (its trial 0 is run), or
            spec(s) compiled here.
        backend: ``trace`` / ``rtl`` / ``fast``; the unfaulted
            reference is always the marked-graph ``trace`` backend, so
            a cross-backend discrepancy is itself caught.
        behaviors: Zero-argument factory returning fresh
            ``{shell: ShellBehavior}`` per run (stateful sources must
            not share state across the two runs); default is
            :func:`~repro.faults.models.default_behaviors` with
            ``seed``.
        extra_tokens: Optional queue-sizing assignment under test; the
            occupancy bound is ``queue + extra + 1`` per channel.
        settle: Fault-free clocks granted after the horizon before the
            throughput window opens (default scales with horizon and
            system size).
        measure: Width of the throughput measurement window.
        epsilon: Band slack absorbing the O(1/measure) finite-window
            error of the measured rates.
        min_items: Minimum common valid items per shell for the stream
            comparison to be meaningful; fewer raises ``ValueError``
            (lengthen ``measure`` instead of silently passing).
    """
    if isinstance(faults, StallSchedule):
        schedule = faults
    else:
        schedule = build_schedule(lis, faults)
    extra = {int(c): int(x) for c, x in (extra_tokens or {}).items()}

    horizon = schedule.clocks
    if settle is None:
        settle = horizon + 4 * len(structural_nodes(lis)) + 16
    skip = horizon + settle
    clocks = skip + measure

    if behaviors is None:
        behavior_factory = lambda: default_behaviors(lis, seed)  # noqa: E731
    elif callable(behaviors):
        behavior_factory = behaviors
    else:
        raise TypeError(
            "behaviors must be a zero-argument factory (stateful "
            "sources must not be shared between the reference and "
            "faulted runs)"
        )

    reference, _ = _simulate(
        "trace", lis, behavior_factory(), extra, None, clocks
    )
    faulted, occupancy = _simulate(
        backend, lis, behavior_factory(), extra, schedule.gate(0), clocks
    )

    violations: list[Violation] = []
    shells = sorted(lis.shells(), key=repr)

    # Latency equivalence + duplication, shell by shell.
    compared = 0
    for shell in shells:
        ref_stream = valid_stream(reference, shell)
        got_stream = valid_stream(faulted, shell)
        if len(got_stream) > len(ref_stream):
            violations.append(
                Violation(
                    invariant="token-duplication",
                    subject=str(shell),
                    detail=(
                        f"faulted run produced {len(got_stream)} valid "
                        f"items, reference only {len(ref_stream)} over "
                        f"{clocks} clocks"
                    ),
                )
            )
        n = min(len(ref_stream), len(got_stream))
        if n < min_items:
            raise ValueError(
                f"only {n} common valid items for shell {shell!r}; "
                f"need {min_items} (raise measure= or lower horizon)"
            )
        compared += n
        for i in range(n):
            if ref_stream[i] != got_stream[i]:
                violations.append(
                    Violation(
                        invariant="latency-equivalence",
                        subject=str(shell),
                        detail=(
                            f"valid item {i} differs: reference "
                            f"{ref_stream[i]!r}, faulted {got_stream[i]!r}"
                        ),
                    )
                )
                break

    # Queue occupancy vs the structural capacity bound.
    capacity = {
        channel.key: channel.data["queue"] + extra.get(channel.key, 0) + 1
        for channel in lis.channels()
    }
    for cid, peak in sorted(occupancy.items()):
        bound = capacity.get(cid)
        if bound is not None and peak > bound:
            violations.append(
                Violation(
                    invariant="queue-overflow",
                    subject=f"channel {cid}",
                    detail=f"peak occupancy {peak} exceeds capacity {bound}",
                )
            )

    # Post-recovery throughput band.
    ideal = ideal_mst(lis).mst
    actual = actual_mst(lis, extra or None).mst
    rates = {
        shell: faulted.throughput(shell, skip=skip) for shell in shells
    }
    min_rate = min(rates.values())
    if not (actual - epsilon <= min_rate <= ideal + epsilon):
        violations.append(
            Violation(
                invariant="throughput-band",
                subject="system",
                detail=(
                    f"measured rate {min_rate} outside "
                    f"[{actual} - {epsilon}, {ideal} + {epsilon}] over "
                    f"clocks [{skip}, {clocks})"
                ),
            )
        )

    return FaultRunReport(
        backend=backend,
        specs=schedule.specs,
        clocks=clocks,
        horizon=horizon,
        skip=skip,
        total_stalls=schedule.total_stalls,
        ideal=ideal,
        actual=actual,
        min_rate=min_rate,
        epsilon=epsilon,
        max_occupancy=dict(occupancy),
        capacity=capacity,
        compared_items=compared,
        violations=tuple(violations),
    )
