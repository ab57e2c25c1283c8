"""The analytic schedule oracle behind ``backend="schedule"``.

A live marked graph under synchronous step semantics is a
deterministic finite system, so its marking sequence is eventually
periodic: a transient prefix of length ``transient`` followed by a
steady-state period of length ``hyperperiod`` repeated forever.  The
oracle derives that decomposition *once* -- by walking markings of the
doubled marked graph until one repeats, O(transient + hyperperiod)
steps independent of any measurement horizon -- and from it answers
every throughput/occupancy question in closed form:

* exact steady-state throughput per node as a ``Fraction``
  (``firings-in-period / hyperperiod``; equals the analytic MST on
  every strongly connected system, per the repetition-vector
  property);
* the exact firing count of any node over any finite window, by
  arithmetic on prefix/period cumulative sums -- this *predicts* what
  the simulators measure, cycle-exactly, which is how the differential
  suite pins the oracle to trace/rtl/fast;
* per-channel peak queue occupancy over the infinite run (supremum of
  the transient and the period) and the steady-state occupancy
  distribution;
* the transient latency (clocks until steady state), i.e. the warmup a
  finite-horizon measurement needs to see pure steady state.

The steady-state firing words recovered here run at the same rate as
the balanced binary words of Millo & de Simone, and on the paper's
examples they *are* balanced -- but ASAP execution is not guaranteed
to produce a balanced word (bursty periods like ``1100`` occur on
small two-shell systems), only a word of the right density; a
balanced schedule of that exact rate always exists and
:func:`repro.schedule.words.mechanical_word` constructs it.

The fast path walks the flat compiled arrays of :mod:`repro.sim`
(shared with the ``fast`` backend through an
:class:`repro.analysis.Context`): the kernel's slot marking for one
configuration, stepped by the kernel's own
:class:`repro.sim.kernel.SlotStep`; :func:`derive_schedule_reference`
is the pure marked-graph cross-check used by the oracle's own
differential tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Hashable, Mapping

import numpy as np

from ..core.lis_graph import LisGraph
from ..core.scheduling import ScheduleError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.compile import CompiledSystem

__all__ = ["ScheduleOracle", "derive_schedule", "derive_schedule_reference"]


@dataclass(frozen=True)
class ScheduleOracle:
    """Eventually-periodic decomposition of a LIS execution.

    Attributes:
        node_names: Transition names in kernel node-index order.
        node_index: Name -> node index.
        is_shell: Per node, whether it is a shell (vs relay/stage).
        transient: Length of the transient prefix in clocks -- the
            latency until the marking enters the steady-state orbit.
        hyperperiod: Length of the steady-state period in clocks.
        prefix_fired: ``(transient, N)`` bool -- firings during the
            transient.
        period_fired: ``(hyperperiod, N)`` bool -- one period of the
            steady-state firing words.
        period_occupancy: ``(hyperperiod, K)`` int -- post-step queue
            occupancy of each observable channel across one period.
        occ_channels: Channel id per occupancy column.
        peak_occupancy: Channel id -> peak occupancy over the *infinite*
            run (initial marking, transient and period included).
    """

    node_names: tuple[Hashable, ...]
    node_index: Mapping[Hashable, int]
    is_shell: tuple[bool, ...]
    transient: int
    hyperperiod: int
    prefix_fired: np.ndarray
    period_fired: np.ndarray
    period_occupancy: np.ndarray
    occ_channels: tuple[int, ...]
    peak_occupancy: Mapping[int, int]

    # ------------------------------------------------------------------
    # Steady state
    # ------------------------------------------------------------------
    def firings_in_period(self, node: Hashable) -> int:
        return int(self.period_fired[:, self.node_index[node]].sum())

    def throughput(self, node: Hashable) -> Fraction:
        """Exact asymptotic firing rate of ``node`` (not finite-horizon)."""
        return Fraction(self.firings_in_period(node), self.hyperperiod)

    def shell_throughputs(self) -> dict[Hashable, Fraction]:
        return {
            name: self.throughput(name)
            for i, name in enumerate(self.node_names)
            if self.is_shell[i]
        }

    def min_rate(self) -> Fraction:
        """Slowest shell rate; on a strongly connected (doubled) system
        every shell settles to this common value, the actual MST."""
        return min(self.shell_throughputs().values())

    def firing_word(self, node: Hashable) -> tuple[int, ...]:
        """One period of ``node``'s steady-state binary firing word
        (same density as -- though not always equal to -- the balanced
        normal form of :mod:`repro.schedule.words`)."""
        return tuple(
            int(b) for b in self.period_fired[:, self.node_index[node]]
        )

    # ------------------------------------------------------------------
    # Exact finite-horizon predictions (what a simulator would measure)
    # ------------------------------------------------------------------
    def _firings_before(self, clock: int) -> np.ndarray:
        """Firings of every node in clocks ``[0, clock)``."""
        if clock <= self.transient:
            return self.prefix_fired[:clock].sum(axis=0)
        full, rem = divmod(clock - self.transient, self.hyperperiod)
        period = self.period_fired
        return (
            self.prefix_fired.sum(axis=0)
            + full * period.sum(axis=0)
            + period[:rem].sum(axis=0)
        )

    def window_firings(self, clocks: int, warmup: int = 0) -> np.ndarray:
        """:meth:`firings` of every node at once, in node-index order."""
        if not 0 <= warmup <= clocks:
            raise ValueError("need 0 <= warmup <= clocks")
        return self._firings_before(clocks) - self._firings_before(warmup)

    def firings(self, node: Hashable, clocks: int, warmup: int = 0) -> int:
        """Exact number of firings of ``node`` in clocks
        ``[warmup, clocks)`` -- cycle-equal to running any simulator
        that long and counting."""
        return int(self.window_firings(clocks, warmup)[self.node_index[node]])

    def firing_plan(self, node: Hashable, clocks: int) -> list[bool]:
        """Whether ``node`` fires on each of the first ``clocks`` cycles
        (prefix, then the period repeated)."""
        i = self.node_index[node]
        plan = []
        for t in range(clocks):
            if t < self.transient:
                plan.append(bool(self.prefix_fired[t, i]))
            else:
                plan.append(
                    bool(
                        self.period_fired[
                            (t - self.transient) % self.hyperperiod, i
                        ]
                    )
                )
        return plan

    # ------------------------------------------------------------------
    # Occupancy
    # ------------------------------------------------------------------
    def max_queue_occupancy(self) -> dict[int, int]:
        """Peak items per observable channel queue over the infinite
        run -- equals ``<simulator>.max_queue_occupancy()`` once the
        horizon covers ``transient + hyperperiod`` clocks."""
        return dict(self.peak_occupancy)

    def occupancy_distribution(self, channel: int) -> dict[int, Fraction]:
        """Steady-state distribution of ``channel``'s queue occupancy:
        occupancy level -> fraction of period clocks spent there."""
        try:
            k = self.occ_channels.index(channel)
        except ValueError:
            raise KeyError(f"no observable queue for channel {channel}")
        counts = Counter(int(v) for v in self.period_occupancy[:, k])
        return {
            level: Fraction(count, self.hyperperiod)
            for level, count in sorted(counts.items())
        }




def derive_schedule(
    lis: LisGraph,
    extra_tokens: dict[int, int] | None = None,
    max_steps: int = 50_000,
) -> ScheduleOracle:
    """Derive the eventually-periodic schedule of ``lis``'s doubled
    marked graph without fixing a horizon.

    ``lis`` may be a plain :class:`~repro.core.LisGraph` or an
    :class:`repro.analysis.Context` (preferred: the walk then shares
    the ``fast`` backend's compiled arrays, and contexts memoize the
    oracle itself as the ``schedule`` artifact).

    Walks :func:`repro.sim.kernel.step_batch` semantics for one
    configuration, hashing the marking each step; the first repeated
    marking closes the orbit.  The doubled graph of a weakly connected
    LIS is strongly connected (every channel contributes a backedge),
    so the marking space is bounded and the walk always terminates --
    :class:`~repro.core.scheduling.ScheduleError` is only reachable via
    ``max_steps`` on pathologically token-heavy systems or disconnected
    (multi-component) inputs with huge joint periods.
    """
    from ..sim.compile import compile_lis

    return _walk(compile_lis(lis), extra_tokens, max_steps)


def _walk(
    compiled: "CompiledSystem",
    extra_tokens: dict[int, int] | None,
    max_steps: int,
) -> ScheduleOracle:
    """The marking walk over any compiled lowering: the doubled graph
    here, the ideal graph for
    :func:`repro.core.scheduling.schedule_lis` ``(practical=False)``."""
    from ..sim.kernel import SlotStep

    extra = {int(c): int(x) for c, x in (extra_tokens or {}).items()}
    tokens = compiled.slot_marking([extra], horizon=max_steps + 1)
    step = SlotStep(compiled, tokens)
    occ_slots = compiled.occ_slots
    seen: dict[bytes, int] = {}
    fired_hist: list[np.ndarray] = []
    occ_hist: list[np.ndarray] = []
    occ0 = tokens[occ_slots, 0]
    for walked in range(max_steps + 1):
        key = tokens.tobytes()
        if key in seen:
            break
        seen[key] = walked
        live = step.enabled(np.empty((compiled.n_nodes, 1), dtype=bool))
        step.fire(live)
        fired_hist.append(live[:, 0])
        occ_hist.append(tokens[occ_slots, 0])
    else:
        raise ScheduleError(f"no periodic marking within {max_steps} steps")
    return _oracle(
        compiled.node_names,
        compiled.is_shell,
        compiled.occ_channels,
        seen[key],
        fired_hist,
        occ_hist,
        occ0,
    )


def derive_schedule_reference(
    lis: LisGraph,
    extra_tokens: dict[int, int] | None = None,
    max_steps: int = 50_000,
) -> ScheduleOracle:
    """Pure marked-graph derivation of the same oracle (no numpy walk).

    Steps :meth:`repro.core.MarkedGraph.step` directly on the doubled
    lowering and reconstructs the identical decomposition -- the
    differential cross-check for :func:`derive_schedule`, and the form
    to read when auditing the semantics.
    """
    mg = lis.doubled_marked_graph(extra_tokens)
    graph = mg.graph
    node_names = tuple(graph.nodes)
    node_index = {name: i for i, name in enumerate(node_names)}
    is_shell = tuple(
        graph.node_data(name).get("kind") not in ("relay", "stage")
        for name in node_names
    )
    # Observable queues: the non-internal final forward hop into each
    # consumer shell (the same rule repro.sim.compile uses for occ_cols).
    occ_places = [
        (place.key, place.data["channel"])
        for place in sorted(
            mg.places, key=lambda p: (node_index[p.dst], p.key)
        )
        if place.data["kind"] == "fwd"
        and not place.data.get("internal")
        and is_shell[node_index[place.dst]]
    ]
    occ_channels = tuple(channel for _, channel in occ_places)

    marking = mg.marking()
    seen: dict[tuple, int] = {}
    fired_hist: list[list[bool]] = []
    occ_hist: list[list[int]] = []
    occ0 = [marking[key] for key, _ in occ_places]
    for step in range(max_steps + 1):
        state = tuple(sorted(marking.items()))
        if state in seen:
            break
        seen[state] = step
        fired = mg.step()
        marking = mg.marking()
        fired_hist.append([name in fired for name in node_names])
        occ_hist.append([marking[key] for key, _ in occ_places])
    else:
        raise ScheduleError(f"no periodic marking within {max_steps} steps")
    return _oracle(
        node_names,
        is_shell,
        occ_channels,
        seen[state],
        fired_hist,
        occ_hist,
        occ0,
    )


def _oracle(
    node_names: tuple[Hashable, ...],
    is_shell: tuple[bool, ...],
    occ_channels: tuple[int, ...],
    start: int,
    fired_hist: list,
    occ_hist: list,
    occ0,
) -> ScheduleOracle:
    """Split a walk's history at ``start``, the step whose marking
    repeated: the rows before it are the transient, the rest one
    period.  ``occ0`` is the initial occupancy, which counts towards
    the peaks."""
    steps = len(fired_hist)
    fired = np.array(fired_hist, dtype=bool).reshape(steps, len(node_names))
    occ = np.array(occ_hist, dtype=np.int64).reshape(steps, len(occ_channels))
    peak = np.maximum(occ0, occ.max(axis=0))
    return ScheduleOracle(
        node_names=node_names,
        node_index={name: i for i, name in enumerate(node_names)},
        is_shell=is_shell,
        transient=start,
        hyperperiod=steps - start,
        prefix_fired=fired[:start],
        period_fired=fired[start:],
        period_occupancy=occ[start:],
        occ_channels=occ_channels,
        peak_occupancy=dict(zip(occ_channels, peak.tolist())),
    )
