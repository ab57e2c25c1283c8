"""Batch and single-configuration fronts for the vectorized kernel.

:class:`BatchSimulator` evaluates B queue-sizing assignments of one
topology in a single run -- the compile cost is paid once and every
kernel step advances all configurations together.  :class:`FastSimulator`
is the B = 1 convenience with the same ``run(clocks) -> Trace`` surface
as the reference simulators.  The kernel moves tokens only; data values
replay the recorded firings through
:meth:`~repro.lis.trace_sim.TraceSimulator.fire`, the reference's own
value semantics.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Mapping, Sequence

import numpy as np

from ..core.lis_graph import LisGraph
from ..lis.protocol import ShellBehavior, Trace
from ..lis.trace_sim import FaultGate, TraceSimulator
from .compile import CompiledSystem, compile_lis
from .kernel import step_batch

__all__ = [
    "BatchRunResult",
    "BatchSimulator",
    "FastSimulator",
    "gate_mask",
    "simulate_fast",
]


def check_window(clocks: int, warmup: int) -> None:
    """Refuse a run of ``clocks`` steps that counts firings from step
    ``warmup`` unless ``0 <= warmup < clocks`` (``ValueError``)."""
    if clocks <= 0:
        raise ValueError("clocks must be positive")
    if not 0 <= warmup < clocks:
        raise ValueError("warmup must satisfy 0 <= warmup < clocks")


def gate_mask(
    compiled: CompiledSystem, gate: FaultGate | None, start: int, clocks: int
) -> np.ndarray | None:
    """The (clocks, n_nodes) stall mask of the fault gate ``gate``
    ``(node, clock) -> bool`` over clocks ``start ... start + clocks
    - 1`` (None without a gate): the kernel form of the reference
    simulators' ``faults=``."""
    if gate is None:
        return None
    names = compiled.node_names
    return np.array(
        [
            [gate(name, clock) for name in names]
            for clock in range(start, start + clocks)
        ],
        dtype=bool,
    )


def _replay(
    sim: TraceSimulator, names: Sequence[Hashable], rows: np.ndarray
) -> Trace:
    """Replay a (T, n_nodes) firing history, columns in ``names``
    order, through ``sim.fire``; returns ``sim.trace``."""
    for row in rows.tolist():
        sim.fire([name for name, fired in zip(names, row) if fired])
    return sim.trace


class BatchRunResult:
    """Outcome of one batched run: per-configuration firing counts over
    the measurement window, peak queue occupancies, and (when recorded)
    the full firing history.

    ``counts`` (B, N), ``occupancy`` (B, K) and ``history`` (T, B, N)
    are transposed views of the kernel's arrays, which keep the
    configurations on their last axis.
    """

    def __init__(
        self,
        lis: LisGraph,
        compiled: CompiledSystem,
        assignments: list[dict[int, int]],
        clocks: int,
        warmup: int,
        counts: np.ndarray,
        occupancy: np.ndarray,
        history: np.ndarray | None,
    ) -> None:
        self.lis = lis
        self.compiled = compiled
        self.assignments = assignments
        self.clocks = clocks
        self.warmup = warmup
        self.counts = counts
        self.occupancy = occupancy
        self.history = history

    @property
    def width(self) -> int:
        """Number of configurations in the batch."""
        return len(self.assignments)

    def throughput(
        self, b: int = 0, node: Hashable | None = None
    ) -> Fraction | dict[Hashable, Fraction]:
        """Firing rate over the post-warmup window; a single node's, or
        ``{node: rate}`` for every transition when ``node`` is None."""
        window = self.clocks - self.warmup
        if node is not None:
            i = self.compiled.node_index[node]
            return Fraction(int(self.counts[b, i]), window)
        return {
            name: Fraction(int(self.counts[b, i]), window)
            for i, name in enumerate(self.compiled.node_names)
        }

    def max_queue_occupancy(self, b: int = 0) -> dict[int, int]:
        """Peak items on each channel's consumer-shell queue (matches
        ``TraceSimulator.max_queue_occupancy``)."""
        return {
            channel: int(self.occupancy[b, k])
            for k, channel in enumerate(self.compiled.occ_channels)
        }

    def fired(self, b: int = 0) -> dict[Hashable, list[bool]]:
        """Per-node firing flags (requires ``record=True``)."""
        if self.history is None:
            raise ValueError("run with record=True to keep firing history")
        return {
            name: [bool(x) for x in self.history[:, b, i]]
            for i, name in enumerate(self.compiled.node_names)
        }

    def to_trace(
        self,
        b: int = 0,
        behaviors: Mapping[Hashable, ShellBehavior] | None = None,
    ) -> Trace:
        """Replay configuration ``b``'s firings through a
        :class:`TraceSimulator` with its extra tokens: the full
        data-carrying :class:`Trace` (requires ``record=True``)."""
        if self.history is None:
            raise ValueError("run with record=True to keep firing history")
        sim = TraceSimulator(self.lis, behaviors, self.assignments[b])
        return _replay(sim, self.compiled.node_names, self.history[:, b, :])


class BatchSimulator:
    """Evaluate many queue-sizing assignments of one topology at once.

    Args:
        lis: The system; compiled once, shared by the whole batch.  An
            :class:`repro.analysis.Context` reuses its cached compile.
        assignments: One ``{channel id: extra queue slots}`` mapping per
            configuration (``None`` or ``[{}]`` = the system as built).
    """

    def __init__(
        self,
        lis: LisGraph,
        assignments: Sequence[Mapping[int, int]] | None = None,
    ) -> None:
        self.lis = lis
        self.compiled = compile_lis(lis)
        self.assignments = [
            {int(c): int(x) for c, x in a.items()}
            for a in (assignments if assignments is not None else [{}])
        ]
        if not self.assignments:
            raise ValueError("empty assignment batch")

    @property
    def width(self) -> int:
        return len(self.assignments)

    def run(
        self,
        clocks: int,
        warmup: int = 0,
        record: bool = False,
        stall_mask: np.ndarray | None = None,
    ) -> BatchRunResult:
        """Advance every configuration ``clocks`` cycles; firing counts
        are accumulated after the first ``warmup`` cycles.

        ``stall_mask`` is an optional boolean fault schedule (True =
        clock-gate that node on that step).  Shape ``(clocks,
        n_nodes)`` applies one schedule to every configuration in the
        batch (:mod:`repro.faults`); shape ``(clocks, B, n_nodes)``
        gives every configuration its own schedule -- the form
        :mod:`repro.stochastic` uses to run Monte-Carlo trials as the
        batch axis.
        """
        check_window(clocks, warmup)
        compiled = self.compiled
        batch = len(self.assignments)
        if stall_mask is not None:
            stall_mask = np.asarray(stall_mask, dtype=bool)
            allowed = (
                (clocks, compiled.n_nodes),
                (clocks, batch, compiled.n_nodes),
            )
            if stall_mask.shape not in allowed:
                raise ValueError(
                    "stall_mask must have shape (clocks, n_nodes) = "
                    f"{allowed[0]} or (clocks, B, n_nodes) = "
                    f"{allowed[1]}, got {stall_mask.shape}"
                )
            if stall_mask.ndim == 3:
                # No copy for StallSchedule.mask(), already a view of
                # the (clocks, n_nodes, B) layout the kernel reads.
                stall_mask = np.ascontiguousarray(
                    stall_mask.transpose(0, 2, 1)
                )
        tokens = compiled.slot_marking(self.assignments, horizon=clocks)
        counts = np.zeros((compiled.n_nodes, batch), dtype=np.int64)
        occupancy = tokens[compiled.occ_slots]
        history = (
            np.empty((clocks, compiled.n_nodes, batch), dtype=bool)
            if record
            else None
        )
        step_batch(
            compiled,
            tokens,
            clocks,
            counts=counts,
            count_from=warmup,
            occupancy=occupancy,
            history=history,
            stall_mask=stall_mask,
        )
        return BatchRunResult(
            self.lis,
            compiled,
            self.assignments,
            clocks,
            warmup,
            counts.T,
            occupancy.T,
            None if history is None else history.transpose(0, 2, 1),
        )


class FastSimulator:
    """Single-configuration front with the reference simulators' API.

    ``run`` is incremental (repeated calls continue the same execution)
    and returns the cumulative data-carrying :class:`Trace`.
    """

    def __init__(
        self,
        lis: LisGraph,
        behaviors: Mapping[Hashable, ShellBehavior] | None = None,
        extra_tokens: dict[int, int] | None = None,
        faults=None,
    ) -> None:
        self.lis = lis
        self.compiled = compile_lis(lis)
        extra = {
            int(c): int(x) for c, x in (extra_tokens or {}).items()
        }
        # Incremental runs have no horizon, so no dtype bound from one.
        self._tokens = self.compiled.slot_marking([extra])
        self._occupancy = self._tokens[self.compiled.occ_slots]
        #: Carries the data values of the kernel's firings.
        self._values = TraceSimulator(lis, behaviors, extra)
        #: Optional fault gate ``(node, clock) -> bool`` with the same
        #: semantics as the reference simulators; materialized into a
        #: per-chunk stall mask at absolute clock offsets.
        self._faults = faults
        self.clocks = 0

    @property
    def trace(self) -> Trace:
        return self._values.trace

    def run(self, clocks: int) -> Trace:
        if clocks <= 0:
            raise ValueError("clocks must be positive")
        history = np.empty(
            (clocks, self.compiled.n_nodes, 1), dtype=bool
        )
        step_batch(
            self.compiled,
            self._tokens,
            clocks,
            occupancy=self._occupancy,
            history=history,
            stall_mask=gate_mask(self.compiled, self._faults, self.clocks, clocks),
        )
        _replay(self._values, self.compiled.node_names, history[:, :, 0])
        self.clocks += clocks
        return self.trace

    def throughput(self, shell: Hashable, skip: int = 0) -> Fraction:
        return self.trace.throughput(shell, skip=skip)

    def max_queue_occupancy(self) -> dict[int, int]:
        """Peak occupancy per channel's shell input queue (see
        ``TraceSimulator.max_queue_occupancy``)."""
        return {
            channel: int(self._occupancy[k, 0])
            for k, channel in enumerate(self.compiled.occ_channels)
        }


def simulate_fast(
    lis: LisGraph,
    clocks: int,
    behaviors: Mapping[Hashable, ShellBehavior] | None = None,
    extra_tokens: dict[int, int] | None = None,
    faults=None,
) -> Trace:
    """Convenience wrapper: build a :class:`FastSimulator` and run it."""
    return FastSimulator(lis, behaviors, extra_tokens, faults=faults).run(
        clocks
    )
