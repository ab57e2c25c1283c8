"""Data-carrying marked-graph simulator.

This simulator executes a LIS at the protocol level by running the
*doubled marked graph* under step semantics, but with every forward
place carrying a FIFO of actual data values rather than anonymous
tokens.  It regenerates the paper's Table I output traces and provides
empirical throughput and queue-occupancy measurements that the static
analysis (:mod:`repro.core.throughput`) is validated against.

Value semantics, following the paper's initialization convention: the
initial token on a place entering shell ``v`` stands for the data
``v`` transfers during the first clock period, so

* a shell's firing 0 emits its **initial latched outputs** (the values
  consumed from its input places at firing 0 are reset placeholders);
* a shell's firing k >= 1 emits ``fn(values consumed at firing k)``;
* a relay station simply forwards the value it consumes (it has no
  initial data: its input place starts empty, hence its first output
  is tau).

Backedge places carry capacity tokens, not data; they gate firings
exactly as in the analytical model, which is why the measured
throughput converges to the computed MST.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from typing import Any, Callable, Hashable, Iterable

from ..core.lis_graph import LisGraph
from .protocol import TAU, ShellBehavior, Trace

__all__ = ["TraceSimulator", "simulate_trace"]

#: A fault gate: (node, clock) -> must the node stall this cycle?
#: Stalling a transition is always protocol-legal (it is exactly a
#: clock-gate), so any gate yields a valid LIS execution.
FaultGate = Callable[[Hashable, int], bool]

_INIT = object()  # placeholder value carried by initial tokens


class TraceSimulator:
    """Cycle-accurate, data-carrying simulation of a practical LIS.

    Args:
        lis: The system to simulate (queues/relays as configured) -- a
            :class:`~repro.core.LisGraph`, or an
            :class:`repro.analysis.Context` whose cached lowering is
            then reused (the simulator receives a defensive copy, so
            the stepping below never touches the shared master).
        behaviors: ``{shell name: ShellBehavior}``; shells without an
            entry get the default pass-through behaviour with initial
            output 0.
        extra_tokens: Optional queue-sizing solution applied on top of
            the configured queues (channel id -> extra slots).
        bounded: With ``False``, simulate the *ideal* LIS -- infinite
            queues, no backpressure.  Its :meth:`max_queue_occupancy`
            then reports the true buffering demand of the ideal
            execution (unbounded for rate-mismatched compositions).
        faults: Optional fault gate ``(node, clock) -> bool``; a node
            for which it returns True is clock-gated that cycle even
            when its marking enables it (see :mod:`repro.faults`).
    """

    def __init__(
        self,
        lis: LisGraph,
        behaviors: Mapping[Hashable, ShellBehavior] | None = None,
        extra_tokens: dict[int, int] | None = None,
        bounded: bool = True,
        faults: FaultGate | None = None,
    ) -> None:
        self.lis = lis
        self.behaviors = dict(behaviors or {})
        self._faults = faults
        self.clock = 0
        if bounded:
            self.mg = lis.doubled_marked_graph(extra_tokens)
        else:
            if extra_tokens:
                raise ValueError(
                    "extra_tokens is meaningless for the unbounded "
                    "(ideal) simulation"
                )
            self.mg = lis.ideal_marked_graph()
        graph = self.mg.graph

        self._is_shell = {
            node: graph.node_data(node).get("kind") not in ("relay", "stage")
            for node in graph.nodes
        }
        # FIFO of data values per forward place; backedges keep plain
        # integer token counts inside the marked graph itself.
        self._fifo: dict[int, deque] = {}
        for place in self.mg.places:
            if place.data["kind"] != "fwd":
                continue
            self._fifo[place.key] = deque(
                [_INIT] * place.data["tokens"]
            )
        # Each node's input and output places as (data, FIFO or None on
        # a backedge, channel, key), worked out once: the lowering is
        # private and never changes shape.
        def wiring(places) -> tuple:
            return tuple(
                (p.data, self._fifo.get(p.key), p.data["channel"], p.key)
                for p in places
            )

        self._inputs = {
            node: wiring(graph.in_edges(node)) for node in graph.nodes
        }
        self._outputs = {
            node: wiring(graph.out_edges(node)) for node in graph.nodes
        }
        self._firing_index: dict[Hashable, int] = {
            node: 0 for node in graph.nodes
        }
        # Output channel ids per shell (for behaviour output mapping);
        # relay stations and pipeline stages forward values as-is.  A
        # multi-cycle shell's core drives internal places, so its real
        # output channels come from the system graph, not from the
        # marked graph's out-edges.
        self._out_channels: dict[Hashable, list[int]] = {}
        for node in graph.nodes:
            if self._is_shell[node]:
                self._out_channels[node] = sorted(
                    e.key for e in lis.system.out_edges(node)
                )
            else:
                self._out_channels[node] = []
        self.trace = Trace()
        self._max_occupancy: dict[int, int] = {
            key: len(fifo) for key, fifo in self._fifo.items()
        }

    # ------------------------------------------------------------------
    def behavior_of(self, node: Hashable) -> ShellBehavior:
        return self.behaviors.setdefault(node, ShellBehavior())

    def _fire_value(self, node: Hashable, consumed: dict[int, Any]) -> Any:
        """The value(s) a node emits at its current firing."""
        if not self._is_shell[node]:
            # Relay station / pipeline stage: forward the consumed value.
            (value,) = consumed.values()
            return value
        behavior = self.behavior_of(node)
        k = self._firing_index[node]
        if k == 0:
            return {
                cid: behavior.initial_for(cid)
                for cid in self._out_channels[node]
            } if self._out_channels[node] else behavior.initial
        clean = {
            cid: val for cid, val in consumed.items() if val is not _INIT
        }
        return behavior.compute(clean)

    def step(self) -> set[Hashable]:
        """One clock period; returns the set of nodes that fired."""
        fired = self.mg.enabled_transitions()
        if self._faults is not None:
            gate = self._faults
            clock = self.clock
            fired = [node for node in fired if not gate(node, clock)]
        self.fire(fired)
        return set(fired)

    def fire(self, fired: Iterable[Hashable]) -> None:
        """Fire the nodes ``fired`` together for one clock period:
        move their tokens and data values, then record the trace row.

        Each node must be enabled at the start of the period.
        :meth:`step` passes its own decision; the vectorized kernel's
        firing history replays through here (:mod:`repro.sim`).
        """
        # Consume: pop data values and backedge tokens.
        consumed: list[tuple[Hashable, dict[int, Any]]] = []
        for node in fired:
            taken: dict[int, Any] = {}
            for data, fifo, channel, _ in self._inputs[node]:
                data["tokens"] -= 1
                if fifo is not None:
                    taken[channel] = fifo.popleft()
            consumed.append((node, taken))

        # Produce: push output values and return backedge tokens.
        shown: dict[Hashable, Any] = {}
        peaks = self._max_occupancy
        for node, taken in consumed:
            value = self._fire_value(node, taken)
            # Per-channel unwrap: a Mapping keyed by the place's
            # channel resolves to that channel's value; internal
            # pipeline places (whose channel key is the synthetic
            # ("latency", shell) marker) carry the whole mapping down
            # the pipe until the tail stage fans it out.
            split = isinstance(value, Mapping)
            for data, fifo, channel, key in self._outputs[node]:
                data["tokens"] += 1
                if fifo is None:
                    continue
                fifo.append(
                    value[channel] if split and channel in value else value
                )
                if len(fifo) > peaks[key]:
                    peaks[key] = len(fifo)
            self._firing_index[node] += 1
            if split:
                value = value[min(value)] if value else TAU
            shown[node] = value

        # Record the trace row for this clock.
        record = self.trace.record
        for node in self.mg.graph.nodes:
            if node in shown:
                record(node, shown[node], True)
            else:
                record(node, TAU, False)
        self.trace.clocks += 1
        self.clock += 1

    def run(self, clocks: int) -> Trace:
        for _ in range(clocks):
            self.step()
        return self.trace

    # ------------------------------------------------------------------
    def max_queue_occupancy(self) -> dict[int, int]:
        """Peak occupancy per channel's shell input queue.

        This is the empirical buffer requirement: the largest number of
        data items simultaneously waiting on each channel's final
        segment (the consumer shell's queue).
        """
        out: dict[int, int] = {}
        for place in self.mg.places:
            if place.data["kind"] != "fwd" or place.data.get("internal"):
                continue
            if self._is_shell[place.dst]:
                out[place.data["channel"]] = self._max_occupancy[place.key]
        return out


def simulate_trace(
    lis: LisGraph,
    clocks: int,
    behaviors: Mapping[Hashable, ShellBehavior] | None = None,
    extra_tokens: dict[int, int] | None = None,
    faults: FaultGate | None = None,
) -> Trace:
    """Convenience wrapper: build a :class:`TraceSimulator` and run it."""
    return TraceSimulator(lis, behaviors, extra_tokens, faults=faults).run(
        clocks
    )
