"""The structural (RTL-style) model of a latency-insensitive system.

An independent second implementation of LIS semantics, used to
cross-validate :mod:`repro.lis.trace_sim` and the static analysis.
Instead of executing a marked graph, :func:`build_netlist` expands a
:class:`~repro.core.lis_graph.LisGraph` into the protocol hardware the
paper describes, as data:

* a *shell* per core, with one bypassable input queue per channel and
  AND-firing: the core fires only when every input queue holds valid
  data *and* every downstream queue can accept a new item; otherwise
  the core is stalled (clock-gated) and emits void.  A shell asserts
  ``stop`` on an input channel exactly when that queue is full.
* a *relay station* per wire segment -- the twofold buffer (main +
  auxiliary register): it forwards one item per cycle while the
  downstream accepts, absorbs one extra in-flight item when stopped,
  and asserts ``stop`` upstream when both registers are occupied.
* a chain of two-slot elastic *stages* inside each multi-cycle core.

Every element obeys the same fire rule, evaluated on start-of-cycle
state (registered stop semantics), which is exactly the step semantics
of the marked-graph model.  The one netlist feeds two consumers:

* :class:`RtlSimulator` -- carries data values through one deque per
  :class:`NetQueue`, with optional per-shell environment gates (the
  paper's "interaction with the environment" factor) and per-node
  fault gates.  Absent environment gates it agrees with the
  marked-graph simulator cycle-for-cycle, and the differential harness
  asserts it.
* :mod:`repro.dsl.rtl` -- the SystemVerilog emitter, which turns every
  :class:`NetQueue` into a ``lis_channel_queue`` instance with the same
  ``DEPTH``/``RESET_TOKENS`` parameters and every node's fire rule into
  the corresponding valid/stop logic, so the emitted RTL has the
  simulator's fire/stall schedule by construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Hashable, Mapping

from ..core.lis_graph import LisGraph
from ..core.naming import relay_name, stage_name
from .protocol import TAU, ShellBehavior, Trace

__all__ = [
    "NetQueue",
    "NetNode",
    "Netlist",
    "RtlSimulator",
    "build_netlist",
    "simulate_rtl",
]

#: A firing gate: (clock, firing_index) -> may the shell fire this cycle?
Gate = Callable[[int, int], bool]

#: A fault gate: (node, clock) -> must the node stall this cycle?
#: Unlike environment ``gates`` (shells only), a fault gate addresses
#: every structural node: shells, relay stations (``("rs", cid, i)``)
#: and pipeline stages (``("stage", shell, i)``).
FaultGate = Callable[[Hashable, int], bool]


@dataclass(frozen=True)
class NetQueue:
    """One physical receive queue: a hop of a channel or a pipeline
    stage segment inside a multi-cycle core.

    ``channel`` is the owning channel id for real channel hops and
    ``None`` for internal latency segments.  ``hop`` numbers the hops
    of one channel from the producer (0) to the consumer; ``final``
    marks the hop whose queue lives at the consumer *shell* (the one
    whose occupancy the queue-sizing problem bounds).  ``reset_tokens``
    is 1 exactly for final hops: the marked graph's initial token --
    the data the shell transfers in the first clock period is already
    latched at reset.
    """

    index: int
    producer: Hashable
    consumer: Hashable
    capacity: int
    reset_tokens: int
    channel: int | None = None
    hop: int = 0
    final: bool = False


@dataclass(frozen=True)
class NetNode:
    """One firing element: a shell core, a relay station, or one
    internal pipeline stage of a multi-cycle core.

    ``inputs``/``outputs`` are indices into :attr:`Netlist.queues`.
    The fire rule is uniform: the node fires in a clock period iff
    every input queue is non-empty and every output queue is non-full
    at the start of the period (AND-firing with registered stop).
    """

    name: Hashable
    kind: str  # "shell" | "relay" | "stage"
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    latency: int = 1


@dataclass(frozen=True)
class Netlist:
    """The complete structural expansion of one LIS."""

    lis: LisGraph
    nodes: tuple[NetNode, ...]
    queues: tuple[NetQueue, ...]

    def node(self, name: Hashable) -> NetNode:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(name)

    def shells(self) -> list[NetNode]:
        return [node for node in self.nodes if node.kind == "shell"]

    def channel_hops(self, channel: int) -> list[NetQueue]:
        """The hop queues of ``channel``, producer-side first."""
        hops = [q for q in self.queues if q.channel == channel]
        return sorted(hops, key=lambda q: q.hop)


def build_netlist(
    lis: LisGraph, extra_tokens: dict[int, int] | None = None
) -> Netlist:
    """Expand ``lis`` into its structural netlist.

    Nodes come in a fixed order -- each shell followed by its internal
    stages, in declaration order, then the relay stations channel by
    channel in channel-id order -- which is also the row order of
    :class:`RtlSimulator` traces.
    """
    extra = dict(extra_tokens or {})
    nodes: list[tuple[Hashable, str, int]] = []  # (name, kind, latency)
    inputs: dict[Hashable, list[int]] = {}
    outputs: dict[Hashable, list[int]] = {}
    queues: list[NetQueue] = []

    def declare(name: Hashable, kind: str, latency: int = 1) -> None:
        nodes.append((name, kind, latency))
        inputs[name] = []
        outputs[name] = []

    def connect(
        producer: Hashable,
        consumer: Hashable,
        capacity: int,
        reset_tokens: int,
        channel: int | None = None,
        hop: int = 0,
        final: bool = False,
    ) -> None:
        queue = NetQueue(
            index=len(queues),
            producer=producer,
            consumer=consumer,
            capacity=capacity,
            reset_tokens=reset_tokens,
            channel=channel,
            hop=hop,
            final=final,
        )
        queues.append(queue)
        outputs[producer].append(queue.index)
        inputs[consumer].append(queue.index)

    tails: dict[Hashable, Hashable] = {}
    for shell in lis.shells():
        declare(shell, "shell", lis.latency(shell))
        previous: Hashable = shell
        for i in range(lis.latency(shell) - 1):
            stage = stage_name(shell, i)
            declare(stage, "stage")
            # Two-slot elastic stage, mirroring the marked-graph
            # lowering (a one-deep register would halve the rate).
            connect(previous, stage, capacity=2, reset_tokens=0)
            previous = stage
        tails[shell] = previous

    for channel in lis.channels():
        hops: list[Hashable] = [tails[channel.src]]
        for i in range(channel.data["relays"]):
            rs = relay_name(channel.key, i)
            declare(rs, "relay")
            hops.append(rs)
        hops.append(channel.dst)
        for i in range(len(hops) - 1):
            final = i == len(hops) - 2
            # A shell accepts q queued items plus the one in its input
            # latch (the marked graph's initial token, occupying the
            # queue at reset); a relay station is its own two-slot
            # buffer that resets to void.
            capacity = (
                channel.data["queue"] + extra.get(channel.key, 0) + 1
                if final
                else 2
            )
            connect(
                hops[i],
                hops[i + 1],
                capacity=capacity,
                reset_tokens=1 if final else 0,
                channel=channel.key,
                hop=i,
                final=final,
            )

    return Netlist(
        lis=lis,
        nodes=tuple(
            NetNode(
                name=name,
                kind=kind,
                inputs=tuple(inputs[name]),
                outputs=tuple(outputs[name]),
                latency=latency,
            )
            for name, kind, latency in nodes
        ),
        queues=tuple(queues),
    )


_RESET = object()  # placeholder occupying shell queues at reset


def _display(value: Any) -> Any:
    """What a trace row shows for a (possibly multi-channel) result:
    the value on the lowest-numbered channel of a mapping."""
    if isinstance(value, Mapping):
        return value[min(value)] if value else TAU
    return value


class RtlSimulator:
    """Structural simulation of a practical LIS, over its netlist.

    Args:
        lis: The system; every channel is expanded into its relay
            stations and per-hop receive queues (:func:`build_netlist`).
        behaviors: ``{shell name: ShellBehavior}`` (defaults like
            :class:`~repro.lis.trace_sim.TraceSimulator`).
        extra_tokens: Optional queue-sizing solution; adds slots to the
            consumer shells' queues.
        gates: Optional ``{shell name: Gate}`` environment model.
        faults: Optional fault gate ``(node, clock) -> bool``; any node
            for which it returns True is clock-gated that cycle (see
            :mod:`repro.faults`).  Stalling is protocol-legal, so every
            fault schedule yields a valid LIS execution.
    """

    def __init__(
        self,
        lis: LisGraph,
        behaviors: Mapping[Hashable, ShellBehavior] | None = None,
        extra_tokens: dict[int, int] | None = None,
        gates: Mapping[Hashable, Gate] | None = None,
        faults: FaultGate | None = None,
    ) -> None:
        self.lis = lis
        self.netlist = build_netlist(lis, extra_tokens)
        behaviors = behaviors or {}
        self._behaviors = {
            shell.name: behaviors.get(shell.name, ShellBehavior())
            for shell in self.netlist.shells()
        }
        gates = gates or {}
        self._gates = {
            shell: gates[shell] for shell in self._behaviors if shell in gates
        }
        self._faults = faults
        # The real output channels a core's result mapping is keyed by
        # (for a multi-cycle core they leave from its last stage).
        self._out_channels = {
            shell: sorted(e.key for e in lis.system.out_edges(shell))
            for shell in self._behaviors
        }
        self._firings = dict.fromkeys(self._behaviors, 0)

        queues = self.netlist.queues
        # Reset state.  The marked-graph model puts one initial token on
        # every place entering a shell: the data the shell transfers in
        # the first clock period is already latched, so its firing 0
        # emits the initial latched outputs without reading real input
        # data.  Each final receive queue therefore starts with a reset
        # placeholder (its value is never read), while relay stations
        # and stages reset to void.
        self.queues: list[deque[Any]] = [
            deque([_RESET] * q.reset_tokens) for q in queues
        ]
        self._capacity = [q.capacity for q in queues]
        # A multi-channel result is split per channel where it leaves a
        # core's pipeline: on the first hop of each real channel.
        self._split = [q.channel if q.hop == 0 else None for q in queues]
        self._final = [
            (q.index, q.channel)
            for q in queues
            if q.final and q.channel is not None
        ]
        self._max_occupancy = {
            channel: len(self.queues[index]) for index, channel in self._final
        }
        self.clock = 0
        self.trace = Trace()

    # ------------------------------------------------------------------
    def _may_fire(self, node: NetNode, clock: int) -> bool:
        queues = self.queues
        if not all(queues[i] for i in node.inputs):
            return False  # AND-firing: a missing input stalls the core
        capacity = self._capacity
        if any(len(queues[i]) >= capacity[i] for i in node.outputs):
            return False  # backpressure from downstream
        gate = self._gates.get(node.name)
        if gate is not None and not gate(clock, self._firings[node.name]):
            return False  # environment withholds data / stalls us
        return self._faults is None or not self._faults(node.name, clock)

    def _fire(self, node: NetNode) -> Any:
        """Pop ``node``'s inputs, push its outputs; returns the value
        the trace records for this firing."""
        queues = self.queues
        if node.kind == "shell":
            name = node.name
            # A shell's inputs are final hops, keyed by their channel.
            consumed: dict[Any, Any] = {
                self.netlist.queues[i].channel: queues[i].popleft()
                for i in node.inputs
            }
            behavior = self._behaviors[name]
            out_channels = self._out_channels[name]
            if self._firings[name] == 0:
                result: Any = (
                    {cid: behavior.initial_for(cid) for cid in out_channels}
                    if out_channels
                    else behavior.initial
                )
            else:
                result = behavior.compute(consumed)
            self._firings[name] += 1
            if isinstance(result, Mapping):
                result = {cid: result[cid] for cid in out_channels}
            value = result
            display = _display(result)
        else:
            value = queues[node.inputs[0]].popleft()
            display = _display(value) if node.kind == "stage" else value
        for i in node.outputs:
            split = self._split[i]
            if split is not None and isinstance(value, Mapping) and split in value:
                queues[i].append(value[split])
            else:
                queues[i].append(value)
        return display

    def step(self) -> set[Hashable]:
        """One clock period with registered-stop semantics."""
        clock = self.clock
        nodes = self.netlist.nodes
        # Every decision reads start-of-cycle state; only then do the
        # fired nodes move data.
        firing = [node for node in nodes if self._may_fire(node, clock)]
        displays = {node.name: self._fire(node) for node in firing}

        queues = self.queues
        for index, channel in self._final:
            if len(queues[index]) > self._max_occupancy[channel]:
                self._max_occupancy[channel] = len(queues[index])

        for node in nodes:
            if node.name in displays:
                self.trace.record(node.name, displays[node.name], True)
            else:
                self.trace.record(node.name, TAU, False)
        self.trace.clocks += 1
        self.clock += 1
        return set(displays)

    def run(self, clocks: int) -> Trace:
        for _ in range(clocks):
            self.step()
        return self.trace

    def throughput(self, shell: Hashable, skip: int = 0) -> Fraction:
        return self.trace.throughput(shell, skip=skip)

    def firing_counts(self) -> dict[Hashable, int]:
        """Total firings per node over the clocks simulated so far."""
        return {
            node.name: sum(self.trace.fired[node.name])
            for node in self.netlist.nodes
        }

    def max_queue_occupancy(self) -> dict[int, int]:
        """Peak occupancy per channel's shell input queue, counting the
        reset placeholder as one item -- the same accounting as
        ``TraceSimulator.max_queue_occupancy`` (the placeholder is the
        marked graph's initial token)."""
        return dict(self._max_occupancy)


def simulate_rtl(
    lis: LisGraph,
    clocks: int,
    behaviors: Mapping[Hashable, ShellBehavior] | None = None,
    extra_tokens: dict[int, int] | None = None,
    gates: Mapping[Hashable, Gate] | None = None,
    faults: FaultGate | None = None,
) -> Trace:
    """Convenience wrapper: build an :class:`RtlSimulator` and run it."""
    return RtlSimulator(lis, behaviors, extra_tokens, gates, faults).run(
        clocks
    )
