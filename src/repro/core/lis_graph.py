"""System-level model of a latency-insensitive system (LIS).

A :class:`LisGraph` describes a LIS the way a designer sees it: a set
of *shells* (encapsulated IP cores) connected by point-to-point
*channels*, each channel carrying

* a **queue capacity** ``q`` -- the input-queue depth the consumer
  shell dedicates to this channel, and
* a **relay count** ``r`` -- how many relay stations (2-slot pipeline
  buffers, initialized void) have been inserted along the channel's
  wires.

Two lowerings produce the marked graphs of the paper's Section III:

* :meth:`LisGraph.ideal_marked_graph` -- the *ideal* LIS with infinite
  queues and no backpressure: forward places only.
* :meth:`LisGraph.doubled_marked_graph` -- the *practical* LIS: every
  forward place gets a backedge whose tokens equal the buffering
  capacity at the forward place's consumer (``q`` at a shell, 2 at a
  relay station).  Queue-sizing solutions add extra tokens to the
  shell-side backedges.

Initial-marking convention (Section III-B): a forward place holds one
token when its consumer is a shell (the data transferred in the first
clock period) and zero when its consumer is a relay station (relay
stations start with void data).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable, Mapping, TypeVar

from ..graphs import Digraph, Edge, scc_of
from .marked_graph import MarkedGraph
from .naming import relay_name, stage_name

__all__ = [
    "LisGraph",
    "LisError",
    "RELAY_CAPACITY",
    "check_extra_tokens",
    "relay_name",
    "stage_name",
]

#: Storage capacity of a relay station (main + auxiliary register).
RELAY_CAPACITY = 2

T = TypeVar("T")


class LisError(Exception):
    """Raised on invalid LIS construction or lowering."""


def check_extra_tokens(
    extra: Mapping[int, int], channel_ids: Iterable[int]
) -> None:
    """Refuse a queue-sizing assignment (``LisError``) that names a
    channel outside ``channel_ids`` or adds a negative token count."""
    unknown = set(extra).difference(channel_ids)
    if unknown:
        raise LisError(f"extra tokens on unknown channels: {sorted(unknown)}")
    for cid, tokens in extra.items():
        if tokens < 0:
            raise LisError(f"negative extra tokens on channel {cid}")


class LisGraph:
    """A netlist of shells and channels with queues and relay stations."""

    def __init__(self, default_queue: int = 1) -> None:
        if default_queue < 1:
            raise LisError("default queue capacity must be >= 1")
        self.system = Digraph()
        self.default_queue = default_queue
        self._frozen = False
        #: Content-derived values of a frozen graph (see :meth:`memo`).
        self._memo: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Freezing and content identity
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        """Whether this graph has been sealed against mutation."""
        return self._frozen

    def freeze(self) -> "LisGraph":
        """Seal the graph: every mutator raises :class:`LisError` from
        now on, which makes the instance safe to share (e.g. inside an
        :class:`repro.analysis.Context`) and lets it memoize what it
        derives from its content (:meth:`memo`).  Reaching past the
        mutators (``lis.system.add_edge``) breaks that contract.
        Returns ``self``."""
        self._frozen = True
        return self

    def memo(self, name: str, build: Callable[[], T]) -> T:
        """``build()``, computed once per frozen graph.

        For values derived from the content alone: the canonical JSON
        text, the fingerprint and the system SCC map.  A mutable graph
        builds afresh on every call.
        """
        if not self._frozen:
            return build()
        try:
            return self._memo[name]
        except KeyError:
            return self._memo.setdefault(name, build())

    def fingerprint(self) -> str:
        """Content fingerprint: the SHA-256 of the canonical JSON form
        (:func:`repro.core.serialize.lis_to_json`) -- the same bytes the
        analysis engine hashes for its cache key.  Cached once frozen.
        """
        from .serialize import lis_fingerprint, lis_to_json

        return self.memo("fingerprint", lambda: lis_fingerprint(lis_to_json(self)))

    def scc_map(self) -> dict[Hashable, int]:
        """Shell -> index of its SCC in the system graph
        (:func:`repro.graphs.scc_of`).  Cached once frozen and then
        shared by every caller: read it, never mutate it."""
        return self.memo("scc_map", lambda: scc_of(self.system))

    def _check_mutable(self) -> None:
        if self._frozen:
            raise LisError(
                "LisGraph is frozen; call copy() to get a mutable clone"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_shell(self, name: Hashable, latency: int = 1, **attrs) -> Hashable:
        """Add a shell-encapsulated core (idempotent).

        ``latency`` is the core's pipeline depth in clock periods (the
        paper's footnote 3: a three-stage multiplier has latency 3).
        In the marked-graph lowerings, a latency-L shell expands into
        the core transition followed by L-1 internal pipeline-stage
        transitions, each holding one datum -- so a feedback loop
        through the shell pays L places for its one token.
        """
        self._check_mutable()
        if latency < 1:
            raise LisError(f"core latency must be >= 1, got {latency}")
        return self.system.add_node(name, latency=latency, **attrs)

    def latency(self, shell: Hashable) -> int:
        """The core latency of ``shell`` (1 unless configured)."""
        return self.system.node_data(shell).get("latency", 1)

    def add_channel(
        self,
        src: Hashable,
        dst: Hashable,
        queue: int | None = None,
        relays: int = 0,
    ) -> int:
        """Add a point-to-point channel and return its channel id.

        Parallel channels between the same pair of shells are allowed
        (e.g. the two channels from A to B in the paper's Fig. 1).
        """
        self._check_mutable()
        q = self.default_queue if queue is None else queue
        if q < 1:
            raise LisError(f"queue capacity must be >= 1, got {q}")
        if relays < 0:
            raise LisError(f"relay count must be >= 0, got {relays}")
        return self.system.add_edge(src, dst, queue=q, relays=relays)

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[Hashable, Hashable]],
        queue: int = 1,
    ) -> "LisGraph":
        """Convenience constructor from ``(src, dst)`` pairs."""
        lis = cls(default_queue=queue)
        for src, dst in edges:
            lis.add_channel(src, dst)
        return lis

    def copy(self) -> "LisGraph":
        clone = LisGraph(default_queue=self.default_queue)
        clone.system = self.system.copy()
        return clone

    # ------------------------------------------------------------------
    # Channel manipulation
    # ------------------------------------------------------------------
    def channel(self, cid: int) -> Edge:
        return self.system.edge(cid)

    def channels(self) -> list[Edge]:
        return sorted(self.system.edges, key=lambda e: e.key)

    def channel_ids(self) -> list[int]:
        return [e.key for e in self.channels()]

    def shells(self) -> list[Hashable]:
        return list(self.system.nodes)

    def queue(self, cid: int) -> int:
        return self.channel(cid).data["queue"]

    def set_queue(self, cid: int, q: int) -> None:
        self._check_mutable()
        if q < 1:
            raise LisError(f"queue capacity must be >= 1, got {q}")
        self.channel(cid).data["queue"] = q

    def set_all_queues(self, q: int) -> None:
        """Fixed queue sizing: uniformly set every channel queue to ``q``."""
        self._check_mutable()
        for edge in self.system.edges:
            if q < 1:
                raise LisError(f"queue capacity must be >= 1, got {q}")
            edge.data["queue"] = q

    def relays(self, cid: int) -> int:
        return self.channel(cid).data["relays"]

    def insert_relay(self, cid: int, count: int = 1) -> None:
        """Insert ``count`` additional relay stations on a channel."""
        self._check_mutable()
        if count < 0:
            raise LisError("relay insertion count must be >= 0")
        self.channel(cid).data["relays"] += count

    def remove_relay(self, cid: int, count: int = 1) -> None:
        self._check_mutable()
        current = self.relays(cid)
        if count > current:
            raise LisError(
                f"cannot remove {count} relays from channel {cid} "
                f"holding {current}"
            )
        self.channel(cid).data["relays"] = current - count

    def total_relays(self) -> int:
        """Total number of relay stations in the system (``r`` in §IV)."""
        return sum(e.data["relays"] for e in self.system.edges)

    # ------------------------------------------------------------------
    # Lowering to marked graphs
    # ------------------------------------------------------------------
    def _pipeline_nodes(self, shell: Hashable) -> list[Hashable]:
        """Internal transition sequence of a shell: core, then stages."""
        stages = [
            stage_name(shell, i) for i in range(self.latency(shell) - 1)
        ]
        return [shell, *stages]

    def _tail(self, shell: Hashable) -> Hashable:
        """The transition that drives a shell's output channels: the
        last of :meth:`_pipeline_nodes`."""
        latency = self.latency(shell)
        return shell if latency == 1 else stage_name(shell, latency - 2)

    def _chain_nodes(self, channel: Edge) -> list[Hashable]:
        """Transition sequence along a channel: producer tail, relays,
        consumer core."""
        inner = [relay_name(channel.key, i) for i in range(channel.data["relays"])]
        return [self._tail(channel.src), *inner, channel.dst]

    def ideal_marked_graph(self) -> MarkedGraph:
        """The ideal LIS: infinite queues, no backpressure, forward places only."""
        mg = MarkedGraph()
        for shell in self.system.nodes:
            pipeline = self._pipeline_nodes(shell)
            mg.add_transition(shell, kind="shell")
            for stage in pipeline[1:]:
                mg.add_transition(stage, kind="stage")
            for i in range(len(pipeline) - 1):
                # Internal pipeline places start empty: the core's reset
                # output is already latched past the pipeline (it is the
                # initial token on the edges into the downstream shells).
                mg.add_place(
                    pipeline[i],
                    pipeline[i + 1],
                    tokens=0,
                    kind="fwd",
                    channel=("latency", shell),
                    segment=i,
                    internal=True,
                )
        for channel in self.channels():
            chain = self._chain_nodes(channel)
            for rs in chain[1:-1]:
                mg.add_transition(rs, kind="relay")
            for i in range(len(chain) - 1):
                head_is_shell = i == len(chain) - 2
                mg.add_place(
                    chain[i],
                    chain[i + 1],
                    tokens=1 if head_is_shell else 0,
                    kind="fwd",
                    channel=channel.key,
                    segment=i,
                )
        return mg

    def doubled_marked_graph(
        self,
        extra_tokens: dict[int, int] | None = None,
        ideal: MarkedGraph | None = None,
    ) -> MarkedGraph:
        """The practical LIS: forward places plus backpressure backedges.

        Args:
            extra_tokens: Optional queue-sizing solution mapping channel
                id -> extra tokens added on that channel's shell-side
                backedge (i.e. extra queue slots at the consumer shell,
                on top of the channel's configured queue capacity).
            ideal: This graph's :meth:`ideal_marked_graph`, to build on
                instead of lowering it again.  It is copied, never
                mutated; the result has the same place keys either way.

        Backedge token counts follow Fig. 3: the backedge of a forward
        segment whose consumer is a relay station holds
        :data:`RELAY_CAPACITY` tokens; the backedge of the final
        segment (consumer = shell) holds the channel's queue capacity.
        """
        extra = dict(extra_tokens or {})
        check_extra_tokens(extra, self.channel_ids())

        mg = self.ideal_marked_graph() if ideal is None else ideal.copy()
        for shell in self.system.nodes:
            pipeline = self._pipeline_nodes(shell)
            for i in range(len(pipeline) - 1):
                # Internal stages are elastic two-slot buffers, exactly
                # like relay stations: a single-slot register would
                # halve the sustainable rate under token semantics (the
                # classic reason relay stations carry an auxiliary
                # register), whereas two slots sustain rate 1 and stall
                # losslessly.
                mg.add_place(
                    pipeline[i + 1],
                    pipeline[i],
                    tokens=RELAY_CAPACITY,
                    kind="back",
                    channel=("latency", shell),
                    segment=i,
                    internal=True,
                    sizable=False,
                )
        for channel in self.channels():
            chain = self._chain_nodes(channel)
            for i in range(len(chain) - 1):
                consumer = chain[i + 1]
                head_is_shell = i == len(chain) - 2
                if head_is_shell:
                    tokens = channel.data["queue"] + extra.get(channel.key, 0)
                else:
                    tokens = RELAY_CAPACITY
                mg.add_place(
                    consumer,
                    chain[i],
                    tokens=tokens,
                    kind="back",
                    channel=channel.key,
                    segment=i,
                    sizable=head_is_shell,
                )
        return mg

    # ------------------------------------------------------------------
    # Introspection helpers used by the optimizers
    # ------------------------------------------------------------------
    def sizable_backedges(self, mg: MarkedGraph) -> dict[int, int]:
        """Map channel id -> place key of its shell-side backedge in ``mg``.

        Only valid for marked graphs produced by
        :meth:`doubled_marked_graph` on this LIS.
        """
        mapping: dict[int, int] = {}
        for place in mg.places:
            if place.data.get("kind") == "back" and place.data.get("sizable"):
                mapping[place.data["channel"]] = place.key
        return mapping

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LisGraph(shells={self.system.number_of_nodes()}, "
            f"channels={self.system.number_of_edges()}, "
            f"relays={self.total_relays()})"
        )
