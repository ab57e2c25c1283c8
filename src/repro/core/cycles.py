"""Deficient-cycle analysis of doubled marked graphs (Section VII-A).

The queue-sizing machinery works cycle-by-cycle: a cycle of the
doubled graph is *deficient* (w.r.t. a target throughput, normally the
ideal MST) when its token/place ratio falls below the target; its
*deficit* is the number of extra tokens needed to lift it to the
target.  Extra tokens can only be added on *sizable* backedges (the
shell-side queue backedges -- relay-station capacity is fixed by the
hardware), so each cycle record carries the set of channels whose
queue could absorb its deficit.

The module also implements the paper's most powerful simplification
(rule 4 of Section VII-A): when the LIS is a DAG of SCCs and relay
stations sit only on inter-SCC channels, each SCC collapses to a
single vertex.  With baseline queues of one, every intra-SCC path of
the doubled graph has a token/place ratio of exactly one, so removing
it from a cycle changes neither the deficit nor the coverable
channels; the collapsed problem is *equivalent*, with exponentially
fewer cycles to enumerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from ..graphs import Edge, elementary_edge_cycles
from ..graphs.cycles import CycleExplosionError
from .lis_graph import LisGraph
from .marked_graph import MarkedGraph
from .topology import RelayPlacement, relay_placement

__all__ = [
    "CycleRecord",
    "cycle_records",
    "deficient_cycles",
    "CollapseError",
    "is_collapsible",
    "collapse_sccs",
    "CycleExplosionError",
]


@dataclass(frozen=True)
class CycleRecord:
    """One elementary cycle of a doubled marked graph.

    Attributes:
        places: Place keys along the cycle, in traversal order.
        tokens: Total tokens on the cycle in the initial marking.
        channels: Channels whose *sizable* backedge lies on this cycle
            (extra queue tokens on any of them raise this cycle's mean).
        node_path: The transitions visited, for reporting.
    """

    places: tuple[int, ...]
    tokens: int
    channels: frozenset[int]
    node_path: tuple

    @property
    def length(self) -> int:
        return len(self.places)

    @property
    def mean(self) -> Fraction:
        return Fraction(self.tokens, self.length)

    def deficit(self, target: Fraction) -> int:
        """Minimum extra tokens to reach ``(tokens + x) / length >= target``."""
        need = target * self.length - self.tokens
        if need <= 0:
            return 0
        return -((-need.numerator) // need.denominator)  # ceil for Fraction


def _record_from_edges(cycle: list[Edge]) -> CycleRecord:
    tokens = sum(e.data["tokens"] for e in cycle)
    channels = frozenset(
        e.data["channel"]
        for e in cycle
        if e.data.get("kind") == "back" and e.data.get("sizable")
    )
    return CycleRecord(
        places=tuple(e.key for e in cycle),
        tokens=tokens,
        channels=channels,
        node_path=tuple(e.src for e in cycle),
    )


def cycle_records(
    mg: MarkedGraph, max_cycles: int | None = None
) -> list[CycleRecord]:
    """All elementary cycles of ``mg`` as :class:`CycleRecord` objects."""
    return [
        _record_from_edges(cycle)
        for cycle in elementary_edge_cycles(mg.graph, max_cycles=max_cycles)
    ]


def deficient_cycles(
    mg: MarkedGraph,
    target: Fraction,
    max_cycles: int | None = None,
) -> list[CycleRecord]:
    """Cycles of ``mg`` whose mean is strictly below ``target``.

    This applies the paper's first simplification: cycles already at or
    above the target (in particular all-forward cycles without relay
    stations and pure edge/backedge pairs) are discarded immediately.
    """
    return [
        record
        for record in cycle_records(mg, max_cycles=max_cycles)
        if record.mean < target
    ]


class CollapseError(Exception):
    """Raised when the SCC-collapse simplification does not apply."""


def is_collapsible(lis: LisGraph) -> bool:
    """True when rule 4 applies: relay stations only between SCCs, and
    no pipelined core.

    A core of latency L carries L - 1 internal stages, which act like
    relay stations on every path through it; contracting its SCC
    would drop them, so a reconvergence through a pipelined core could
    look balanced when it is not.  The simplification is exact when
    all baseline queues are one (the usual starting point of queue
    sizing); with larger baseline queues it remains sound but may
    over-estimate deficits.
    """
    return relay_placement(lis) in (
        RelayPlacement.NONE,
        RelayPlacement.INTER_SCC,
    ) and all(lis.latency(shell) == 1 for shell in lis.shells())


def collapse_sccs(lis: LisGraph) -> tuple[LisGraph, dict[int, int]]:
    """Collapse each SCC of ``lis`` to a single shell.

    Returns ``(collapsed, channel_map)`` where ``channel_map`` sends
    each channel id of the collapsed LIS to the originating channel id
    of ``lis``.  Only inter-SCC channels survive; a queue-sizing
    solution found on the collapsed system maps back through
    ``channel_map`` and is a valid (and, for q = 1 baselines, optimal)
    solution of the original.

    Raises :class:`CollapseError` if relay stations exist inside SCCs
    or a core is pipelined (see :func:`is_collapsible`).
    """
    if not is_collapsible(lis):
        raise CollapseError(
            "SCC collapse requires relay stations only on inter-SCC "
            "channels and no pipelined cores"
        )
    mapping = lis.scc_map()
    collapsed = LisGraph(default_queue=lis.default_queue)
    for node in lis.system.nodes:
        collapsed.add_shell(("scc", mapping[node]))
    channel_map: dict[int, int] = {}
    for channel in lis.channels():
        a, b = mapping[channel.src], mapping[channel.dst]
        if a == b:
            continue  # intra-SCC channel: absorbed by the collapse
        new_cid = collapsed.add_channel(
            ("scc", a),
            ("scc", b),
            queue=channel.data["queue"],
            relays=channel.data["relays"],
        )
        channel_map[new_cid] = channel.key
    return collapsed, channel_map


def total_extra_tokens(extra: dict[int, int] | Iterable[tuple[int, int]]) -> int:
    """Sum of a queue-sizing solution's extra tokens (its cost)."""
    if isinstance(extra, dict):
        return sum(extra.values())
    return sum(v for _, v in extra)
