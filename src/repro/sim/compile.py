"""Compile a :class:`~repro.core.LisGraph` into flat kernel arrays.

The doubled marked graph is flattened once.  Every *place* becomes one
column, sorted by consumer transition, and one *slot* of a padded
per-node layout: with ``D`` the largest in-degree (at least 1), node
``v``'s input places sit in slots ``v*D ... v*D + indeg(v) - 1``, and
each remaining slot of its block is a padding self-loop of ``v``
holding one token.  The kernel keeps the marking as an (N*D, B) matrix
whose (N, D, B) view makes AND-firing one plain ``minimum.reduce``
over the middle axis (:mod:`repro.sim.kernel`), and the schedule
oracle's walk steps the same layout.  The compiled object also keeps
the column of each channel's shell-side ("sizable") backedge, which is
where queue-sizing assignments inject their extra tokens -- the batch
dimension of the kernel.  It carries tokens only: data values replay
through :meth:`repro.lis.trace_sim.TraceSimulator.fire`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from ..core.lis_graph import LisGraph, check_extra_tokens
from ..core.marked_graph import MarkedGraph

__all__ = ["CompiledSystem", "compile_lis"]


@dataclass(frozen=True)
class CompiledSystem:
    """A LIS lowered to flat arrays (one doubled-marked-graph place per
    column, sorted by consumer node index, then place key; one input
    slot per place in the kernel's padded per-node layout)."""

    #: Transition names in node-index order (shells, relays, stages).
    node_names: tuple[Hashable, ...]
    node_index: Mapping[Hashable, int]
    is_shell: tuple[bool, ...]
    #: Producer / consumer node index per place column, shape (P,).
    src: np.ndarray
    dst: np.ndarray
    #: Initial marking per place column, shape (P,).
    tokens0: np.ndarray
    #: Whether every place has a place running the other way between
    #: the same two nodes, as in every doubled graph (fwd and back).
    paired: bool
    #: Input slots per node ``D``: the largest in-degree, at least 1.
    slot_width: int
    #: Slot of each place column, shape (P,): node ``v``'s ``r``-th
    #: input column sits in slot ``v * slot_width + r``.
    place_slot: np.ndarray
    #: Producer / consumer node index per slot, shape (N * D,).  A
    #: padding slot's producer and consumer are both its own node.
    slot_src: np.ndarray
    slot_dst: np.ndarray
    #: Columns of shell-side forward places (the consumer queues whose
    #: peak occupancy :meth:`BatchRunResult.max_queue_occupancy` reports).
    occ_cols: np.ndarray
    #: Channel id per occupancy column.
    occ_channels: tuple[int, ...]
    #: Channel id -> column of its sizable backedge.
    sizable_col: Mapping[int, int]

    @property
    def n_places(self) -> int:
        return int(self.src.shape[0])

    @property
    def n_nodes(self) -> int:
        return len(self.node_names)

    @property
    def n_slots(self) -> int:
        return int(self.slot_src.shape[0])

    @property
    def occ_slots(self) -> np.ndarray:
        """The slots of the ``occ_cols`` columns, shape (K,)."""
        return self.place_slot[self.occ_cols]

    def initial_tokens(
        self, assignments: Sequence[Mapping[int, int]]
    ) -> np.ndarray:
        """The (B, P) initial marking for a batch of queue-sizing
        assignments (channel id -> extra tokens on its sizable
        backedge), validated like ``doubled_marked_graph``."""
        if not assignments:
            raise ValueError("empty assignment batch")
        tokens = np.tile(self.tokens0, (len(assignments), 1))
        for b, extra in enumerate(assignments):
            check_extra_tokens(extra, self.sizable_col)
            for cid, count in extra.items():
                tokens[b, self.sizable_col[cid]] += count
        return tokens

    def slot_marking(
        self,
        assignments: Sequence[Mapping[int, int]],
        horizon: int | None = None,
    ) -> np.ndarray:
        """The (S, B) initial marking of :meth:`initial_tokens` in the
        slot layout (padding slots hold one token), in the narrowest
        integer dtype that holds every place for ``horizon`` steps.

        Firing never changes the token count of a cycle.  So when every
        place lies on a 2-cycle (:attr:`paired`), none ever holds more
        than twice the largest start; otherwise none holds more than
        its start plus one token per step (``horizon=None``: no bound,
        int64).
        """
        places = self.initial_tokens(assignments)
        top = int(places.max(initial=1))
        if self.paired:
            peak = 2 * top
        else:
            peak = None if horizon is None else top + horizon
        if peak is None or peak > 32767:
            dtype = np.int64
        else:
            dtype = np.int16 if peak > 127 else np.int8
        tokens = np.ones((self.n_slots, len(assignments)), dtype=dtype)
        tokens[self.place_slot] = places.T
        return tokens


def compile_lis(lis: LisGraph, mg: "MarkedGraph | None" = None) -> CompiledSystem:
    """Flatten ``lis.doubled_marked_graph()`` into a :class:`CompiledSystem`.

    ``lis`` may be a plain :class:`LisGraph` (lowered here) or an
    :class:`repro.analysis.Context` (the cached compiled form is
    returned directly).  A pre-lowered doubled marked graph may be
    passed as ``mg`` to skip the lowering; it is only read.
    """
    if mg is None and hasattr(lis, "compiled"):  # a repro.analysis.Context
        return lis.compiled()
    if mg is None:
        mg = lis.doubled_marked_graph()
    graph = mg.graph
    node_names = tuple(graph.nodes)
    node_index = {name: i for i, name in enumerate(node_names)}
    is_shell = tuple(
        graph.node_data(name).get("kind") not in ("relay", "stage")
        for name in node_names
    )

    places = sorted(
        mg.places, key=lambda p: (node_index[p.dst], p.key)
    )
    src = np.array(
        [node_index[p.src] for p in places], dtype=np.int64
    ).reshape(-1)
    dst = np.array(
        [node_index[p.dst] for p in places], dtype=np.int64
    ).reshape(-1)
    tokens0 = np.array(
        [p.data["tokens"] for p in places], dtype=np.int64
    ).reshape(-1)

    width = max(1, int(np.bincount(dst, minlength=len(node_names)).max(initial=0)))
    # Columns are sorted by consumer, so a column's rank among its
    # node's inputs is its distance from that node's first column.
    place_slot = dst * width + np.arange(len(places)) - np.searchsorted(dst, dst)
    slot_src = np.repeat(np.arange(len(node_names), dtype=np.int64), width)
    slot_dst = slot_src.copy()
    slot_src[place_slot] = src
    slot_dst[place_slot] = dst
    ends = set(zip(src.tolist(), dst.tolist()))
    paired = all((v, u) in ends for u, v in ends)

    occ_cols: list[int] = []
    occ_channels: list[int] = []
    sizable_col: dict[int, int] = {}
    for col, place in enumerate(places):
        data = place.data
        if data["kind"] == "fwd":
            if not data.get("internal") and is_shell[node_index[place.dst]]:
                occ_cols.append(col)
                occ_channels.append(data["channel"])
        elif data.get("sizable"):
            sizable_col[data["channel"]] = col

    return CompiledSystem(
        node_names=node_names,
        node_index=node_index,
        is_shell=is_shell,
        src=src,
        dst=dst,
        tokens0=tokens0,
        paired=paired,
        slot_width=width,
        place_slot=place_slot,
        slot_src=slot_src,
        slot_dst=slot_dst,
        occ_cols=np.array(occ_cols, dtype=np.int64),
        occ_channels=tuple(occ_channels),
        sizable_col=sizable_col,
    )
