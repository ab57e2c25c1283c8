"""Pipelining slack: how much wire pipelining is free?

Relay stations added to a channel on no forward cycle never hurt the
ideal MST; on a cycle, each station adds one place and no token, so a
cycle with ``t`` tokens and ``n`` places tolerates
``floor(t / theta) - n`` extra places before its mean drops below a
target ``theta``.  The *slack* of a channel is the minimum of that
quantity over all forward cycles through it -- the number of relay
stations physical design may drop onto its wires without lowering the
system's ideal throughput below the target.

With ``theta = p/q`` and each place weighted ``q*tokens - p``, a cycle
tolerates ``floor(W / p)`` extra places, ``W`` its weight.  Relay
transitions have one in-place and one out-place, so every cycle
through a channel passes through its first place ``u -> v``, and the
least ``W`` is that place's weight plus the shortest path from ``v``
back to ``u``.  At a target no higher than the ideal MST no cycle
weighs less than zero, so Dijkstra finds those paths under
Bellman--Ford potentials: one run per distinct head ``v``, in
polynomial time, where enumerating the cycles is exponential.

This closes the loop with :mod:`repro.physical`: channels with zero
slack are where a tighter floorplan (or a slower clock) is the only
way out, and channels with infinite slack can absorb any wire length.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from ..graphs import strongly_connected_components
from ..graphs.mcm import potentials, reduced_arcs
from .lis_graph import LisGraph
from .marked_graph import place_tokens
from .throughput import ideal_mst

__all__ = ["pipelining_slack", "channel_slack"]

#: Sentinel for "any number of relay stations is fine".
UNLIMITED = None


def _distances(
    adj: list[list[tuple[int, int]]], source: int, targets: set[int]
) -> dict[int, int]:
    """Dijkstra from ``source`` over non-negative ``adj``, stopped once
    every node of ``targets`` is settled."""
    dist = {source: 0}
    heap = [(0, source)]
    left = set(targets)
    while heap and left:
        d, x = heapq.heappop(heap)
        if d > dist[x]:
            continue
        left.discard(x)
        for y, w in adj[x]:
            cand = d + w
            if y not in dist or cand < dist[y]:
                dist[y] = cand
                heapq.heappush(heap, (cand, y))
    return dist


def pipelining_slack(
    lis: LisGraph,
    target: Fraction | None = None,
) -> dict[int, int | None]:
    """Per-channel relay-station budget at the given ideal-MST target.

    Returns ``{channel id: slack}`` where ``slack`` is the largest
    number of relay stations that can be *added* to that channel alone
    without the ideal MST dropping below ``target`` (default: the
    current ideal MST), or ``None`` for channels on no forward cycle
    (unlimited pipelining).  A ``target`` above the ideal MST raises
    :class:`ValueError`: the system already misses it.

    Note the budgets are per-channel: spending slack on one channel
    consumes the shared budget of every cycle through it, so budgets
    are not additive across channels of the same cycle.
    """
    goal = target if target is not None else ideal_mst(lis).mst
    if not 0 < goal <= 1:
        raise ValueError(f"target must be in (0, 1], got {goal}")

    # The expanded ideal marked graph prices in existing relay stations
    # and core pipelines.  A Context lends its cached lowering: read it,
    # never mutate it.
    mg = (
        lis.ideal_master()
        if hasattr(lis, "ideal_master")
        else lis.ideal_marked_graph()
    )
    index, arcs = reduced_arcs(mg.graph, place_tokens, goal)
    pot = potentials(len(index), arcs)
    if pot is None:
        raise ValueError(f"target {goal} is above the ideal MST")

    component = [0] * len(index)
    for i, members in enumerate(strongly_connected_components(mg.graph)):
        for node in members:
            component[index[node]] = i
    # Reweighted arcs inside each SCC (a path between two nodes of one
    # SCC never leaves it), all non-negative under the potentials.
    adj: list[list[tuple[int, int]]] = [[] for _ in index]
    # Head v -> (channel, tail u, weight) of first places u -> v that
    # some path closes into a cycle.
    firsts: dict[int, list[tuple[int, int, int]]] = {}
    for place, (u, v, w) in zip(mg.graph.edges, arcs):
        if component[u] != component[v]:
            continue
        adj[u].append((v, w + pot[u] - pot[v]))
        data = place.data
        if data["segment"] == 0 and not data.get("internal"):
            firsts.setdefault(v, []).append((data["channel"], u, w))

    slack: dict[int, int | None] = dict.fromkeys(lis.channel_ids(), UNLIMITED)
    for v, places in firsts.items():
        dist = _distances(adj, v, {u for _, u, _ in places})
        for cid, u, w in places:
            # Undo the reweighting: dist(v, u) = dist'(v, u) - pot[v] + pot[u].
            slack[cid] = (w + dist[u] - pot[v] + pot[u]) // goal.numerator
    return slack


def channel_slack(
    lis: LisGraph,
    cid: int,
    target: Fraction | None = None,
) -> int | None:
    """Slack of a single channel (see :func:`pipelining_slack`)."""
    if cid not in set(lis.channel_ids()):
        raise KeyError(f"no channel {cid}")
    return pipelining_slack(lis, target=target)[cid]
