"""Pipelining slack: how much wire pipelining is free?

Relay stations added to a channel on no forward cycle never hurt the
ideal MST; on a cycle, each station adds one place and no token, so a
cycle with ``t`` tokens and ``p`` places tolerates
``floor(t / theta) - p`` extra places before its mean drops below a
target ``theta``.  The *slack* of a channel is the minimum of that
quantity over all forward cycles through it -- the number of relay
stations physical design may drop onto its wires without lowering the
system's ideal throughput below the target.

This closes the loop with :mod:`repro.physical`: channels with zero
slack are where a tighter floorplan (or a slower clock) is the only
way out, and channels with infinite slack can absorb any wire length.
"""

from __future__ import annotations

from fractions import Fraction

from ..graphs import elementary_edge_cycles
from .lis_graph import LisGraph
from .throughput import ideal_mst

__all__ = ["pipelining_slack", "channel_slack"]

#: Sentinel for "any number of relay stations is fine".
UNLIMITED = None


def _forward_cycle_budget(
    tokens: int, places: int, target: Fraction
) -> int:
    """Extra places a cycle tolerates while keeping mean >= target."""
    # max x with tokens / (places + x) >= target  <=>  x <= tokens/target - places
    limit = Fraction(tokens, 1) / target - places
    return max(0, limit.numerator // limit.denominator)


def pipelining_slack(
    lis: LisGraph,
    target: Fraction | None = None,
    max_cycles: int | None = None,
) -> dict[int, int | None]:
    """Per-channel relay-station budget at the given ideal-MST target.

    Returns ``{channel id: slack}`` where ``slack`` is the largest
    number of relay stations that can be *added* to that channel alone
    without the ideal MST dropping below ``target`` (default: the
    current ideal MST), or ``None`` for channels on no forward cycle
    (unlimited pipelining).

    Note the budgets are per-channel: spending slack on one channel
    consumes the shared budget of every cycle through it, so budgets
    are not additive across channels of the same cycle.
    """
    goal = target if target is not None else ideal_mst(lis).mst
    if not 0 < goal <= 1:
        raise ValueError(f"target must be in (0, 1], got {goal}")

    # Work on the expanded ideal marked graph so existing relay
    # stations and core pipelines are already priced in; attribute each
    # cycle to the channels it traverses.
    mg = lis.ideal_marked_graph()
    slack: dict[int, int | None] = {
        cid: UNLIMITED for cid in lis.channel_ids()
    }
    for cycle in elementary_edge_cycles(mg.graph, max_cycles=max_cycles):
        tokens = sum(place.data["tokens"] for place in cycle)
        budget = _forward_cycle_budget(tokens, len(cycle), goal)
        channels = {
            place.data["channel"]
            for place in cycle
            if not place.data.get("internal")
        }
        for cid in channels:
            current = slack[cid]
            if current is UNLIMITED or budget < current:
                slack[cid] = budget
    return slack


def channel_slack(
    lis: LisGraph,
    cid: int,
    target: Fraction | None = None,
    max_cycles: int | None = None,
) -> int | None:
    """Slack of a single channel (see :func:`pipelining_slack`)."""
    if cid not in set(lis.channel_ids()):
        raise KeyError(f"no channel {cid}")
    return pipelining_slack(lis, target=target, max_cycles=max_cycles)[cid]
