"""Maximal sustainable throughput (MST) analysis (paper, Section III-C).

The MST of a marked graph G is defined case-wise::

                | 1                          if G is acyclic
        theta = | min(1, 1/pi(G))            if G is strongly connected
                | min over SCC subgraphs     otherwise

where the cycle time ``pi(G)`` is the reciprocal of the minimum cycle
mean (tokens / places over cycles, unit delays).  Since an acyclic SCC
contributes throughput 1 and a cyclic SCC contributes its minimum
cycle mean (capped at 1), the three cases collapse to
``min(1, minimum-cycle-mean)`` -- but we keep the case analysis
explicit both for fidelity to the paper and to report *which* SCC and
which critical cycle limits the system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..graphs import Edge, strongly_connected_components
from ..graphs.mcm import critical_edges, minimum_cycle_mean, minimum_cycle_ratio
from .lis_graph import LisGraph
from .marked_graph import MarkedGraph, place_tokens

__all__ = [
    "ThroughputResult",
    "mst",
    "cycle_time",
    "mst_per_scc",
    "ideal_mst",
    "ideal_mst_compact",
    "actual_mst",
    "degradation_ratio",
]

ONE = Fraction(1)


@dataclass(frozen=True)
class ThroughputResult:
    """MST of a marked graph together with an explanation.

    Attributes:
        mst: The maximal sustainable throughput in [0, 1].
        critical: One critical cycle (list of places) when the MST is
            below 1, else ``None``.  The cycle's token/place ratio
            equals ``mst``.
        limiting_scc: The transitions of the witness critical cycle
            (``critical``), when one exists -- not its whole SCC.
    """

    mst: Fraction
    critical: list[Edge] | None = None
    limiting_scc: frozenset | None = None

    @property
    def is_degraded(self) -> bool:
        """True when the MST is strictly below the ideal rate of 1."""
        return self.mst < ONE


def mst(mg: MarkedGraph) -> ThroughputResult:
    """The MST of a marked graph, with a witness critical cycle."""
    result = minimum_cycle_mean(mg.graph, place_tokens, below=ONE)
    if result is None:
        # Acyclic graph, or every cycle sustains full rate.
        return ThroughputResult(mst=ONE)
    witness = result.cycle
    scc_nodes = frozenset(edge.src for edge in witness)
    return ThroughputResult(mst=result.mean, critical=witness, limiting_scc=scc_nodes)


def cycle_time(mg: MarkedGraph) -> Fraction | None:
    """The cycle time ``pi(G)`` = 1 / (minimum cycle mean).

    ``None`` for acyclic graphs (no cycle constrains the rate).  A zero
    minimum cycle mean (a token-free cycle: a deadlocked system) yields
    an infinite cycle time, reported as ``None`` as well -- callers
    should test :meth:`MarkedGraph.is_live` first.
    """
    result = minimum_cycle_mean(mg.graph, place_tokens)
    if result is None or result.mean == 0:
        return None
    return 1 / result.mean


def mst_per_scc(mg: MarkedGraph) -> dict[frozenset, Fraction]:
    """MST of each SCC subgraph (the paper's third case, itemized)."""
    out: dict[frozenset, Fraction] = {}
    for component in strongly_connected_components(mg.graph):
        sub = mg.graph.subgraph(component)
        result = minimum_cycle_mean(sub, place_tokens, below=ONE)
        out[frozenset(component)] = ONE if result is None else result.mean
    return out


def ideal_mst(lis: LisGraph) -> ThroughputResult:
    """MST of the ideal LIS (infinite queues, no backpressure).

    Accepts a plain :class:`LisGraph` (lowered afresh) or an
    :class:`repro.analysis.Context` (served from its artifact cache).
    """
    if hasattr(lis, "td_instance"):  # a repro.analysis.Context
        return lis.ideal_mst()
    return mst(lis.ideal_marked_graph())


def ideal_mst_compact(lis: LisGraph) -> Fraction:
    """Ideal MST computed directly on the system graph via the minimum
    cycle *ratio*, without expanding relay stations or core pipelines.

    Every channel on a forward cycle carries exactly one token (the
    consumer shell's initial latched datum) and costs ``relays +
    latency(consumer)`` clock periods to traverse, so the ideal MST is
    ``min(1, min over system cycles of hops / total latency)``.  Agrees
    with :func:`ideal_mst` on the expanded marked graph -- the
    test-suite asserts it -- while scaling independently of relay
    counts and pipeline depths.
    """
    result = minimum_cycle_ratio(
        lis.system,
        weight=lambda edge: 1,
        time=lambda edge: edge.data["relays"] + lis.latency(edge.dst),
        below=ONE,
    )
    return ONE if result is None else result.mean


def actual_mst(
    lis: LisGraph, extra_tokens: dict[int, int] | None = None
) -> ThroughputResult:
    """MST of the practical LIS (finite queues with backpressure).

    ``extra_tokens`` is an optional queue-sizing solution (channel id
    -> extra backedge tokens) applied on top of the configured queues.
    Accepts a plain :class:`LisGraph` or an
    :class:`repro.analysis.Context` (cached per extra-token key).
    """
    if hasattr(lis, "td_instance"):  # a repro.analysis.Context
        return lis.actual_mst(extra_tokens)
    return mst(lis.doubled_marked_graph(extra_tokens))


def bottleneck_channels(
    lis: LisGraph, extra_tokens: dict[int, int] | None = None
) -> set[int]:
    """Channels lying on some critical cycle of the practical LIS.

    These are the places where extra buffering (on backedges) or extra
    pipelining (on forward edges, when legal) could move the MST;
    everything else has slack.  Empty when the system already runs at
    rate 1.
    """
    # The MST is the minimum cycle mean whenever it is below 1; a
    # Context serves it, and its doubled lowering, from its memo
    # instead of searching a copy again.
    mean = actual_mst(lis, extra_tokens).mst
    if mean >= ONE:
        return set()
    mg = (
        lis.doubled_master(extra_tokens)
        if hasattr(lis, "doubled_master")
        else lis.doubled_marked_graph(extra_tokens)
    )
    keys = critical_edges(mg.graph, place_tokens, mean)
    channels: set[int] = set()
    for key in keys:
        data = mg.graph.edge(key).data
        if not data.get("internal"):
            channels.add(data["channel"])
    return channels


def degradation_ratio(
    lis: LisGraph, extra_tokens: dict[int, int] | None = None
) -> Fraction:
    """``actual / ideal`` MST; 1 means backpressure costs nothing."""
    ideal = ideal_mst(lis).mst
    if ideal == 0:
        raise ValueError("ideal LIS is deadlocked; degradation undefined")
    return actual_mst(lis, extra_tokens).mst / ideal
