"""The one-stop analysis report for a LIS.

Bundles everything a designer asks about a system into one structured
object with a text rendering: topology class, ideal vs practical MST,
the limiting critical cycle, per-channel bottleneck/slack status, and
the recommended queue-sizing fix.  The CLI's ``analyze --full`` uses
it; library users get the structured fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lis_graph import LisGraph
from .slack import pipelining_slack
from .solvers import QsSolution, size_queues
from .throughput import bottleneck_channels
from .topology import (
    RelayPlacement,
    TopologyClass,
    classify_topology,
    relay_placement,
)

__all__ = ["AnalysisReport", "analyze"]


@dataclass(frozen=True)
class AnalysisReport:
    """Structured full analysis of a LIS."""

    shells: int
    channels: int
    relay_stations: int
    topology: TopologyClass
    placement: RelayPlacement
    ideal: Fraction
    practical: Fraction
    critical_path: tuple | None
    bottlenecks: frozenset[int]
    slack: dict[int, int | None]
    fix: QsSolution | None

    @property
    def degraded(self) -> bool:
        return self.practical < self.ideal

    def render(self, lis: LisGraph) -> str:
        """Human-readable multi-section report."""
        lines = [
            "System",
            f"  shells / channels / relay stations: "
            f"{self.shells} / {self.channels} / {self.relay_stations}",
            f"  topology: {self.topology.value}"
            f" (relays {self.placement.value})",
            "",
            "Throughput",
            f"  ideal MST:     {self.ideal} ({float(self.ideal):.4f})",
            f"  practical MST: {self.practical}"
            f" ({float(self.practical):.4f})",
        ]
        if self.critical_path:
            lines.append(
                "  critical cycle: "
                + " -> ".join(str(n) for n in self.critical_path)
            )
        lines.append("")
        lines.append("Channels")
        for channel in lis.channels():
            cid = channel.key
            flags = []
            if cid in self.bottlenecks:
                flags.append("BOTTLENECK")
            slack = self.slack.get(cid)
            slack_text = "inf" if slack is None else str(slack)
            lines.append(
                f"  {cid:>3} {channel.src} -> {channel.dst}"
                f"  q={channel.data['queue']}"
                f" rs={channel.data['relays']}"
                f" slack={slack_text}"
                + ("  [" + ",".join(flags) + "]" if flags else "")
            )
        if self.fix is not None and self.fix.cost:
            lines.append("")
            lines.append(
                f"Recommended queue sizing ({self.fix.method}, "
                f"{self.fix.cost} tokens -> MST {self.fix.achieved})"
            )
            for cid, tokens in sorted(self.fix.extra_tokens.items()):
                channel = lis.channel(cid)
                lines.append(
                    f"  channel {cid} ({channel.src} -> {channel.dst}): "
                    f"+{tokens}"
                )
        return "\n".join(lines)


def analyze(
    lis: LisGraph,
    method: str = "heuristic",
    max_cycles: int | None = None,
) -> AnalysisReport:
    """Run the full analysis pipeline on ``lis`` (not mutated).

    Accepts a :class:`LisGraph` or an :class:`repro.analysis.Context`;
    a plain graph is wrapped in a shared context so the report's MSTs,
    bottlenecks, slack and sizing fix all work off one pair of
    lowerings and one cycle enumeration.  ``max_cycles`` bounds the
    queue-sizing enumeration; slack enumerates nothing.
    """
    from ..analysis import get_context

    ctx = get_context(lis)
    ideal = ctx.ideal_mst()
    practical = ctx.actual_mst()
    fix = None
    if practical.mst < ideal.mst:
        fix = size_queues(ctx, method=method, max_cycles=max_cycles)
    critical_path = None
    if practical.critical is not None:
        critical_path = tuple(p.src for p in practical.critical)
    return AnalysisReport(
        shells=ctx.system.number_of_nodes(),
        channels=len(ctx.channels()),
        relay_stations=ctx.total_relays(),
        topology=classify_topology(ctx.lis),
        placement=relay_placement(ctx.lis),
        ideal=ideal.mst,
        practical=practical.mst,
        critical_path=critical_path,
        bottlenecks=frozenset(bottleneck_channels(ctx)),
        slack=pipelining_slack(ctx),
        fix=fix,
    )
