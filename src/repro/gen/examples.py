"""Factories for the worked examples in the paper's figures.

Each function returns a :class:`~repro.core.lis_graph.LisGraph` (or a
marked graph) matching a specific figure, with the channel ids needed
by tests and benchmarks exposed via node/channel naming conventions.
These examples double as executable documentation: every quantitative
claim the paper makes about them is asserted in the test-suite.

:func:`named_system` is the one table of built-in systems by name,
shared by the command line and the analysis server.
"""

from __future__ import annotations

from typing import Callable

from ..core.lis_graph import LisGraph
from .generator import GeneratorError, mesh_lis

__all__ = [
    "EXAMPLES",
    "NAMED_SYSTEMS",
    "named_system",
    "fig1_lis",
    "fig2_left_lis",
    "fig2_right_lis",
    "fig15_lis",
    "fig10_limiter_lis",
    "uplink_downlink_lis",
    "ring_lis",
    "tree_lis",
]


def fig1_lis() -> LisGraph:
    """The running example of Figs. 1-2 (left): cores A and B.

    A feeds B over two channels; the *upper* channel is routed long and
    carries one relay station.  Channel ids: upper = 0, lower = 1.

    * Ideal MST = 1 (no feedback loop).
    * With backpressure and q = 1 everywhere, the MST degrades to 2/3
      (Fig. 5's critical cycle {A, relay station, B, A}).
    * Raising the lower channel's queue to 2 restores MST = 1 (Fig. 6).
    """
    lis = LisGraph()
    lis.add_shell("A")
    lis.add_shell("B")
    lis.add_channel("A", "B", relays=1)  # upper, pipelined
    lis.add_channel("A", "B")  # lower
    return lis


def fig2_left_lis() -> LisGraph:
    """Alias of :func:`fig1_lis`: the same system with backpressure in
    mind (backedges only materialize in the doubled marked graph)."""
    return fig1_lis()


def fig2_right_lis() -> LisGraph:
    """Fig. 2 (right): a second relay station inserted on the *lower*
    channel for performance, equalizing the two path latencies.

    With q = 1 the doubled graph now sustains MST = 1.
    """
    lis = fig1_lis()
    lis.insert_relay(1)  # lower channel
    return lis


def fig15_lis() -> LisGraph:
    """Fig. 15: the LIS where relay-station insertion cannot recover
    the ideal MST but queue sizing can.

    Channels (ids in parentheses):
        A->E with one relay station (0), E->D (1), D->C (2), C->B (3),
        B->A (4), A->C (5), C->E (6).

    * Ideal MST = 5/6, set by the cycle {A, rs, E, D, C, B}.
    * Doubled with q = 1, the cycle {A, rs, E, /C, /A} (backedges on
      the last two hops) has mean 3/4 < 5/6.
    * Inserting a relay station on (A,C) or (C,E) creates a new
      forward cycle of mean 3/4, so insertion alone cannot help.
    """
    lis = LisGraph()
    for shell in "ABCDE":
        lis.add_shell(shell)
    lis.add_channel("A", "E", relays=1)  # 0
    lis.add_channel("E", "D")  # 1
    lis.add_channel("D", "C")  # 2
    lis.add_channel("C", "B")  # 3
    lis.add_channel("B", "A")  # 4
    lis.add_channel("A", "C")  # 5
    lis.add_channel("C", "E")  # 6
    return lis


def fig10_limiter_lis() -> LisGraph:
    """Fig. 10: an isolated cycle with six places and five tokens.

    Realized as a ring of five shells with one relay station on the
    first channel; it pins the ideal MST of the NP-completeness
    construction to 5/6.  Shells are named ``lim0..lim4``.
    """
    lis = LisGraph()
    names = [f"lim{i}" for i in range(5)]
    for name in names:
        lis.add_shell(name)
    for i, name in enumerate(names):
        lis.add_channel(name, names[(i + 1) % 5], relays=1 if i == 0 else 0)
    return lis


def uplink_downlink_lis() -> LisGraph:
    """The introduction's motivating composition: an uplink subsystem
    with MST 3/4 feeding a downlink subsystem with MST 2/3.

    The uplink is a 3-ring with one relay station (3 tokens / 4
    places); the downlink is a 2-ring with one relay station (2 tokens
    / 3 places); a single channel connects them.  Without infinite
    queues the faster uplink would overflow the downlink, so
    backpressure is mandatory here.
    """
    lis = LisGraph()
    up = [f"u{i}" for i in range(3)]
    down = [f"d{i}" for i in range(2)]
    for name in up + down:
        lis.add_shell(name)
    for i, name in enumerate(up):
        lis.add_channel(name, up[(i + 1) % 3], relays=1 if i == 0 else 0)
    for i, name in enumerate(down):
        lis.add_channel(name, down[(i + 1) % 2], relays=1 if i == 0 else 0)
    lis.add_channel(up[0], down[0])
    return lis


def ring_lis(n: int, relays: int = 0, queue: int = 1) -> LisGraph:
    """A ring of ``n`` shells with ``relays`` relay stations on the
    closing channel.  Ideal MST = n / (n + relays), capped at 1."""
    if n < 1:
        raise ValueError("ring needs at least one shell")
    lis = LisGraph(default_queue=queue)
    names = [f"s{i}" for i in range(n)]
    for name in names:
        lis.add_shell(name)
    for i, name in enumerate(names):
        lis.add_channel(
            name, names[(i + 1) % n], relays=relays if i == n - 1 else 0
        )
    return lis


def tree_lis(depth: int, fanout: int = 2, relays_per_channel: int = 1) -> LisGraph:
    """A complete tree of shells, every channel pipelined.

    Trees have no reconvergent paths, so (Section IV-A) fixed q = 1
    suffices for zero MST degradation however many relay stations are
    inserted.  Node names are tuples encoding the path from the root.
    """
    lis = LisGraph()
    root = ("n",)
    lis.add_shell(root)
    frontier = [root]
    for _ in range(depth):
        next_frontier = []
        for parent in frontier:
            for i in range(fanout):
                child = parent + (i,)
                lis.add_shell(child)
                lis.add_channel(parent, child, relays=relays_per_channel)
                next_frontier.append(child)
        frontier = next_frontier
    return lis


#: The paper's worked examples under their command-line names.
EXAMPLES: dict[str, Callable[[], LisGraph]] = {
    "fig1": fig1_lis,
    "fig2-right": fig2_right_lis,
    "fig10": fig10_limiter_lis,
    "fig15": fig15_lis,
    "uplink-downlink": uplink_downlink_lis,
}

#: Every name :func:`named_system` resolves, for help and error texts.
NAMED_SYSTEMS = (*EXAMPLES, "cofdm", "fig19", "mesh:RxC", "torus:RxC")


def named_system(name: str) -> LisGraph | None:
    """The built-in system called ``name``, or ``None`` if there is none.

    Resolves the paper examples (:data:`EXAMPLES`), the SoC case
    studies (``cofdm``, ``fig19``) and NoC shorthands (``mesh:RxC`` /
    ``torus:RxC``); a malformed NoC shorthand raises ``ValueError``.
    Never reads a file: callers that accept paths fall back themselves.
    """
    if name in EXAMPLES:
        return EXAMPLES[name]()
    if name == "cofdm":
        from ..soc import cofdm_transmitter

        return cofdm_transmitter()
    if name == "fig19":
        from ..soc import fig19_scenario

        return fig19_scenario()
    for prefix, torus in (("mesh:", False), ("torus:", True)):
        if name.startswith(prefix):
            rows, _, cols = name[len(prefix):].partition("x")
            try:
                return mesh_lis(int(rows), int(cols), torus=torus)
            except (ValueError, GeneratorError) as exc:
                raise ValueError(
                    f"bad NoC spec {name!r} (want e.g. {prefix}4x4): {exc}"
                ) from None
    return None
