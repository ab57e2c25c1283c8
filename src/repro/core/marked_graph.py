"""Timed marked graphs with step semantics (paper, Section III).

A marked graph ("decision-free Petri net") is the performance model of
a latency-insensitive system: transitions are shells / relay stations,
and every place has exactly one producer and one consumer transition.
That restriction lets us store a marked graph as a directed multigraph
whose *nodes are transitions* and whose *edges are places* -- exactly
the convention the paper adopts ("when we talk about an edge ... we
mean the two arcs and the (one) place between two transitions").

The class implements:

* construction with per-place initial markings;
* the synchronous **step semantics** of Section III-B, where every
  enabled transition fires concurrently in each step, so that steps
  can be indexed by clock periods;
* the classical marked-graph invariants used by the test-suite: the
  token count of every cycle is preserved by firing, and a marked
  graph is live iff every cycle carries at least one token.

All delays are one clock period (``d(t) = 1`` for every transition),
per the paper's synchronous model.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable

from ..graphs import Digraph, Edge
from ..graphs.mcm import minimum_cycle_mean

__all__ = ["MarkedGraph", "MarkingError", "place_tokens"]


class MarkingError(Exception):
    """Raised on invalid markings or firings."""


def place_tokens(place: Edge) -> int:
    """The token count stored on a place (an edge of the graph)."""
    return place.data["tokens"]


class MarkedGraph:
    """A timed marked graph with unit transition delays.

    Transitions are nodes of an internal :class:`Digraph`; places are
    edges carrying a ``tokens`` attribute.  Place keys are the edge
    keys, stable across copies.
    """

    def __init__(self) -> None:
        self.graph = Digraph()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_transition(self, name: Hashable, **attrs) -> Hashable:
        """Add a transition (idempotent)."""
        return self.graph.add_node(name, **attrs)

    def add_place(
        self, src: Hashable, dst: Hashable, tokens: int = 0, **attrs
    ) -> int:
        """Add a place from ``src`` to ``dst`` holding ``tokens``.

        Returns the place key.  Parallel places are permitted.
        """
        if tokens < 0:
            raise MarkingError(f"negative initial tokens: {tokens}")
        return self.graph.add_edge(src, dst, tokens=tokens, **attrs)

    def copy(self) -> "MarkedGraph":
        clone = MarkedGraph()
        clone.graph = self.graph.copy()
        return clone

    # ------------------------------------------------------------------
    # Marking access
    # ------------------------------------------------------------------
    @property
    def transitions(self) -> list[Hashable]:
        return list(self.graph.nodes)

    @property
    def places(self) -> list[Edge]:
        return list(self.graph.edges)

    def tokens(self, place_key: int) -> int:
        return self.graph.edge(place_key).data["tokens"]

    def set_tokens(self, place_key: int, tokens: int) -> None:
        if tokens < 0:
            raise MarkingError(f"negative tokens: {tokens}")
        self.graph.edge(place_key).data["tokens"] = tokens

    def add_tokens(self, place_key: int, delta: int) -> None:
        self.set_tokens(place_key, self.tokens(place_key) + delta)

    def marking(self) -> dict[int, int]:
        """The current marking as ``{place_key: tokens}``."""
        return {p.key: p.data["tokens"] for p in self.places}

    def set_marking(self, marking: dict[int, int]) -> None:
        for key, tokens in marking.items():
            self.set_tokens(key, tokens)

    def total_tokens(self) -> int:
        return sum(p.data["tokens"] for p in self.places)

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def is_enabled(self, transition: Hashable) -> bool:
        """A transition is enabled when every input place has a token."""
        return all(
            p.data["tokens"] >= 1 for p in self.graph.in_edges(transition)
        )

    def enabled_transitions(self) -> list[Hashable]:
        return [t for t in self.graph.nodes if self.is_enabled(t)]

    def fire(self, transition: Hashable) -> None:
        """Fire a single transition (interleaving semantics)."""
        if not self.is_enabled(transition):
            raise MarkingError(f"transition {transition!r} not enabled")
        for p in self.graph.in_edges(transition):
            p.data["tokens"] -= 1
        for p in self.graph.out_edges(transition):
            p.data["tokens"] += 1

    def step(self) -> set[Hashable]:
        """One synchronous step: fire *all* enabled transitions at once.

        Enabledness is evaluated against the marking at the start of the
        step, matching the paper's step semantics where a reaction is a
        single clock period.  Returns the set of transitions that fired.
        """
        fired = set(self.enabled_transitions())
        for t in fired:
            for p in self.graph.in_edges(t):
                p.data["tokens"] -= 1
        for t in fired:
            for p in self.graph.out_edges(t):
                p.data["tokens"] += 1
        return fired

    def run(self, steps: int) -> list[set[Hashable]]:
        """Run ``steps`` synchronous steps; returns the firing sets."""
        return [self.step() for _ in range(steps)]

    # ------------------------------------------------------------------
    # Classical properties
    # ------------------------------------------------------------------
    def is_live(self) -> bool:
        """Liveness: every directed cycle carries at least one token.

        (Commoner et al., 1971.)  Computed via the minimum cycle mean:
        the marked graph is live iff it is acyclic or the minimum
        token/place ratio over cycles is strictly positive.  Only means
        below 1 need searching: any mean of at least 1 is positive.
        """
        result = minimum_cycle_mean(self.graph, place_tokens, below=Fraction(1))
        return result is None or result.mean > 0

    def is_deadlocked(self) -> bool:
        """True when no transition is enabled."""
        return not self.enabled_transitions()

    def cycle_token_count(self, place_keys: Iterable[int]) -> int:
        """Token count along a cycle given by its place keys.

        This quantity is invariant under any firing sequence -- the
        fundamental marked-graph invariant the test-suite checks.
        """
        return sum(self.tokens(k) for k in place_keys)

    def cycle_mean(self, place_keys: Iterable[int]) -> Fraction:
        """Tokens / places along the given cycle (unit delays)."""
        keys = list(place_keys)
        if not keys:
            raise MarkingError("empty cycle")
        return Fraction(self.cycle_token_count(keys), len(keys))

    # ------------------------------------------------------------------
    # Long-run measurement
    # ------------------------------------------------------------------
    def measure_firing_rate(
        self, transition: Hashable, steps: int, warmup: int = 0
    ) -> Fraction:
        """Empirical firing rate of ``transition`` over a run.

        Runs ``warmup`` throwaway steps, then ``steps`` measured steps,
        mutating the marking.  For a strongly connected live marked
        graph this converges to the reciprocal of the cycle time, i.e.
        to the maximal sustainable throughput.
        """
        if steps <= 0:
            raise MarkingError("steps must be positive")
        self.run(warmup)
        count = sum(1 for fired in self.run(steps) if transition in fired)
        return Fraction(count, steps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MarkedGraph(transitions={self.graph.number_of_nodes()}, "
            f"places={self.graph.number_of_edges()}, "
            f"tokens={self.total_tokens()})"
        )
