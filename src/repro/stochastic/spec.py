"""Stochastic stall/service processes over latency-insensitive systems.

The deterministic analysis answers "what throughput does this queue
sizing sustain in the worst case?".  This module asks the question the
paper never does: what happens under *random* stalls and bursty
traffic, where the right answer is a distribution -- p50/p99/p999
latency per queue-sizing assignment -- rather than a single rate.

Every process reduces to the primitive :mod:`repro.faults` already
injects into all simulators: "node ``n`` may not fire at clock ``t``",
which is protocol-legal by construction (it is exactly how a shell
behaves when an input is void or a ``stop`` is asserted).  A
:class:`StochasticSpec` is a frozen, JSON-able description of how
those stall clocks are *drawn*:

========================= =============================================
kind                      stall process per target node
========================= =============================================
``bernoulli``             i.i.d. stall with probability ``rate`` per
                          clock
``burst``                 geometric-burst / Markov-modulated on-off:
                          stalled runs of mean length ``burst``
                          alternate with clear runs of mean ``gap``
``periodic``              deterministic period: ``burst`` stall clocks
                          every ``burst + gap``, fixed ``phase``
                          (zero variance -- every trial identical)
========================= =============================================

and *where* they land (``scope``):

* ``"all"``     -- every structural node, independent processes;
* ``"global"``  -- one shared process clock-gates **all** nodes
  simultaneously (modulated service: clock throttling, DVFS, a shared
  bus) -- the scope whose tail behaviour is *exactly* analyzable, see
  :mod:`repro.stochastic.tails`;
* ``"sources"`` -- environment sources only: a bursty **arrival
  envelope** in the sense of NoC buffer analysis (a source may only
  fire on arrival slots);
* ``"sinks"``   -- environment sinks only (a consumer that hiccups);
* ``"nodes"``   -- an explicit node list (matched against ``str``/
  ``repr`` so specs survive JSON round trips).

Sampling is NumPy-vectorized across Monte-Carlo trials and fully
deterministic in ``(spec contents, clocks, trials)``: the PCG64 stream
is seeded from a SHA-256 digest of the canonical spec JSON, so masks
are stable cache keys across runs and platforms.  Compiling specs
yields a :class:`~repro.faults.StallSchedule` with one draw per trial,
the same type fault specs compile to: its ``mask`` feeds
``BatchSimulator`` (trials as the batch axis) and its ``gate`` plugs
one trial into the reference simulators -- both views are slices of
the *same* sampled array, so cross-backend runs are bit-for-bit
comparable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

import numpy as np

from ..core.lis_graph import LisGraph
from ..core.naming import sink_shells, source_shells, structural_nodes
from ..faults.models import StallSchedule

__all__ = [
    "KINDS",
    "SCOPES",
    "StochasticSpec",
    "arrival_envelope",
    "bernoulli_stalls",
    "burst_stalls",
    "compile_stochastic",
    "periodic_stalls",
]

KINDS = ("bernoulli", "burst", "periodic")
SCOPES = ("all", "global", "sources", "sinks", "nodes")


@dataclass(frozen=True)
class StochasticSpec:
    """One seeded stochastic stall/service process (see module table).

    Attributes:
        kind: One of :data:`KINDS`.
        scope: One of :data:`SCOPES`; ``"nodes"`` requires ``nodes``.
        rate: Stall probability per clock (``bernoulli`` only).
        burst: Mean stalled-run length in clocks (``burst``), or the
            exact stall-run length (``periodic``).
        gap: Mean clear-run length in clocks (``burst``), or the exact
            clear-run length (``periodic``).
        phase: Deterministic phase offset of the ``periodic`` pattern.
        seed: Stream seed; two specs differing only in seed draw
            independent processes.
        nodes: Explicit target nodes for ``scope="nodes"``, matched
            against ``str(node)`` / ``repr(node)``.
    """

    kind: str
    scope: str = "all"
    rate: float = 0.1
    burst: float = 4.0
    gap: float = 12.0
    phase: int = 0
    seed: int = 0
    nodes: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown stochastic kind {self.kind!r} "
                f"(available: {', '.join(KINDS)})"
            )
        if self.scope not in SCOPES:
            raise ValueError(
                f"unknown scope {self.scope!r} "
                f"(available: {', '.join(SCOPES)})"
            )
        if self.scope == "nodes" and not self.nodes:
            raise ValueError('scope "nodes" requires a non-empty node list')
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")
        if self.burst < 1 or self.gap < 1:
            raise ValueError("burst and gap must be >= 1 clock")
        if self.phase < 0:
            raise ValueError("phase must be >= 0")

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------
    @property
    def stall_fraction(self) -> float:
        """Long-run fraction of clocks this process stalls a target."""
        if self.kind == "bernoulli":
            return float(self.rate)
        if self.kind == "burst":
            return self.burst / (self.burst + self.gap)
        period = int(self.burst) + int(self.gap)
        return int(self.burst) / period

    def is_deterministic(self) -> bool:
        """Whether the process has zero variance (every trial draws the
        identical stall pattern): ``periodic`` always, ``bernoulli``
        at rate 0 or 1, and ``burst`` never (geometric run lengths)."""
        if self.kind == "periodic":
            return True
        return self.kind == "bernoulli" and self.rate in (0.0, 1.0)

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        out: dict = {
            "kind": self.kind,
            "scope": self.scope,
            "rate": self.rate,
            "burst": self.burst,
            "gap": self.gap,
            "phase": self.phase,
            "seed": self.seed,
        }
        if self.nodes is not None:
            out["nodes"] = list(self.nodes)
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "StochasticSpec":
        nodes = data.get("nodes")
        return cls(
            kind=str(data["kind"]),
            scope=str(data.get("scope", "all")),
            rate=float(data.get("rate", 0.1)),
            burst=float(data.get("burst", 4.0)),
            gap=float(data.get("gap", 12.0)),
            phase=int(data.get("phase", 0)),
            seed=int(data.get("seed", 0)),
            nodes=None if nodes is None else tuple(str(n) for n in nodes),
        )

    def _digest(self) -> int:
        """A stable 64-bit seed-stream root for this spec's content."""
        text = json.dumps(self.as_dict(), sort_keys=True)
        raw = hashlib.sha256(b"repro-stochastic:" + text.encode()).digest()
        return int.from_bytes(raw[:8], "big")


def bernoulli_stalls(
    rate: float = 0.1, scope: str = "all", seed: int = 0
) -> StochasticSpec:
    """I.i.d. per-clock stalls with probability ``rate``."""
    return StochasticSpec("bernoulli", scope=scope, rate=rate, seed=seed)


def burst_stalls(
    burst: float = 4.0, gap: float = 12.0, scope: str = "all", seed: int = 0
) -> StochasticSpec:
    """Markov-modulated on-off stalls: geometric runs of mean ``burst``
    stalled / ``gap`` clear clocks."""
    return StochasticSpec("burst", scope=scope, burst=burst, gap=gap, seed=seed)


def periodic_stalls(
    burst: int = 1, gap: int = 3, phase: int = 0, scope: str = "all"
) -> StochasticSpec:
    """Deterministic-period service: ``burst`` stall clocks every
    ``burst + gap``, starting at ``phase`` (zero variance)."""
    return StochasticSpec(
        "periodic", scope=scope, burst=float(burst), gap=float(gap), phase=phase
    )


def arrival_envelope(
    rho: float, sigma: float = 4.0, seed: int = 0
) -> StochasticSpec:
    """A bursty arrival envelope at the environment sources.

    Arrivals come in on-runs of mean length ``sigma`` at long-run rate
    ``rho`` (the leaky-bucket pair of NoC buffer analysis); between
    bursts the sources see no valid input.  Compiles to a ``burst``
    process on ``scope="sources"`` whose *clear* runs are the arrival
    bursts: clear mean ``sigma``, stalled mean ``sigma * (1 - rho) /
    rho``.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError("arrival rate rho must be in (0, 1]")
    if sigma < 1:
        raise ValueError("burst size sigma must be >= 1")
    if rho == 1.0:
        # Degenerate: arrivals every clock, nothing to stall.
        return StochasticSpec("bernoulli", scope="sources", rate=0.0, seed=seed)
    off = max(1.0, sigma * (1.0 - rho) / rho)
    return StochasticSpec(
        "burst", scope="sources", burst=off, gap=float(sigma), seed=seed
    )


# ----------------------------------------------------------------------
# Target resolution and sampling
# ----------------------------------------------------------------------


def _targets(lis: LisGraph, spec: StochasticSpec) -> list[Hashable]:
    """The nodes one spec gates, sorted by repr (deterministic RNG
    consumption order, shared with :mod:`repro.faults`)."""
    nodes = structural_nodes(lis)
    if spec.scope in ("all", "global"):
        return nodes
    if spec.scope == "nodes":
        wanted = set(spec.nodes or ())
        return [n for n in nodes if str(n) in wanted or repr(n) in wanted]
    if spec.scope == "sources":
        return source_shells(lis)
    return sink_shells(lis)  # sinks


def _sample_processes(
    spec: StochasticSpec, clocks: int, trials: int, width: int
) -> np.ndarray:
    """``(clocks, trials, width)`` bool: ``width`` independent copies
    of the spec's process per trial (``width == 1`` for global scope).

    One PCG64 stream per spec content covers the whole (trials, width)
    block, which is what makes the batched draw vectorizable; the
    stream root folds in ``clocks``/``trials``/``width``, so a
    schedule is reproducible exactly by re-compiling with the same
    shape.
    """
    if spec.kind == "periodic":
        period = int(spec.burst) + int(spec.gap)
        t = np.arange(clocks)
        column = ((t + int(spec.phase)) % period) < int(spec.burst)
        return np.broadcast_to(
            column[:, None, None], (clocks, trials, width)
        ).copy()
    rng = np.random.default_rng(
        (spec._digest(), clocks, trials, width)
    )
    if spec.kind == "bernoulli":
        if spec.rate == 0.0:
            return np.zeros((clocks, trials, width), dtype=bool)
        if spec.rate == 1.0:
            return np.ones((clocks, trials, width), dtype=bool)
        return rng.random((clocks, trials, width)) < spec.rate
    # Markov-modulated on-off chain, initialized stationary; one flip
    # draw per (clock, trial, copy): stalled exits w.p. 1/burst, clear
    # enters w.p. 1/gap.
    p_exit = 1.0 / spec.burst
    p_enter = 1.0 / spec.gap
    flips = rng.random((clocks, trials, width))
    state = rng.random((trials, width)) < spec.stall_fraction
    out = np.empty((clocks, trials, width), dtype=bool)
    for t in range(clocks):
        out[t] = state
        leave = flips[t] < np.where(state, p_exit, p_enter)
        state = state ^ leave
    return out


def compile_stochastic(
    lis: LisGraph,
    specs: StochasticSpec | Iterable[StochasticSpec],
    clocks: int,
    trials: int = 1,
) -> StallSchedule:
    """Sample ``trials`` independent stall draws of ``specs`` against a
    concrete system (or :class:`repro.analysis.Context`).

    Deterministic in (system structure, specs, clocks, trials): the
    union of every component's samples over the structural node set.
    """
    if isinstance(specs, StochasticSpec):
        specs = (specs,)
    specs = tuple(specs)
    if clocks <= 0:
        raise ValueError("clocks must be positive")
    if trials <= 0:
        raise ValueError("trials must be positive")
    nodes = tuple(structural_nodes(lis))
    ordinal = {node: j for j, node in enumerate(nodes)}
    stalled = np.zeros((clocks, trials, len(nodes)), dtype=bool)
    for spec in specs:
        targets = _targets(lis, spec)
        if not targets:
            continue
        # A global spec draws one process and broadcasts it.
        width = 1 if spec.scope == "global" else len(targets)
        drawn = _sample_processes(spec, clocks, trials, width)
        if tuple(targets) == nodes:
            stalled |= drawn
        else:
            stalled[:, :, [ordinal[n] for n in targets]] |= drawn
    return StallSchedule(
        specs=specs,
        nodes=nodes,
        clocks=clocks,
        trials=trials,
        stalled=stalled,
    )
