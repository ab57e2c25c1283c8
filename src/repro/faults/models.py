"""Composable, seeded fault models for latency-insensitive systems.

The theory (paper Sections III/V) says a LIS is *functionally robust
by construction*: any pattern of stalls may slow the system down but
can never change the valid value stream, lose or duplicate a token, or
overflow a correctly sized queue.  This module turns "any pattern of
stalls" into concrete, reproducible attack schedules.

Every fault kind reduces to the same primitive -- "node ``n`` may not
fire at clock ``t``" -- which is exactly a clock-gate and therefore
always protocol-legal (it is how the shell itself behaves when an
input is void or a ``stop`` is asserted).  The kinds differ in *which*
nodes they target and *how* the stall clocks are drawn:

============================ ==========================================
kind                         interpretation
============================ ==========================================
``stall-random``             i.i.d. stalls on every structural node
``stall-bursty``             periodic stall bursts with random phases
``stall-adversarial``        coordinated blackouts on the critical
                             cycle (the schedule that actually probes
                             the queue-sizing bound)
``void-storm``               long windows where source shells receive
                             no valid input from the environment
``stop-glitch``              single-cycle ``stop`` assertions at sink
                             shells (the consumer hiccups)
``relay-jitter``             random extra latency at relay stations
============================ ==========================================

A :class:`FaultSpec` is a frozen, JSON-able description; compiling one
or more against a concrete system yields a one-trial
:class:`StallSchedule` (the type :mod:`repro.stochastic` samples into
as well) whose :meth:`~StallSchedule.gate` plugs into all three
simulators (``faults=`` of ``TraceSimulator``, ``RtlSimulator`` and
``FastSimulator``) and whose :meth:`~StallSchedule.mask` feeds the
vectorized kernel directly.  Schedules are finite (``clocks``, the
longest spec horizon): after the last injected stall the system must
recover, which is what makes the invariant harness's throughput check
decidable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping

from ..core.lis_graph import LisGraph
from ..core.naming import sink_shells, source_shells, structural_nodes
from ..lis.protocol import ShellBehavior

if TYPE_CHECKING:
    import numpy as np

    from ..sim.compile import CompiledSystem

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "StallSchedule",
    "build_schedule",
    "structural_nodes",
    "source_shells",
    "sink_shells",
    "default_behaviors",
    "random_stalls",
    "bursty_stalls",
    "adversarial_stalls",
    "void_storm",
    "stop_glitches",
    "relay_jitter",
]

FAULT_KINDS = (
    "stall-random",
    "stall-bursty",
    "stall-adversarial",
    "void-storm",
    "stop-glitch",
    "relay-jitter",
)

#: Modulus of the default arithmetic behaviours: large enough that
#: colliding values are implausible, small enough to stay in machine
#: ints.
PRIME = 1_000_003


@dataclass(frozen=True)
class FaultSpec:
    """One seeded fault component (see module table for the kinds).

    Attributes:
        kind: One of :data:`FAULT_KINDS`.
        seed: RNG seed; two specs differing only in seed draw
            independent schedules.
        horizon: Clocks ``[0, horizon)`` during which faults may be
            injected; the schedule is quiet afterwards.
        density: Stall probability per (node, clock) for the random
            kinds, intensity knob for the windowed kinds.
        burst: Stall-burst / blackout / storm length in clocks.
        gap: Fault-free clocks between bursts (``stall-bursty``).
        nodes: Optional explicit target nodes, matched against
            ``str(node)`` and ``repr(node)`` -- overrides the kind's
            default target set (so specs survive JSON round trips
            where tuple node names become strings).
    """

    kind: str
    seed: int = 0
    horizon: int = 48
    density: float = 0.2
    burst: int = 4
    gap: int = 8
    nodes: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            known = ", ".join(FAULT_KINDS)
            raise ValueError(
                f"unknown fault kind {self.kind!r} (available: {known})"
            )
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError("density must be within [0, 1]")
        if self.burst < 1 or self.gap < 0:
            raise ValueError("burst must be >= 1 and gap >= 0")

    def as_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "seed": self.seed,
            "horizon": self.horizon,
            "density": self.density,
            "burst": self.burst,
            "gap": self.gap,
        }
        if self.nodes is not None:
            out["nodes"] = list(self.nodes)
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultSpec":
        nodes = data.get("nodes")
        return cls(
            kind=str(data["kind"]),
            seed=int(data.get("seed", 0)),
            horizon=int(data.get("horizon", 48)),
            density=float(data.get("density", 0.2)),
            burst=int(data.get("burst", 4)),
            gap=int(data.get("gap", 8)),
            nodes=None if nodes is None else tuple(str(n) for n in nodes),
        )


def random_stalls(seed: int = 0, horizon: int = 48, density: float = 0.2) -> FaultSpec:
    """I.i.d. per-(node, clock) stalls on every structural node."""
    return FaultSpec("stall-random", seed=seed, horizon=horizon, density=density)


def bursty_stalls(
    seed: int = 0, horizon: int = 48, burst: int = 4, gap: int = 8
) -> FaultSpec:
    """Periodic stall bursts with a random phase per node."""
    return FaultSpec("stall-bursty", seed=seed, horizon=horizon, burst=burst, gap=gap)


def adversarial_stalls(
    seed: int = 0, horizon: int = 48, density: float = 0.3, burst: int = 6
) -> FaultSpec:
    """Coordinated blackouts concentrated on the critical cycle."""
    return FaultSpec(
        "stall-adversarial", seed=seed, horizon=horizon, density=density, burst=burst
    )


def void_storm(seed: int = 0, horizon: int = 48, burst: int = 8, density: float = 0.3) -> FaultSpec:
    """Long windows of void input at the source shells."""
    return FaultSpec("void-storm", seed=seed, horizon=horizon, burst=burst, density=density)


def stop_glitches(seed: int = 0, horizon: int = 48, density: float = 0.15) -> FaultSpec:
    """Single-cycle stop assertions at the sink shells."""
    return FaultSpec("stop-glitch", seed=seed, horizon=horizon, density=density)


def relay_jitter(seed: int = 0, horizon: int = 48, density: float = 0.25) -> FaultSpec:
    """Random extra forwarding latency at relay stations."""
    return FaultSpec("relay-jitter", seed=seed, horizon=horizon, density=density)


# structural_nodes / source_shells / sink_shells now live in
# repro.core.naming (one canonical node-naming module shared with the
# simulators, the stochastic layer, and the DSL lowering); they are
# re-exported here because fault specs are their historical home.


def _rng(spec: FaultSpec, salt: str = "") -> random.Random:
    return random.Random(f"repro-faults:{spec.kind}:{spec.seed}:{salt}")


def _targets(lis: LisGraph, spec: FaultSpec) -> list[Hashable]:
    """The node set a spec attacks (see the module table)."""
    nodes = structural_nodes(lis)
    if spec.nodes is not None:
        wanted = set(spec.nodes)
        return [
            n for n in nodes if str(n) in wanted or repr(n) in wanted
        ]
    if spec.kind in ("stall-random", "stall-bursty"):
        return nodes
    if spec.kind == "stall-adversarial":
        from ..core.throughput import actual_mst

        result = actual_mst(lis)
        if result.critical:
            crit = {e.src for e in result.critical} | {
                e.dst for e in result.critical
            }
            chosen = [n for n in nodes if n in crit]
            if chosen:
                return chosen
        return nodes
    if spec.kind == "void-storm":
        return source_shells(lis)
    if spec.kind == "stop-glitch":
        return sink_shells(lis)
    # relay-jitter
    return [
        n
        for n in nodes
        if isinstance(n, tuple) and len(n) == 3 and n[0] == "rs"
    ]


def _component_stalls(
    lis: LisGraph, spec: FaultSpec
) -> dict[Hashable, set[int]]:
    """The stall clocks one spec injects, per target node."""
    targets = _targets(lis, spec)
    horizon = spec.horizon
    stalls: dict[Hashable, set[int]] = {}
    if not targets or horizon == 0:
        return stalls
    if spec.kind in ("stall-random", "relay-jitter", "stop-glitch"):
        for node in targets:
            rng = _rng(spec, repr(node))
            clocks = {
                t for t in range(horizon) if rng.random() < spec.density
            }
            if clocks:
                stalls[node] = clocks
    elif spec.kind == "stall-bursty":
        period = spec.burst + spec.gap
        for node in targets:
            rng = _rng(spec, repr(node))
            phase = rng.randrange(period)
            clocks = {
                t for t in range(horizon) if (t + phase) % period < spec.burst
            }
            if clocks:
                stalls[node] = clocks
    elif spec.kind == "void-storm":
        # A few long storms per source, storm count scaled by density.
        storms = max(1, round(spec.density * 6))
        for node in targets:
            rng = _rng(spec, repr(node))
            clocks: set[int] = set()
            for _ in range(storms):
                start = rng.randrange(horizon)
                length = rng.randint(
                    spec.burst, max(spec.burst, horizon // 3)
                )
                clocks.update(range(start, min(horizon, start + length)))
            if clocks:
                stalls[node] = clocks
    else:  # stall-adversarial
        # One blackout window hitting the whole critical cycle at once,
        # plus concentrated random stalls on the same nodes.
        rng = _rng(spec, "blackout")
        start = rng.randrange(max(1, horizon - spec.burst + 1))
        blackout = set(range(start, min(horizon, start + spec.burst)))
        boosted = min(1.0, 2.0 * spec.density)
        for node in targets:
            node_rng = _rng(spec, repr(node))
            clocks = set(blackout)
            clocks.update(
                t for t in range(horizon) if node_rng.random() < boosted
            )
            if clocks:
                stalls[node] = clocks
    return stalls


@dataclass(frozen=True)
class StallSchedule:
    """Compiled stall specs: which node may not fire at which clock.

    The one stall schedule of the package.  :func:`build_schedule`
    compiles fault specs into a one-trial schedule;
    :func:`repro.stochastic.compile_stochastic` samples stochastic
    specs into ``trials`` independent draws.  ``stalled`` has shape
    ``(clocks, trials, len(nodes))``; ``stalled[t, k, j]`` gates
    ``nodes[j]`` at clock ``t`` of trial ``k``, and every clock from
    ``clocks`` on is quiet.  :meth:`mask` (vectorized kernel) and
    :meth:`gate` (callable backends) are views of that one array, so
    every backend sees the identical stall pattern.
    """

    specs: tuple
    nodes: tuple[Hashable, ...]
    clocks: int
    trials: int
    stalled: "np.ndarray"

    @property
    def total_stalls(self) -> int:
        return int(self.stalled.sum())

    @property
    def stall_fraction(self) -> float:
        """Observed fraction of stalled (node, clock, trial) slots."""
        import numpy as np

        size = self.stalled.size
        return np.count_nonzero(self.stalled) / size if size else 0.0

    def mask(
        self, compiled: "CompiledSystem", assignments: int = 1
    ) -> "np.ndarray":
        """The ``(clocks, B, n_nodes)`` stall mask for
        ``BatchSimulator.run`` with ``B = assignments * trials``
        configurations (trials innermost, the same trial samples
        repeated for every assignment -- common random numbers, so
        per-assignment curves are directly comparable).  It is a
        transposed view of ``(clocks, n_nodes, B)`` storage, the
        layout the kernel reads."""
        import numpy as np

        trials = self.trials
        out = np.zeros(
            (self.clocks, compiled.n_nodes, trials * assignments),
            dtype=bool,
        )
        index = compiled.node_index
        cols = [j for j, node in enumerate(self.nodes) if node in index]
        rows = [index[self.nodes[j]] for j in cols]
        out[:, rows, :trials] = self.stalled[:, :, cols].transpose(0, 2, 1)
        for a in range(1, assignments):
            out[:, :, a * trials : (a + 1) * trials] = out[:, :, :trials]
        return out.transpose(0, 2, 1)

    def gate(self, trial: int = 0):
        """Trial ``trial``'s fault gate ``(node, clock) -> bool`` for
        the simulators' ``faults=`` argument."""
        if not 0 <= trial < self.trials:
            raise IndexError(f"trial {trial} out of range")
        column = {node: j for j, node in enumerate(self.nodes)}
        rows = self.stalled[:, trial, :].tolist()
        clocks = self.clocks

        def _gate(node: Hashable, clock: int) -> bool:
            j = column.get(node)
            return j is not None and clock < clocks and rows[clock][j]

        return _gate

    def as_dicts(self) -> list[dict]:
        """The generating specs, JSON-able (engine op options)."""
        return [spec.as_dict() for spec in self.specs]


def build_schedule(
    lis: LisGraph,
    specs: FaultSpec | Iterable[FaultSpec],
) -> StallSchedule:
    """Compile fault specs against a concrete system (or
    :class:`repro.analysis.Context`): one trial, the union of every
    component's stalls, over the longest spec horizon.  Deterministic
    in (system, specs)."""
    import numpy as np

    if isinstance(specs, FaultSpec):
        specs = (specs,)
    specs = tuple(specs)
    nodes = tuple(structural_nodes(lis))
    ordinal = {node: j for j, node in enumerate(nodes)}
    horizon = max((spec.horizon for spec in specs), default=0)
    stalled = np.zeros((horizon, 1, len(nodes)), dtype=bool)
    for spec in specs:
        for node, clocks in _component_stalls(lis, spec).items():
            stalled[list(clocks), 0, ordinal[node]] = True
    return StallSchedule(
        specs=specs,
        nodes=nodes,
        clocks=horizon,
        trials=1,
        stalled=stalled,
    )


def default_behaviors(
    lis: LisGraph, seed: int = 0
) -> dict[Hashable, ShellBehavior]:
    """Seeded scalar-arithmetic behaviours for every shell: sources
    count in seeded strides, interior shells apply a seeded affine map
    to the sum of their inputs, all mod :data:`PRIME`.

    Unlike the default pass-through behaviour (which nests tuples
    exponentially around cycles), these keep values small and
    distinct, so stream comparisons in the invariant harness are both
    cheap and discriminating.  Behaviours are stateful (sources count)
    -- build a fresh dict per simulation run.
    """
    rng = random.Random(f"repro-faults:behaviors:{seed}")
    out: dict[Hashable, ShellBehavior] = {}
    for shell in sorted(lis.shells(), key=repr):
        in_degree = len(list(lis.system.in_edges(shell)))
        start = rng.randrange(PRIME)
        if in_degree == 0:
            step = rng.randrange(1, 9973)
            state = {"next": (start + step) % PRIME}

            def source_fn(_inputs, _state=state, _step=step):
                value = _state["next"]
                _state["next"] = (value + _step) % PRIME
                return value

            out[shell] = ShellBehavior(initial=start, fn=source_fn)
        else:
            a = rng.randrange(1, PRIME)
            b = rng.randrange(PRIME)

            def core_fn(inputs, _a=a, _b=b):
                total = sum(
                    v for v in inputs.values() if isinstance(v, int)
                )
                return (total * _a + _b) % PRIME

            out[shell] = ShellBehavior(initial=start, fn=core_fn)
    return out
