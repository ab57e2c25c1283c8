"""Random LIS generation (paper, Section VIII).

The generator takes the paper's parameters:

* ``v``  -- number of vertices (shells),
* ``s``  -- number of SCCs,
* ``c``  -- minimum number of extra cycles (chords) per SCC,
* ``rs`` -- number of relay stations to insert,
* ``rp`` -- whether reconvergent paths between SCCs are allowed,
* ``policy`` -- relay-station placement: ``"any"`` edge, or ``"scc"``
  (only edges between SCCs),

and produces a :class:`~repro.core.lis_graph.LisGraph` by the paper's
five steps: partition vertices into SCCs; give each SCC a Hamiltonian
cycle plus ``c`` chords; connect the SCCs with a random
connected DAG (a tree when ``rp = 0``); realize each inter-SCC edge
with a channel between random member vertices; and sprinkle the relay
stations over the edges the policy allows.

All randomness flows through a caller-supplied seed, making every
experiment in :mod:`benchmarks` reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.lis_graph import LisGraph

__all__ = [
    "GeneratorConfig",
    "generate_lis",
    "GeneratorError",
    "mesh_lis",
    "torus_lis",
]


class GeneratorError(Exception):
    """Raised when the requested parameters are unsatisfiable."""


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of the Section VIII random-graph generator.

    Attributes mirror the paper's inputs; ``queue`` sets the uniform
    baseline queue capacity and ``seed`` fixes the random stream.
    """

    v: int = 50
    s: int = 5
    c: int = 5
    rs: int = 10
    rp: bool = True
    policy: str = "scc"
    queue: int = 1
    seed: int | None = None

    def validate(self) -> None:
        if self.s < 1:
            raise GeneratorError("need at least one SCC")
        if self.v < 2 * self.s:
            raise GeneratorError(
                f"need v >= 2*s to give every SCC a cycle (v={self.v}, s={self.s})"
            )
        if self.c < 0 or self.rs < 0:
            raise GeneratorError("c and rs must be non-negative")
        if self.policy not in ("any", "scc"):
            raise GeneratorError(f"unknown policy {self.policy!r}")
        if self.policy == "scc" and self.s < 2 and self.rs > 0:
            raise GeneratorError(
                "policy 'scc' needs at least two SCCs to place relays"
            )
        if self.queue < 1:
            raise GeneratorError("queue must be >= 1")


def _partition_vertices(
    rng: random.Random, v: int, s: int
) -> list[list[str]]:
    """Step 1: split shells ``n0..n{v-1}`` into s groups of size >= 2."""
    names = [f"n{i}" for i in range(v)]
    rng.shuffle(names)
    # Give every SCC two vertices, then deal the rest randomly.
    sizes = [2] * s
    for _ in range(v - 2 * s):
        sizes[rng.randrange(s)] += 1
    groups: list[list[str]] = []
    start = 0
    for size in sizes:
        groups.append(names[start : start + size])
        start += size
    return groups


def _build_scc(
    rng: random.Random, lis: LisGraph, members: list[str], chords: int
) -> list[int]:
    """Step 2: Hamiltonian cycle plus up to ``chords`` chord channels.

    Returns the channel ids created.  Chords are distinct ordered pairs
    not already used; when the SCC is too small to host all requested
    chords (the paper's "as long as there are enough possible edges"),
    the available ones are used.
    """
    created: list[int] = []
    order = list(members)
    rng.shuffle(order)
    used: set[tuple[str, str]] = set()
    for i, src in enumerate(order):
        dst = order[(i + 1) % len(order)]
        created.append(lis.add_channel(src, dst))
        used.add((src, dst))
    candidates = [
        (u, w)
        for u in members
        for w in members
        if u != w and (u, w) not in used
    ]
    rng.shuffle(candidates)
    for u, w in candidates[:chords]:
        created.append(lis.add_channel(u, w))
        used.add((u, w))
    return created


def _connect_sccs(
    rng: random.Random,
    lis: LisGraph,
    groups: list[list[str]],
    rp: bool,
) -> list[int]:
    """Steps 3-4: a connected DAG over SCCs, realized as channels.

    SCC indices are ordered by a random topological permutation, so
    every added edge points forward and no inter-SCC cycle can form.
    Without reconvergent paths the auxiliary graph is a random tree;
    with ``rp`` set, extra forward edges are added, which creates
    reconvergence with high probability.
    """
    s = len(groups)
    if s == 1:
        return []
    topo = list(range(s))
    rng.shuffle(topo)
    position = {scc: i for i, scc in enumerate(topo)}

    aux_edges: list[tuple[int, int]] = []
    connected = {topo[0]}
    for scc in topo[1:]:
        other = rng.choice(sorted(connected))
        a, b = (other, scc) if position[other] < position[scc] else (scc, other)
        aux_edges.append((a, b))
        connected.add(scc)
    if rp:
        # Calibrated to the paper's Table IV averages: ~12 inter-SCC
        # edges for s = 10 and ~25 for s = 20 (tree edges + extras).
        extra = rng.randint(2, max(2, s // 3 + 1))
        existing = set(aux_edges)
        for _ in range(extra):
            a, b = rng.sample(range(s), 2)
            if position[a] > position[b]:
                a, b = b, a
            if (a, b) in existing:
                continue
            existing.add((a, b))
            aux_edges.append((a, b))

    created = []
    for a, b in aux_edges:
        src = rng.choice(groups[a])
        dst = rng.choice(groups[b])
        created.append(lis.add_channel(src, dst))
    return created


def mesh_lis(
    rows: int,
    cols: int,
    queue: int = 1,
    torus: bool = False,
    relays: int = 0,
    queue_choices: list[int] | None = None,
    seed: int | None = 0,
) -> LisGraph:
    """A ``rows x cols`` mesh NoC as a LIS: one shell per router
    (named ``m{r}_{c}``), one channel per directed link between
    4-neighbours, optionally wrapped into a torus.

    The workload axis this feeds (:mod:`repro.stochastic`) follows the
    wormhole-NoC buffer analyses: ``queue_choices`` draws each link's
    queue capacity from a list (heterogeneous per-channel buffers)
    and ``relays`` sprinkles relay stations over random links (long
    wires segmented for frequency).  Both draws -- the only
    randomness -- flow through ``seed``, so equal parameters give
    fingerprint-identical systems (pinned by the seed-stability
    suite).  Wrap links are skipped along a dimension shorter than 3,
    where they would duplicate an existing link or form a self-loop.
    """
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise GeneratorError("mesh needs at least two routers")
    if relays < 0:
        raise GeneratorError("relays must be non-negative")
    if queue < 1 or (queue_choices is not None and min(queue_choices) < 1):
        raise GeneratorError("queue capacities must be >= 1")
    rng = random.Random(seed)
    lis = LisGraph(default_queue=queue)
    for r in range(rows):
        for c in range(cols):
            lis.add_shell(f"m{r}_{c}")
    channels: list[int] = []

    def link(a: str, b: str) -> None:
        channels.append(lis.add_channel(a, b))
        channels.append(lis.add_channel(b, a))

    for r in range(rows):
        for c in range(cols):
            here = f"m{r}_{c}"
            if c + 1 < cols:
                link(here, f"m{r}_{c + 1}")
            elif torus and cols >= 3:
                link(here, f"m{r}_0")
            if r + 1 < rows:
                link(here, f"m{r + 1}_{c}")
            elif torus and rows >= 3:
                link(here, f"m0_{c}")
    if queue_choices:
        for cid in channels:
            lis.set_queue(cid, rng.choice(queue_choices))
    for _ in range(relays):
        lis.insert_relay(rng.choice(channels))
    return lis


def torus_lis(
    rows: int,
    cols: int,
    queue: int = 1,
    relays: int = 0,
    queue_choices: list[int] | None = None,
    seed: int | None = 0,
) -> LisGraph:
    """:func:`mesh_lis` with wrap-around links (``torus=True``)."""
    return mesh_lis(
        rows,
        cols,
        queue=queue,
        torus=True,
        relays=relays,
        queue_choices=queue_choices,
        seed=seed,
    )


def generate_lis(config: GeneratorConfig) -> LisGraph:
    """Generate a random LIS per the paper's Section VIII procedure."""
    config.validate()
    rng = random.Random(config.seed)
    lis = LisGraph(default_queue=config.queue)

    groups = _partition_vertices(rng, config.v, config.s)
    intra: list[int] = []
    for members in groups:
        intra.extend(_build_scc(rng, lis, members, config.c))
    inter = _connect_sccs(rng, lis, groups, config.rp)

    eligible = inter if config.policy == "scc" else intra + inter
    if config.rs > 0 and not eligible:
        raise GeneratorError("no eligible channels for relay insertion")
    for _ in range(config.rs):
        lis.insert_relay(rng.choice(eligible))
    return lis
