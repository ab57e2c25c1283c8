"""Shared hypothesis strategies for the test-suite."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core import LisGraph
from repro.graphs import Digraph
from repro.lis import ShellBehavior

#: Modulus keeping arithmetic core values bounded (deep pass-through
#: tuples are exponential to compare on cyclic systems; scalars are not).
PRIME = 1_000_003


@st.composite
def digraphs(
    draw,
    max_nodes: int = 8,
    max_edges: int = 20,
    allow_self_loops: bool = True,
    allow_parallel: bool = True,
    min_nodes: int = 1,
):
    """A random :class:`Digraph` with integer nodes ``0..n-1``.

    The edge count is drawn first and honoured exactly: edges come
    from filtered draws over the admissible endpoint pairs, so ``m``
    requested edges means ``m`` edges whenever the constraints make
    that feasible (no silent drop-on-conflict skew).
    """
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    pairs = [
        (src, dst)
        for src in range(n)
        for dst in range(n)
        if allow_self_loops or src != dst
    ]
    cap = max_edges if allow_parallel else min(max_edges, len(pairs))
    if not pairs:
        cap = 0
    m = draw(st.integers(min_value=0, max_value=cap))
    g = Digraph()
    for i in range(n):
        g.add_node(i)
    if m:
        chosen = draw(
            st.lists(
                st.sampled_from(pairs),
                min_size=m,
                max_size=m,
                unique=not allow_parallel,
            )
        )
        for src, dst in chosen:
            g.add_edge(src, dst)
    return g


@st.composite
def weighted_digraphs(
    draw, max_nodes: int = 7, max_edges: int = 16, min_weight: int = 0
):
    """A random Digraph whose edges carry small int weights in
    ``[min_weight, 4]`` (non-negative by default)."""
    g = draw(digraphs(max_nodes=max_nodes, max_edges=max_edges))
    for edge in g.edges:
        edge.data["w"] = draw(st.integers(min_value=min_weight, max_value=4))
    return g


@st.composite
def lis_graphs(
    draw,
    max_shells: int = 5,
    max_channels: int = 8,
    max_relays: int = 2,
    max_queue: int = 3,
    max_latency: int = 1,
    min_shells: int = 1,
    min_channels: int = 0,
    allow_self_loops: bool = True,
):
    """A random :class:`LisGraph`: topology plus relay stations, queue
    capacities, and (optionally) pipelined core latencies."""
    g = draw(
        digraphs(
            max_nodes=max_shells,
            max_edges=max_channels,
            min_nodes=min_shells,
            allow_self_loops=allow_self_loops,
            allow_parallel=True,
        )
    )
    lis = LisGraph()
    shells = [f"s{node}" for node in sorted(g.nodes)]
    for shell in shells:
        latency = (
            draw(st.integers(min_value=1, max_value=max_latency))
            if max_latency > 1
            else 1
        )
        lis.add_shell(shell, latency=latency)

    def add(src, dst):
        lis.add_channel(
            src,
            dst,
            queue=draw(st.integers(min_value=1, max_value=max_queue)),
            relays=draw(st.integers(min_value=0, max_value=max_relays)),
        )

    for edge in sorted(g.edges, key=lambda e: e.key):
        add(f"s{edge.src}", f"s{edge.dst}")
    pairs = [
        (a, b)
        for a in shells
        for b in shells
        if allow_self_loops or a != b
    ]
    while pairs and len(lis.channels()) < min_channels:
        src, dst = draw(st.sampled_from(pairs))
        add(src, dst)
    return lis


def arithmetic_behaviors(lis, params):
    """A fresh ``{shell: ShellBehavior}`` of scalar arithmetic cores.

    ``params`` maps each shell to ``(a, b, init)``: sources count
    ``a*k + b (mod PRIME)``, everything else computes
    ``(sum(inputs)*a + b) mod PRIME``.  Call once per simulator run --
    sources are stateful.
    """
    behaviors = {}
    for shell, (a, b, init) in params.items():
        if lis.system.in_degree(shell) == 0:
            state = {"k": 0}

            def fn(_inputs, a=a, b=b, state=state):
                state["k"] += 1
                return (a * state["k"] + b) % PRIME

            behaviors[shell] = ShellBehavior(initial=init, fn=fn)
        else:
            behaviors[shell] = ShellBehavior(
                initial=init,
                fn=lambda inputs, a=a, b=b: (
                    sum(inputs.values()) * a + b
                )
                % PRIME,
            )
    return behaviors


@st.composite
def stochastic_specs(
    draw,
    kinds: tuple[str, ...] = ("bernoulli", "burst", "periodic"),
    scopes: tuple[str, ...] = ("all", "global", "sources", "sinks"),
    deterministic: bool | None = None,
):
    """A random :class:`repro.stochastic.StochasticSpec`.

    ``deterministic=True`` draws only zero-variance processes (periodic
    patterns and rate-0/1 Bernoulli -- the degeneracy-pinning inputs);
    ``False`` only genuinely random ones; ``None`` either.
    """
    from repro.stochastic import StochasticSpec

    if deterministic is True:
        kinds = tuple(k for k in kinds if k != "burst")
    kind = draw(st.sampled_from(kinds))
    scope = draw(st.sampled_from(scopes))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    if kind == "bernoulli":
        if deterministic is True:
            rate = draw(st.sampled_from([0.0, 1.0]))
        elif deterministic is False:
            rate = draw(
                st.floats(min_value=0.05, max_value=0.6, allow_nan=False)
            )
        else:
            rate = draw(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
            )
        return StochasticSpec("bernoulli", scope=scope, rate=rate, seed=seed)
    if kind == "burst":
        if deterministic is True:  # pragma: no cover - filtered above
            raise AssertionError("burst processes are never deterministic")
        return StochasticSpec(
            "burst",
            scope=scope,
            burst=draw(st.floats(min_value=1.0, max_value=8.0)),
            gap=draw(st.floats(min_value=1.0, max_value=16.0)),
            seed=seed,
        )
    if deterministic is False:
        # Periodic patterns are always deterministic; substitute a
        # mid-rate Bernoulli to honour the request.
        return StochasticSpec(
            "bernoulli",
            scope=scope,
            rate=draw(st.floats(min_value=0.05, max_value=0.6)),
            seed=seed,
        )
    return StochasticSpec(
        "periodic",
        scope=scope,
        burst=float(draw(st.integers(min_value=1, max_value=4))),
        gap=float(draw(st.integers(min_value=1, max_value=6))),
        phase=draw(st.integers(min_value=0, max_value=5)),
    )


@st.composite
def lis_systems(draw, **kwargs):
    """A random LIS plus a behaviours *factory* (fresh stateful cores
    per call): ``(lis, make_behaviors)``."""
    lis = draw(lis_graphs(**kwargs))
    params = {
        shell: (
            draw(st.integers(min_value=1, max_value=7)),
            draw(st.integers(min_value=0, max_value=9)),
            draw(st.integers(min_value=0, max_value=9)),
        )
        for shell in lis.shells()
    }
    return lis, lambda: arithmetic_behaviors(lis, params)
