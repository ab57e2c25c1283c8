"""Golden digests of the stall draws.

The chaos and tail results depend on exactly which (node, clock) slots
every spec stalls.  These digests pin the draws themselves -- Python
``random`` for fault specs, PCG64 for stochastic specs -- so a change
to how schedules are stored or compiled cannot silently move a stall.
The values are stable across ``PYTHONHASHSEED``.
"""

import hashlib

import pytest

from repro.core.naming import structural_nodes
from repro.faults import FAULT_KINDS, FaultSpec, build_schedule
from repro.gen import fig15_lis, named_system
from repro.stochastic import StochasticSpec, compile_stochastic

#: System -> (sha256[:12] of the canonical stall text, total stalls)
#: per kind, in FAULT_KINDS order, for ``FaultSpec(kind, seed=3)``.
FAULT_DIGESTS = {
    "fig15": (
        ("ffe8f42d37b3", 64),
        ("ac8f24a57ad8", 96),
        ("6a77ee5c0d04", 77),
        ("df7cd0753532", 47),
        ("672b6632852b", 49),
        ("402706b4951f", 12),
    ),
    "cofdm": (
        ("1d8debc1115a", 111),
        ("1604c724343b", 192),
        ("cbec346eebaa", 265),
        ("51aecb49a690", 102),
        ("279bff4de925", 127),
        ("e3b0c44298fc", 0),
    ),
    "fig19": (
        ("2b1612f97054", 124),
        ("6cdbbb082069", 224),
        ("f447b9e2cfe1", 129),
        ("51aecb49a690", 102),
        ("279bff4de925", 127),
        ("b38146b20471", 17),
    ),
}

#: Kind -> sha256[:12] of ``stalled.tobytes()`` per scope (all, global,
#: sources, sinks) for fig15, 64 clocks, 4 trials, seed 5.
STOCHASTIC_DIGESTS = {
    "bernoulli": ("2f0ae09afdc4", "1c07ddae8bda", "d56ee7c5230a", "a7d2067cd6f9"),
    "burst": ("5e9cbf361d98", "1dd47aacc2c2", "5a4c5e860dfc", "042e13a020de"),
    "periodic": ("1323367ac788", "1323367ac788", "a8c47a23424d", "a8c47a23424d"),
}


def _system(name):
    return fig15_lis() if name == "fig15" else named_system(name)


def _digest(text: str | bytes) -> str:
    raw = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(raw).hexdigest()[:12]


@pytest.mark.parametrize("name", sorted(FAULT_DIGESTS))
def test_fault_stall_draws_are_pinned(name):
    lis = _system(name)
    got = []
    for kind in FAULT_KINDS:
        spec = FaultSpec(kind, seed=3)
        schedule = build_schedule(lis, spec)
        gate = schedule.gate()
        lines = []
        for node in structural_nodes(lis):  # repr order
            clocks = [t for t in range(spec.horizon) if gate(node, t)]
            if clocks:
                lines.append(f"{node!r} {','.join(map(str, clocks))}")
        got.append((_digest("\n".join(lines)), schedule.total_stalls))
    assert tuple(got) == FAULT_DIGESTS[name]


@pytest.mark.parametrize("kind", sorted(STOCHASTIC_DIGESTS))
def test_stochastic_stall_draws_are_pinned(kind):
    got = tuple(
        _digest(
            compile_stochastic(
                fig15_lis(),
                StochasticSpec(kind, scope=scope, seed=5),
                64,
                trials=4,
            ).stalled.tobytes()
        )
        for scope in ("all", "global", "sources", "sinks")
    )
    assert got == STOCHASTIC_DIGESTS[kind]
