"""Synthetic LIS generation: random topologies (Section VIII) and the
named examples from the paper's figures."""

from .generator import (
    GeneratorConfig,
    GeneratorError,
    generate_lis,
    mesh_lis,
    torus_lis,
)
from .examples import (
    fig1_lis,
    fig2_left_lis,
    fig2_right_lis,
    fig10_limiter_lis,
    fig15_lis,
    ring_lis,
    tree_lis,
    named_system,
    uplink_downlink_lis,
)

# The declarative twins pull in repro.dsl; resolve them lazily so
# importing repro.gen stays free of the DSL module tree.
_DECLARATIVE_EXPORTS = {"DECLARATIVE_TWINS", "twin_fingerprints", "verify_twin"}


def __getattr__(name):
    if name in _DECLARATIVE_EXPORTS:
        from . import declarative

        return getattr(declarative, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DECLARATIVE_TWINS",
    "GeneratorConfig",
    "GeneratorError",
    "generate_lis",
    "mesh_lis",
    "named_system",
    "torus_lis",
    "fig1_lis",
    "fig2_left_lis",
    "fig2_right_lis",
    "fig10_limiter_lis",
    "fig15_lis",
    "ring_lis",
    "tree_lis",
    "twin_fingerprints",
    "uplink_downlink_lis",
    "verify_twin",
]
