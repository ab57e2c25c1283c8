"""Declarative frontend for latency-insensitive systems.

Declare shells (with core latencies), channels (with queue capacities
and relay-station hints) and hierarchical compositions as Python class
bodies; lower them to the exact frozen
:class:`~repro.core.lis_graph.LisGraph` a hand-built construction
would produce -- byte-identical content fingerprints, so the whole
analysis/cache/memoization stack applies unchanged -- and export
synthesizable SystemVerilog pinned cycle-exactly against the
simulator stack.

Layers:

* :mod:`repro.dsl.frontend` -- the ``@shell`` / ``@system`` class
  decorators, typed :class:`Port` descriptors, :class:`Channel`
  declarations, hierarchical composition with dot-joined flattening.
* :mod:`repro.dsl.decl` -- the frozen intermediate representation
  (:class:`SystemDecl`) and its programmatic twin
  (:class:`SystemBuilder`), with lowering to ``LisGraph``.
* :mod:`repro.dsl.rtl` -- SystemVerilog emission (queues, relay
  stations, shells, top, self-checking testbench) via
  :func:`export_rtl`, cross-checked by :func:`crosscheck_rtl`.  It
  emits the structural netlist of :mod:`repro.lis.rtl_sim`
  (:func:`build_netlist`, re-exported here), the same model
  :class:`~repro.lis.rtl_sim.RtlSimulator` executes.
* :mod:`repro.dsl.corpus` -- the paper's worked examples re-expressed
  declaratively, each pinned fingerprint-identical to its hand-built
  :mod:`repro.gen` / :mod:`repro.soc` counterpart.
"""

from .decl import (
    ChannelDecl,
    DslError,
    SEP,
    ShellDecl,
    SystemBuilder,
    SystemDecl,
    decl_from_lis,
    to_system_decl,
)
from .frontend import Channel, Port, ShellType, SystemType, shell, system
from ..lis.rtl_sim import NetNode, NetQueue, Netlist, build_netlist
from .rtl import RtlExport, crosscheck_rtl, export_rtl, sv_identifier
from .corpus import CORPUS, corpus_names, corpus_system, mesh_system, ring_system

__all__ = [
    "SEP",
    "Channel",
    "ChannelDecl",
    "CORPUS",
    "DslError",
    "NetNode",
    "NetQueue",
    "Netlist",
    "Port",
    "RtlExport",
    "ShellDecl",
    "ShellType",
    "SystemBuilder",
    "SystemDecl",
    "SystemType",
    "build_netlist",
    "corpus_names",
    "corpus_system",
    "crosscheck_rtl",
    "decl_from_lis",
    "export_rtl",
    "mesh_system",
    "ring_system",
    "shell",
    "sv_identifier",
    "system",
    "to_system_decl",
]
