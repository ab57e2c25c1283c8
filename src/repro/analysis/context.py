"""Content-fingerprinted analysis contexts (lower once, share everywhere).

Every layer of the stack derives the same Section-III/VII artifacts
from a :class:`~repro.core.LisGraph`: the ideal and doubled marked
graphs, the deficient-cycle enumeration, MSTs, the rule-4 SCC collapse
and the :mod:`repro.sim` flat arrays.  Before this module each layer
re-derived them independently -- the doubled graph was re-lowered at
roughly ten call sites and the (exponential!) cycle enumeration was
repeated per solver even when ``bench_table4`` compares exact vs.
heuristic on the *same* instance.

A :class:`Context` wraps a frozen snapshot of a LIS and memoizes each
derived artifact, computed at most once per content fingerprint:

* the fingerprint is the SHA-256 of the canonical JSON form
  (:func:`repro.core.serialize.lis_to_json`) -- the same bytes the
  analysis engine hashes into its cache key, so engine keys and
  Context identity agree;
* marked graphs are handed out as **defensive copies** (their
  ``Edge.data`` token dicts are mutable, and simulators mutate them),
  so no caller can poison the cached masters; read-only analyses
  (slack, bottlenecks, the sizing check) borrow the masters
  themselves through :meth:`Context.ideal_master` and
  :meth:`Context.doubled_master`;
* one structural cycle enumeration serves *every* extra-token variant:
  the doubled graph's elementary cycles do not depend on token counts,
  and a queue-sizing assignment adds ``extra[c]`` tokens to a cycle
  exactly when channel ``c``'s sizable backedge lies on it -- which is
  precisely :attr:`CycleRecord.channels`;
* artifacts of a queue-sizing assignment (a sized doubled lowering,
  its MST, its schedule oracle) are built per call and not kept: only
  the unsized system's are memoized, so a long-lived context does not
  grow with every distinct assignment it is asked about;
* per-artifact hit/miss counters (:class:`ContextStats`, a
  :class:`repro.obs.Counters`) make the sharing observable
  (``repro stats``, ``EngineStats.context``).

Contexts are safe to share across threads (an internal lock guards
artifact construction) and across engine ops in one worker process
(:func:`context_from_json` keeps a small fingerprint-keyed registry).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import replace
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Hashable, TypeVar

from ..core.cycles import (
    CycleExplosionError,
    CycleRecord,
    collapse_sccs,
    cycle_records,
    is_collapsible,
)
from ..core.lis_graph import LisError, LisGraph
from ..core.marked_graph import MarkedGraph
from ..core.serialize import lis_fingerprint, lis_from_json, lis_to_json
from ..core.throughput import ThroughputResult, mst
from ..graphs import Edge
from ..graphs.mcm import potentials, reduced_arcs
from ..obs import Counters, render

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..schedule.oracle import ScheduleOracle
    from ..sim.compile import CompiledSystem

T = TypeVar("T")

__all__ = [
    "Context",
    "ContextStats",
    "get_context",
    "context_from_json",
    "global_stats",
    "reset_global_stats",
]


class ContextStats(Counters):
    """Per-artifact memoization counters, shared by contexts.

    Keys are ``"<artifact>.hit"`` / ``"<artifact>.miss"``: a *miss* is
    a fresh computation (a lowering performed, an enumeration run), a
    *hit* is a cached artifact served.  For the ``cycles`` artifact a
    hit counts every request answered from the one structural
    enumeration -- including all extra-token variants.
    """

    def record(self, artifact: str, hit: bool) -> None:
        self.add(f"{artifact}.{'hit' if hit else 'miss'}")

    def count(self, artifact: str, kind: str) -> int:
        return int(self.get(f"{artifact}.{kind}"))

    def render(self) -> str:
        """Aligned per-artifact hit/miss table."""
        return render({"artifact": self.snapshot()})


_GLOBAL_STATS = ContextStats()


def global_stats() -> ContextStats:
    """The process-wide counters shared by registry-created contexts."""
    return _GLOBAL_STATS


def reset_global_stats() -> None:
    _GLOBAL_STATS.reset()


def _extra_key(
    extra_tokens: dict[int, int] | None, channel_ids: set[int]
) -> tuple[tuple[int, int], ...]:
    """Canonical hashable key of a queue-sizing assignment.

    Validates like :meth:`LisGraph.doubled_marked_graph` (unknown
    channels and negative counts raise) and drops zero entries, so
    ``{}``, ``None`` and ``{cid: 0}`` share one artifact slot.
    """
    if not extra_tokens:
        return ()
    unknown = set(extra_tokens) - channel_ids
    if unknown:
        raise LisError(f"extra tokens on unknown channels: {sorted(unknown)}")
    for cid, tokens in extra_tokens.items():
        if tokens < 0:
            raise LisError(f"negative extra tokens on channel {cid}")
    return tuple(
        (cid, tokens)
        for cid, tokens in sorted(extra_tokens.items())
        if tokens
    )


def _own_witness(result: ThroughputResult) -> ThroughputResult:
    """``result`` with a witness cycle of fresh :class:`Edge` objects
    and data dicts: the memoized one aliases the master graph's
    places."""
    if result.critical is None:
        return result
    return replace(
        result,
        critical=[
            Edge(place.key, place.src, place.dst, dict(place.data))
            for place in result.critical
        ],
    )


class Context:
    """An immutable analysis context over one LIS content fingerprint.

    The constructor snapshots a mutable ``lis`` (a frozen private
    copy), so later mutation of the caller's graph cannot desynchronize
    the fingerprint from the cached artifacts; a frozen ``lis`` cannot
    change and is shared as is.  The canonical JSON text and the
    fingerprint are computed on first use.  All artifact methods are
    memoized (those of a queue-sizing assignment for the unsized
    system only) and thread-safe; marked graphs come back as defensive
    copies (the ``*_master`` methods lend the cached ones to read-only
    code).

    A Context also exposes the read-only :class:`LisGraph` surface
    (``system``, ``channels()``, ``latency()``, ...), so graph-reading
    code -- the simulators, the DOT writer -- accepts either type.
    """

    def __init__(self, lis: LisGraph, stats: ContextStats | None = None) -> None:
        if isinstance(lis, Context):  # idempotent construction
            lis = lis.lis
        self.lis: LisGraph = lis if lis.frozen else lis.copy().freeze()
        self.stats = stats if stats is not None else _GLOBAL_STATS
        self._lock = threading.RLock()
        self._channel_ids = set(self.lis.channel_ids())
        #: Built artifacts by ``(artifact, key)`` (see :meth:`_memo`).
        self._artifacts: dict[tuple[str, Hashable], Any] = {}
        self._sizable: dict[int, int] | None = None
        #: The largest ``max_cycles`` budget an enumeration overflowed.
        self._overflowed = -1

    @property
    def lis_json(self) -> str:
        """The canonical JSON text (:func:`~repro.core.serialize.lis_to_json`),
        written on first use and then kept by the frozen graph."""
        return lis_to_json(self.lis)

    @property
    def fingerprint(self) -> str:
        """SHA-256 of :attr:`lis_json`, computed on first use."""
        return self.lis.fingerprint()

    # ------------------------------------------------------------------
    # Read-only LisGraph surface (duck-typed pass-throughs)
    # ------------------------------------------------------------------
    @property
    def system(self):
        return self.lis.system

    @property
    def default_queue(self) -> int:
        return self.lis.default_queue

    def channels(self):
        return self.lis.channels()

    def channel(self, cid: int):
        return self.lis.channel(cid)

    def channel_ids(self) -> list[int]:
        return self.lis.channel_ids()

    def shells(self):
        return self.lis.shells()

    def latency(self, shell: Hashable) -> int:
        return self.lis.latency(shell)

    def queue(self, cid: int) -> int:
        return self.lis.queue(cid)

    def relays(self, cid: int) -> int:
        return self.lis.relays(cid)

    def total_relays(self) -> int:
        return self.lis.total_relays()

    def scc_map(self) -> dict[Hashable, int]:
        return self.lis.scc_map()

    def copy(self) -> LisGraph:
        """A *mutable* clone of the underlying LIS (leaves the context)."""
        return self.lis.copy()

    def _memo(self, artifact: str, key: Hashable, build: Callable[[], T]) -> T:
        """The ``artifact`` cached under ``key``, built on first use.

        Every call counts one hit or miss in :attr:`stats`; a build
        that raises is not cached and counts nothing.
        """
        with self._lock:
            slot = (artifact, key)
            hit = slot in self._artifacts
            if not hit:
                self._artifacts[slot] = build()
            self.stats.record(artifact, hit)
            return self._artifacts[slot]

    def _unsized(self, artifact: str, key: tuple, build: Callable[[], T]) -> T:
        """:meth:`_memo` for the unsized system (an empty extra-token
        ``key``); for any other key, ``build()`` afresh, counted as a
        miss and not kept."""
        if not key:
            return self._memo(artifact, key, build)
        value = build()
        self.stats.record(artifact, False)
        return value

    # ------------------------------------------------------------------
    # Marked-graph lowerings
    # ------------------------------------------------------------------
    def ideal_master(self) -> MarkedGraph:
        """The cached ideal lowering itself (Section III-A), shared
        with every other reader of this context: read it, never mutate
        it.  :meth:`ideal_marked_graph` hands out a private copy."""
        return self._memo("ideal_mg", (), self.lis.ideal_marked_graph)

    def doubled_master(
        self, extra_tokens: dict[int, int] | None = None
    ) -> MarkedGraph:
        """The doubled lowering itself (III-B), built on a copy of the
        cached ideal lowering (whose hit or miss ``ideal_mg`` counts).
        The unsized one is cached and shared like :meth:`ideal_master`;
        one with extra tokens is built per call."""
        key = _extra_key(extra_tokens, self._channel_ids)
        return self._unsized(
            "doubled_mg",
            key,
            lambda: self.lis.doubled_marked_graph(
                dict(key), ideal=self.ideal_master()
            ),
        )

    def ideal_marked_graph(self) -> MarkedGraph:
        """A defensive copy of the cached ideal lowering (Section III-A)."""
        return self.ideal_master().copy()

    def doubled_marked_graph(
        self, extra_tokens: dict[int, int] | None = None
    ) -> MarkedGraph:
        """A defensive copy of :meth:`doubled_master`."""
        return self.doubled_master(extra_tokens).copy()

    def sizable_backedges(self) -> dict[int, int]:
        """Channel id -> place key of its shell-side backedge.

        Place keys are construction-order deterministic, so the mapping
        is the same for every doubled lowering of this fingerprint.
        """
        with self._lock:
            if self._sizable is None:
                self._sizable = self.lis.sizable_backedges(
                    self.doubled_master()
                )
            return dict(self._sizable)

    # ------------------------------------------------------------------
    # Throughput
    # ------------------------------------------------------------------
    def ideal_mst(self) -> ThroughputResult:
        """Cached :func:`repro.core.ideal_mst` (III-C on the ideal MG)."""
        return _own_witness(
            self._memo("ideal_mst", (), lambda: mst(self.ideal_master()))
        )

    def actual_mst(
        self, extra_tokens: dict[int, int] | None = None
    ) -> ThroughputResult:
        """:func:`repro.core.actual_mst`, cached for the unsized
        system."""
        key = _extra_key(extra_tokens, self._channel_ids)
        return _own_witness(
            self._unsized(
                "actual_mst", key, lambda: mst(self.doubled_master(extra_tokens))
            )
        )

    def sized_mst(self, extra_tokens: dict[int, int] | None = None) -> Fraction:
        """The MST with ``extra_tokens`` added to the queues, cached per
        extra-token key: the check :func:`repro.core.size_queues` runs
        on its solution.

        The doubled graph holds every ideal-graph place with the same
        tokens, and sizing adds tokens to backedges only, so the sized
        MST never exceeds the ideal MST.  One Bellman--Ford pass over
        the cached base lowering, with the extra tokens on the sizable
        backedges, shows whether any cycle falls below the ideal MST;
        when none does, the sized MST *is* the ideal MST.  Only a
        system left short of it (a solver miss, or a target below the
        ideal) is lowered again and searched for its minimum cycle mean
        (:meth:`actual_mst`).
        """
        key = _extra_key(extra_tokens, self._channel_ids)

        def check() -> Fraction:
            ideal = self.ideal_mst().mst
            backedges = self.sizable_backedges()
            extra = {backedges[cid]: tokens for cid, tokens in key}
            index, arcs = reduced_arcs(
                self.doubled_master().graph,
                lambda place: place.data["tokens"] + extra.get(place.key, 0),
                ideal,
            )
            if potentials(len(index), arcs) is not None:
                return ideal
            return self.actual_mst(dict(key)).mst

        return self._memo("sized_mst", key, check)

    # ------------------------------------------------------------------
    # Cycle enumeration (one structural pass serves every variant)
    # ------------------------------------------------------------------
    def _base_records(self, max_cycles: int | None) -> list[CycleRecord]:
        # Any *successful* enumeration is complete (max_cycles only
        # aborts), so the first one serves all budgets.  An overflow
        # is remembered by its budget: a budget no larger overflows
        # too, so it fails at once with the enumeration's message.
        if max_cycles is not None and max_cycles <= self._overflowed:
            raise CycleExplosionError(
                f"more than {max_cycles} elementary cycles"
            )
        try:
            records = self._memo(
                "cycles",
                (),
                lambda: cycle_records(
                    self.doubled_master(), max_cycles=max_cycles
                ),
            )
        except CycleExplosionError:
            with self._lock:
                self._overflowed = max(self._overflowed, max_cycles)
            raise
        if max_cycles is not None and len(records) > max_cycles:
            raise CycleExplosionError(
                f"cycle enumeration exceeded budget of {max_cycles}"
            )
        return records

    def cycle_records(
        self,
        extra_tokens: dict[int, int] | None = None,
        max_cycles: int | None = None,
    ) -> list[CycleRecord]:
        """Elementary cycles of the doubled graph under ``extra_tokens``.

        The cycle *structure* of a doubled marked graph is independent
        of token counts, and extra queue tokens land exactly on the
        sizable backedges recorded in :attr:`CycleRecord.channels` --
        so records for any assignment are the cached structural records
        with ``sum(extra[c] for c in record.channels)`` added to each
        token count.  Equivalent to enumerating
        ``doubled_marked_graph(extra_tokens)`` afresh, without the
        exponential re-enumeration.
        """
        key = _extra_key(extra_tokens, self._channel_ids)
        records = self._base_records(max_cycles)
        if not key:
            return list(records)
        extra = dict(key)
        return [
            replace(
                record,
                tokens=record.tokens
                + sum(extra.get(c, 0) for c in record.channels),
            )
            if any(c in extra for c in record.channels)
            else record
            for record in records
        ]

    def deficient_cycles(
        self,
        target: Fraction | None = None,
        extra_tokens: dict[int, int] | None = None,
        max_cycles: int | None = None,
    ) -> list[CycleRecord]:
        """Cycles whose mean falls below ``target`` (default: ideal MST)."""
        goal = target if target is not None else self.ideal_mst().mst
        return [
            record
            for record in self.cycle_records(extra_tokens, max_cycles)
            if record.mean < goal
        ]

    def td_instance(
        self,
        target: Fraction | None = None,
        extra_tokens: dict[int, int] | None = None,
        max_cycles: int | None = None,
        simplify: bool = True,
    ):
        """A fresh :class:`~repro.core.TokenDeficitInstance` (VII-A).

        TD instances are mutable (solvers simplify them in place), so
        each call builds a new one -- from the *shared* cycle records.
        """
        from ..core.token_deficit import td_instance_from_records

        goal = target if target is not None else self.ideal_mst().mst
        records = self.deficient_cycles(goal, extra_tokens, max_cycles)
        return td_instance_from_records(records, goal, simplify=simplify)

    def td_kernel(self, simplify: bool = True):
        """The bitset-compiled :class:`~repro.core.solvers.TdKernel` of
        this content's TD instance at the ideal MST, cached per
        ``simplify`` flag.

        Unlike :meth:`td_instance` (mutable, rebuilt per call) the
        kernel is immutable apart from its stats accumulator, so one
        compilation serves every solver and batch-feasibility check on
        the same content.  ``simplify=False`` compiles the
        *unsimplified* instance (no forced weights), the form that
        validates complete assignments via ``check_batch``.
        """
        from ..core.solvers.kernel import compile_td

        return self._memo(
            "td_kernel",
            simplify,
            lambda: compile_td(self.td_instance(simplify=simplify)),
        )

    # ------------------------------------------------------------------
    # Rule-4 SCC collapse and the simulation kernel
    # ------------------------------------------------------------------
    def is_collapsible(self) -> bool:
        return is_collapsible(self.lis)

    def collapsed(self) -> tuple["Context", dict[int, int]]:
        """The rule-4 collapsed system as a Context of its own, plus the
        collapsed-channel -> original-channel map (VII-A)."""

        def build() -> tuple[Context, dict[int, int]]:
            collapsed_lis, channel_map = collapse_sccs(self.lis)
            return Context(collapsed_lis.freeze(), stats=self.stats), channel_map

        ctx, channel_map = self._memo("collapsed", (), build)
        return ctx, dict(channel_map)

    def compiled(self) -> "CompiledSystem":
        """The :mod:`repro.sim` flat-array form (immutable, shared)."""
        from ..sim.compile import compile_lis

        return self._memo(
            "compiled", (), lambda: compile_lis(self.lis, mg=self.doubled_master())
        )

    def schedule_oracle(
        self,
        extra_tokens: dict[int, int] | None = None,
        max_steps: int = 50_000,
    ) -> "ScheduleOracle":
        """The analytic :class:`~repro.schedule.ScheduleOracle` of this
        content under ``extra_tokens``, cached for the unsized system.

        The oracle is immutable (frozen arrays, closed-form queries),
        so one marking walk serves every ``backend="schedule"``
        measurement, occupancy query, and differential check on the
        same fingerprint.  The walk itself reuses :meth:`compiled`.
        """
        from ..schedule.oracle import derive_schedule

        key = _extra_key(extra_tokens, self._channel_ids)
        return self._unsized(
            "schedule",
            key,
            lambda: derive_schedule(
                self, extra_tokens=dict(key), max_steps=max_steps
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Context({self.lis!r}, fingerprint={self.fingerprint[:12]}...)"
        )


# ----------------------------------------------------------------------
# Fingerprint-keyed registry (cross-call / cross-op reuse)
# ----------------------------------------------------------------------

_REGISTRY_CAPACITY = 64
_REGISTRY: "OrderedDict[str, Context]" = OrderedDict()
_REGISTRY_LOCK = threading.Lock()


def _same_structure(a: LisGraph, b: LisGraph) -> bool:
    """Guard against canonical-JSON aliasing: ``lis_to_json`` stringifies
    shell names, so graphs differing only in name *types* (``1`` vs
    ``"1"``) share a fingerprint but must not share artifacts."""
    return list(a.system.nodes) == list(b.system.nodes)


def get_context(lis: "LisGraph | Context | object") -> Context:
    """The shared :class:`Context` for ``lis``'s current content.

    Serializes and fingerprints the graph, then returns the registered
    context for that fingerprint (creating and registering one on
    miss).  Registry contexts use the process-global
    :class:`ContextStats`.  Idempotent on Contexts.

    Also accepts any declarative root from :mod:`repro.dsl` (an
    ``@system`` class, a ``SystemDecl``, a ``SystemBuilder``) via the
    duck-typed ``__lis_decl__`` marker: the declaration is lowered in
    declaration order, so its fingerprint -- and therefore the
    registry slot and every cached artifact -- is shared with the
    equivalent hand-built graph.
    """
    if isinstance(lis, Context):
        return lis
    if not isinstance(lis, LisGraph):
        decl = getattr(lis, "__lis_decl__", None)
        if decl is None or not hasattr(decl, "lower"):
            raise TypeError(
                f"get_context() needs a LisGraph, a Context, or a "
                f"declarative system (repro.dsl), got {lis!r}"
            )
        lis = decl.lower()
    fingerprint = lis.fingerprint()
    with _REGISTRY_LOCK:
        ctx = _REGISTRY.get(fingerprint)
        if ctx is not None:
            _REGISTRY.move_to_end(fingerprint)
            if _same_structure(ctx.lis, lis):
                return ctx
            return Context(lis)  # aliased names: private, unregistered
        ctx = Context(lis)
        _REGISTRY[fingerprint] = ctx
        while len(_REGISTRY) > _REGISTRY_CAPACITY:
            _REGISTRY.popitem(last=False)
        return ctx


def context_from_json(text: str) -> Context:
    """The shared Context for a canonical-JSON LIS document.

    Hashes the text directly and only parses it on a registry miss --
    this is how engine ops share artifacts across ops on the same
    serialized system without re-parsing, let alone re-lowering.
    """
    fingerprint = lis_fingerprint(text)
    with _REGISTRY_LOCK:
        ctx = _REGISTRY.get(fingerprint)
        if ctx is not None:
            _REGISTRY.move_to_end(fingerprint)
            return ctx
        ctx = Context(lis_from_json(text).freeze())
        _REGISTRY[fingerprint] = ctx
        while len(_REGISTRY) > _REGISTRY_CAPACITY:
            _REGISTRY.popitem(last=False)
        return ctx


def clear_registry() -> None:
    """Drop all registered contexts (tests; frees cached artifacts)."""
    with _REGISTRY_LOCK:
        _REGISTRY.clear()
