"""The token-deficit (TD) abstraction of queue sizing (Section VII-A).

An instance of TD is a family of sets ``S = (s_1, s_2, ...)``, one per
*sizable edge* (a shell-queue backedge, identified here by its channel
id), where ``s_i`` contains the deficient cycles that edge ``i`` lies
on; each cycle ``c`` carries a non-negative deficit ``d(c)``.  A
*solution* assigns a weight (extra queue tokens) to each edge so that
every cycle's covering edges sum to at least its deficit; its cost is
the total weight.  TD abstracts away the graph: only the incidence
structure between cycles and sizable edges matters.

This module builds TD instances from LISs, checks feasibility of
weight assignments, and applies the paper's simplification rules:

1. non-deficient cycles are never included (done during enumeration);
2. an edge whose cycle set is a subset of another edge's is dropped;
3. a cycle covered by exactly one edge forces a minimum weight on that
   edge and is then removed (re-evaluating the other cycles' residual
   deficits);
4. the SCC collapse lives in :mod:`repro.core.cycles`.

Rules 2 and 3 are iterated to a fixpoint; a TD instance records its
forced weights so that solvers only search the residual problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cycles import CycleRecord, deficient_cycles
from .lis_graph import LisGraph
from .throughput import ideal_mst

__all__ = [
    "TokenDeficitInstance",
    "InfeasibleError",
    "build_td_instance",
    "td_instance_from_records",
]


class InfeasibleError(Exception):
    """A deficient cycle has no sizable edge: no queue sizing can fix it."""


@dataclass
class TokenDeficitInstance:
    """A TD problem instance over channel ids.

    Attributes:
        deficits: Cycle index -> residual deficit (strictly positive).
        sets: Channel id -> set of cycle indices it covers (``s_i``).
        forced: Channel id -> weight already fixed by simplification;
            these tokens are part of every solution's cost.
        cycles: The original cycle records, for reporting (indices in
            ``deficits``/``sets`` refer to this list).
        target: The throughput the instance restores when solved.
    """

    deficits: dict[int, int]
    sets: dict[int, set[int]]
    forced: dict[int, int] = field(default_factory=dict)
    cycles: list[CycleRecord] = field(default_factory=list)
    target: Fraction = Fraction(1)
    #: Lazily built cycle -> covering channels reverse index, kept in
    #: sync by the simplification rules.  Mutating ``sets`` directly
    #: (rather than through ``simplify``) requires
    #: :meth:`invalidate_cover_index`.
    _cover_index: dict[int, set[int]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Memoized :func:`repro.core.solvers.kernel.compile_td` result so
    #: that the heuristic and exact solvers compile one shared
    #: kernel per instance.  Cleared together with the cover index.
    _kernel: object = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Feasibility
    # ------------------------------------------------------------------
    def _cover_index_map(self) -> dict[int, set[int]]:
        """The reverse index, built on first use in one O(sum |s_i|)
        pass -- previously every ``covering_channels`` query re-scanned
        all sets, making rule 3 and the feasibility checks quadratic."""
        index = self._cover_index
        if index is None:
            index = {}
            for channel, covered in self.sets.items():
                for idx in covered:
                    index.setdefault(idx, set()).add(channel)
            self._cover_index = index
        return index

    def invalidate_cover_index(self) -> None:
        """Drop the cached reverse index and compiled kernel (call
        after mutating ``sets`` outside the simplification rules)."""
        self._cover_index = None
        self._kernel = None

    def covering_channels(self, cycle_idx: int) -> set[int]:
        """Channels whose weight counts toward ``cycle_idx``'s deficit."""
        return set(self._cover_index_map().get(cycle_idx, ()))

    def is_solution(self, weights: dict[int, int]) -> bool:
        """Check a weight assignment (over the residual problem)."""
        index = self._cover_index_map()
        for cycle_idx, deficit in self.deficits.items():
            covered = sum(
                weights.get(channel, 0)
                for channel in index.get(cycle_idx, ())
            )
            if covered < deficit:
                return False
        return True

    def solution_cost(self, weights: dict[int, int]) -> int:
        """Total tokens of ``weights`` plus the forced weights."""
        return sum(weights.values()) + sum(self.forced.values())

    def merge_forced(self, weights: dict[int, int]) -> dict[int, int]:
        """Combine residual-problem weights with the forced weights into
        a complete queue-sizing solution (channel id -> extra tokens)."""
        merged = dict(self.forced)
        for channel, weight in weights.items():
            if weight:
                merged[channel] = merged.get(channel, 0) + weight
        return merged

    @property
    def is_trivial(self) -> bool:
        """True when simplification solved everything already."""
        return not self.deficits

    # ------------------------------------------------------------------
    # Simplification (rules 2 and 3, to fixpoint)
    # ------------------------------------------------------------------
    def simplify(
        self, rules: tuple[str, ...] = ("subset", "singleton")
    ) -> "TokenDeficitInstance":
        """Apply the selected simplification rules in place, to fixpoint.

        ``rules`` may contain ``"subset"`` (rule 2: drop dominated
        edges) and/or ``"singleton"`` (rule 3: force singleton-covered
        cycles).  The ablation benchmarks use the selective forms; all
        production paths apply both.
        """
        unknown = set(rules) - {"subset", "singleton"}
        if unknown:
            raise ValueError(f"unknown simplification rules: {sorted(unknown)}")
        self._kernel = None
        changed = True
        while changed:
            changed = False
            if "subset" in rules:
                changed |= self._drop_subset_sets()
            if "singleton" in rules:
                changed |= self._force_singletons()
        return self

    def _drop_subset_sets(self) -> bool:
        """Rule 2: remove any set that is a subset of another set."""
        channels = sorted(self.sets)
        doomed: set[int] = set()
        for i, a in enumerate(channels):
            if a in doomed:
                continue
            for b in channels[i + 1:]:
                if b in doomed:
                    continue
                sa, sb = self.sets[a], self.sets[b]
                if sa <= sb:
                    doomed.add(a)
                    break
                if sb <= sa:
                    doomed.add(b)
        for channel in doomed:
            covered = self.sets.pop(channel)
            if self._cover_index is not None:
                for idx in covered:
                    chans = self._cover_index.get(idx)
                    if chans is not None:
                        chans.discard(channel)
        return bool(doomed)

    def _force_singletons(self) -> bool:
        """Rule 3: a cycle covered by one edge pins that edge's weight.

        The forced increment is immediately discounted from *every*
        cycle the edge covers (its tokens help all of them), and the
        edge stays in the instance -- a later singleton may force it
        further.
        """
        changed = False
        for idx in list(self.deficits):
            if idx not in self.deficits:
                continue  # discounted away by an earlier forcing
            channels = self.covering_channels(idx)
            if not channels:
                raise InfeasibleError(
                    f"cycle through {self.cycles[idx].node_path} has no "
                    "sizable backedge"
                )
            if len(channels) > 1:
                continue
            channel = channels.pop()
            increment = self.deficits[idx]
            self.forced[channel] = self.forced.get(channel, 0) + increment
            changed = True
            self._discount(channel, increment)
        return changed

    def _discount(self, channel: int, amount: int) -> None:
        """Reduce the residual deficit of every cycle covered by
        ``channel`` by ``amount``, dropping fully covered cycles.

        Fully covered cycles are removed from exactly their covering
        sets (via the reverse index) rather than by scanning every set.
        """
        index = self._cover_index_map()
        for idx in list(self.sets.get(channel, ())):
            if idx not in self.deficits:
                continue
            residual = self.deficits[idx] - amount
            if residual <= 0:
                del self.deficits[idx]
                for ch in index.pop(idx, ()):
                    cov = self.sets.get(ch)
                    if cov is not None:
                        cov.discard(idx)
            else:
                self.deficits[idx] = residual
        # Drop channels whose coverage became empty (no live cycle
        # references them, so the index needs no update).
        for ch in [c for c, cov in self.sets.items() if not cov]:
            del self.sets[ch]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TokenDeficitInstance(cycles={len(self.deficits)}, "
            f"sets={len(self.sets)}, forced={self.forced})"
        )


def td_instance_from_records(
    records: list[CycleRecord],
    target: Fraction,
    simplify: bool = True,
) -> TokenDeficitInstance:
    """Assemble a (fresh, mutable) TD instance from deficient-cycle
    records -- the shared back half of :func:`build_td_instance`, also
    used by :meth:`repro.analysis.Context.td_instance` so one cycle
    enumeration can feed many instances."""
    deficits: dict[int, int] = {}
    sets: dict[int, set[int]] = {}
    for idx, record in enumerate(records):
        deficits[idx] = record.deficit(target)
        for channel in record.channels:
            sets.setdefault(channel, set()).add(idx)

    instance = TokenDeficitInstance(
        deficits=deficits, sets=sets, cycles=list(records), target=target
    )
    if simplify:
        instance.simplify()
    elif any(not record.channels for record in records):
        raise InfeasibleError("deficient cycle without sizable backedges")
    return instance


def build_td_instance(
    lis: LisGraph,
    target: Fraction | None = None,
    extra_tokens: dict[int, int] | None = None,
    max_cycles: int | None = None,
    simplify: bool = True,
) -> TokenDeficitInstance:
    """Build a TD instance for ``lis`` (a LisGraph or an
    :class:`~repro.analysis.Context`).

    Args:
        lis: The system to size (baseline queues as configured).
        target: Throughput to restore; defaults to the ideal MST.
        extra_tokens: Already-committed extra queue tokens (the
            instance then covers only the *residual* degradation).
        max_cycles: Optional cycle-enumeration budget.
        simplify: Apply rules 2-3 before returning.

    Raises:
        InfeasibleError: If a deficient cycle crosses no sizable
            backedge (cannot happen for doubled graphs built by
            :meth:`LisGraph.doubled_marked_graph`, whose every
            MST-reducing cycle includes at least one shell backedge or
            is an all-forward cycle already counted in the ideal MST).
    """
    if hasattr(lis, "td_instance"):  # a repro.analysis.Context
        return lis.td_instance(
            target=target,
            extra_tokens=extra_tokens,
            max_cycles=max_cycles,
            simplify=simplify,
        )
    goal = target if target is not None else ideal_mst(lis).mst
    doubled = lis.doubled_marked_graph(extra_tokens)
    records = deficient_cycles(doubled, goal, max_cycles=max_cycles)
    return td_instance_from_records(records, goal, simplify=simplify)
