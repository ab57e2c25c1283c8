"""The bitset-compiled token-deficit kernel (fast Section VII-B solvers).

:func:`compile_td` lowers a (simplified) :class:`TokenDeficitInstance`
into a packed, immutable form -- :class:`TdKernel` -- on which the
NP-complete queue-sizing search runs orders of magnitude faster per
node than the dict-based reference solvers:

* **cover bitmasks** -- each cycle row carries a Python big-int mask of
  the channel columns that cover it, and each channel column the mask
  of rows it covers (the precomputed reverse index that kills the
  O(|S|) ``covering_channels`` scans);
* **contiguous arrays** -- deficits and per-column row lists are plain
  tuples/lists; the cycle x channel 0/1 incidence matrix is materialized
  as a NumPy ``int32`` array on demand for batch feasibility;
* **exact search** (:meth:`TdKernel.solve_exact`) -- the paper's binary
  search over depth-K token trees, rewritten with incremental residual
  updates, a transposition table keyed on the residual-deficit state
  (an infeasibility proved at remaining budget ``b`` covers every later
  visit of the same state with budget ``<= b``; the table is shared
  across all bisection probes), and a *disjoint-packing* lower bound
  stronger than the paper's max-residual prune: greedily pack alive
  cycles whose cover masks are pairwise disjoint -- no token can help
  two of them, so their residual deficits must be paid separately and
  their sum is an admissible bound (see docs/THEORY.md);
* **heuristic descent** (:meth:`TdKernel.solve_heuristic`) -- the
  decrement-and-test walk with an incrementally maintained per-cycle
  coverage vector, making each decrement-and-test O(cycles touched)
  instead of a full ``is_solution`` pass, while reproducing the
  reference ``_descend`` weights bit for bit;
* **batch feasibility** (:meth:`TdKernel.check_batch`) -- one B x |S|
  matrix multiply validating B candidate assignments at once, used by
  the ``simulate_batch`` engine op.

The pure-Python solvers stay registered (``exact-ref`` /
``heuristic-ref``) as the differential oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .. import token_deficit as td

__all__ = [
    "KernelStats",
    "TdKernel",
    "compile_td",
]

try:  # numpy is optional at runtime (needed for the matrix surface)
    import numpy as _np
except ImportError:  # pragma: no cover - numpy present in the test env
    _np = None

#: DFS nodes between deadline checks (satellite: the reference solver
#: only polled the clock between bisection budgets).
DEADLINE_STRIDE = 128

_ExactTimeout = None


def _exact_timeout():
    """:class:`~repro.core.solvers.exact.ExactTimeout`, bound on first
    use -- ``exact`` imports this module at load time, so the class
    cannot be imported at module scope here."""
    global _ExactTimeout
    if _ExactTimeout is None:
        from .exact import ExactTimeout

        _ExactTimeout = ExactTimeout
    return _ExactTimeout


@dataclass
class KernelStats:
    """Search observability counters, uniform across solvers.

    Attributes:
        nodes_explored: DFS nodes visited (all bisection probes).
        table_hits: Nodes pruned by the residual-state transposition
            table (a recorded infeasibility at >= the remaining budget).
        bound_cuts: Nodes pruned by the disjoint-packing lower bound
            (beyond what the max-residual prune already catches).
        batch_checks: Assignment rows validated by :meth:`check_batch`.
    """

    nodes_explored: int = 0
    table_hits: int = 0
    bound_cuts: int = 0
    batch_checks: int = 0

    def as_dict(self) -> dict:
        return {
            "nodes_explored": self.nodes_explored,
            "table_hits": self.table_hits,
            "bound_cuts": self.bound_cuts,
            "batch_checks": self.batch_checks,
        }


#: The zero-valued stats block non-searching solvers report so the
#: engine and ``repro stats`` can render one uniform solver table.
def empty_stats() -> dict:
    return KernelStats().as_dict()


class TdKernel:
    """A compiled token-deficit instance (see the module docstring).

    Construction is :func:`compile_td`'s job; the kernel itself is
    immutable apart from its :attr:`stats` accumulator, so it can be
    cached per content fingerprint (``Context.td_kernel``).

    Attributes:
        channels: Column index -> channel id (sorted ascending).
        cycle_ids: Row index -> cycle index of the source instance
            (rows are ordered by decreasing deficit, ties by index).
        deficits: Row index -> residual deficit (strictly positive).
        forced: The instance's forced weights (copied for reporting).
        stats: Cumulative :class:`KernelStats` for this kernel.
    """

    def __init__(
        self,
        channels: tuple[int, ...],
        cycle_ids: tuple[int, ...],
        deficits: tuple[int, ...],
        cover_cols: tuple[tuple[int, ...], ...],
        channel_rows: tuple[tuple[int, ...], ...],
        forced: dict[int, int],
    ) -> None:
        self.channels = channels
        self.cycle_ids = cycle_ids
        self.deficits = deficits
        self.forced = dict(forced)
        self._col_of = {cid: j for j, cid in enumerate(channels)}
        self._cover_cols = cover_cols
        self._channel_rows = channel_rows
        self._cover_mask = tuple(
            sum(1 << j for j in cols) for cols in cover_cols
        )
        self._channel_mask = tuple(
            sum(1 << r for r in rows) for rows in channel_rows
        )
        self._matrix = None
        self._heuristic: dict[int, int] | None = None
        self.stats = KernelStats()

    # ------------------------------------------------------------------
    # Shape / lookups
    # ------------------------------------------------------------------
    @property
    def n_cycles(self) -> int:
        return len(self.deficits)

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def cover_mask(self, row: int) -> int:
        """Big-int channel-column mask covering cycle ``row``."""
        return self._cover_mask[row]

    def channel_mask(self, col: int) -> int:
        """Big-int cycle-row mask covered by channel column ``col``."""
        return self._channel_mask[col]

    def covering_channels(self, cycle_idx: int) -> frozenset[int]:
        """Reverse-index lookup: channels covering a source-instance
        cycle index (the scan :meth:`TokenDeficitInstance
        .covering_channels` performs per query, precomputed)."""
        try:
            row = self.cycle_ids.index(cycle_idx)
        except ValueError:
            return frozenset()
        return frozenset(self.channels[j] for j in self._cover_cols[row])

    @property
    def matrix(self):
        """The cycle x channel 0/1 incidence matrix (NumPy ``int32``)."""
        if _np is None:  # pragma: no cover - numpy present in test env
            raise ImportError(
                "TdKernel.matrix needs numpy; install it or use the "
                "mask/row surfaces"
            )
        if self._matrix is None:
            m = _np.zeros((self.n_cycles, self.n_channels), dtype=_np.int32)
            for row, cols in enumerate(self._cover_cols):
                for j in cols:
                    m[row, j] = 1
            self._matrix = m
        return self._matrix

    # ------------------------------------------------------------------
    # Batch feasibility
    # ------------------------------------------------------------------
    def pack_weights(self, assignments) -> "list[list[int]]":
        """Dense B x |S| weight rows from ``{channel id: tokens}`` dicts
        (tokens on channels outside the kernel cover nothing and are
        dropped, mirroring ``is_solution``)."""
        rows = []
        for weights in assignments:
            row = [0] * self.n_channels
            for cid, tokens in weights.items():
                j = self._col_of.get(cid)
                if j is not None:
                    row[j] = int(tokens)
            rows.append(row)
        return rows

    def check_batch(self, assignments):
        """Validate B candidate assignments at once.

        Args:
            assignments: Either a sequence of ``{channel id: tokens}``
                dicts or an already-packed B x ``n_channels`` array /
                list of rows (column order = :attr:`channels`).

        Returns:
            A length-B boolean NumPy array (list of bools without
            numpy): entry ``b`` is ``is_solution(assignments[b])`` over
            the residual problem.
        """
        seq = list(assignments)
        if seq and isinstance(seq[0], dict):
            packed = self.pack_weights(seq)
        else:
            packed = seq
        self.stats.batch_checks += len(packed)
        if _np is not None:
            if not packed:
                return _np.zeros(0, dtype=bool)
            w = _np.asarray(packed, dtype=_np.int64)
            need = _np.asarray(self.deficits, dtype=_np.int64)
            coverage = w @ self.matrix.T.astype(_np.int64)
            return (coverage >= need).all(axis=1)
        out = []  # pragma: no cover - numpy present in test env
        for row in packed:
            ok = True
            for r, need in enumerate(self.deficits):
                got = sum(row[j] for j in self._cover_cols[r])
                if got < need:
                    ok = False
                    break
            out.append(ok)
        return out

    # ------------------------------------------------------------------
    # Heuristic descent (incremental coverage vector)
    # ------------------------------------------------------------------
    def solve_heuristic(self) -> dict[int, int]:
        """The Section VII-B decrement-and-test descent, reproducing the
        reference ``_descend`` weights exactly: same initial assignment,
        same sorted round-robin order, same one-token decrements -- but
        each test touches only the cycles the channel covers.

        The result is memoized (the kernel is immutable); callers get a
        fresh dict each time."""
        if self._heuristic is not None:
            return dict(self._heuristic)
        n = self.n_channels
        if n == 0:
            self._heuristic = {}
            return {}
        deficits = self.deficits
        weights = [
            max(deficits[r] for r in rows) if rows else 0
            for rows in self._channel_rows
        ]
        coverage = [0] * self.n_cycles
        for j, rows in enumerate(self._channel_rows):
            w = weights[j]
            if w:
                for r in rows:
                    coverage[r] += w
        fixed = [False] * n
        n_fixed = 0
        while n_fixed < n:
            for j in range(n):  # columns are already in sorted-id order
                if fixed[j]:
                    continue
                if weights[j] == 0:
                    fixed[j] = True
                    n_fixed += 1
                    continue
                rows = self._channel_rows[j]
                ok = True
                for r in rows:
                    if coverage[r] - 1 < deficits[r]:
                        ok = False
                        break
                if ok:
                    weights[j] -= 1
                    for r in rows:
                        coverage[r] -= 1
                else:
                    fixed[j] = True
                    n_fixed += 1
        self._heuristic = {
            self.channels[j]: w for j, w in enumerate(weights) if w > 0
        }
        return dict(self._heuristic)

    # ------------------------------------------------------------------
    # Exact search
    # ------------------------------------------------------------------
    def root_lower_bound(self) -> int:
        """The disjoint-packing admissible bound at the root: greedily
        pack cycles (in decreasing-deficit order) whose cover masks are
        pairwise disjoint; no token helps two of them, so their summed
        deficits bound every solution's cost from below
        (docs/THEORY.md)."""
        bound = 0
        acc = 0
        for row in range(self.n_cycles):
            cm = self._cover_mask[row]
            if not (cm & acc):
                bound += self.deficits[row]
                acc |= cm
        return bound

    def feasible(
        self,
        budget: int,
        *,
        deadline: float | None = None,
        table: dict | None = None,
        stats: KernelStats | None = None,
    ) -> dict[int, int] | None:
        """Weights of a solution using at most ``budget`` tokens, or
        ``None`` -- one "is there a solution with <= K tokens?" query of
        the paper's binary search.

        ``deadline`` is an absolute monotonic instant checked inside the
        DFS every :data:`DEADLINE_STRIDE` nodes; ``table`` lets
        bisection probes share one transposition table.
        """
        ExactTimeout = _exact_timeout()
        stats = stats if stats is not None else self.stats
        table = table if table is not None else {}
        residual = list(self.deficits)
        alive = (1 << self.n_cycles) - 1
        weights = [0] * self.n_channels
        cover_cols = self._cover_cols
        channel_rows = self._channel_rows
        cover_mask = self._cover_mask

        def dfs(alive: int, remaining: int) -> bool:
            stats.nodes_explored += 1
            if (
                deadline is not None
                and stats.nodes_explored % DEADLINE_STRIDE == 0
            ):
                now = time.monotonic()
                if now > deadline:
                    raise ExactTimeout(overshoot=now - deadline)
            if not alive:
                return True
            # One pass over alive rows: the worst residual (for the
            # branch choice and the paper's prune) and the greedy
            # disjoint-packing lower bound.
            worst = 0
            worst_row = -1
            bound = 0
            acc = 0
            m = alive
            while m:
                row = (m & -m).bit_length() - 1
                m &= m - 1
                r = residual[row]
                if r > worst:
                    worst, worst_row = r, row
                cm = cover_mask[row]
                if not (cm & acc):
                    bound += r
                    acc |= cm
            if worst > remaining:
                return False
            if bound > remaining:
                stats.bound_cuts += 1
                return False
            key = tuple(residual)
            prev = table.get(key)
            if prev is not None and prev >= remaining:
                stats.table_hits += 1
                return False
            for col in cover_cols[worst_row]:
                weights[col] += 1
                dead = 0
                touched = []
                for row in channel_rows[col]:
                    if residual[row] > 0:
                        residual[row] -= 1
                        touched.append(row)
                        if residual[row] == 0:
                            dead |= 1 << row
                if dfs(alive & ~dead, remaining - 1):
                    return True
                for row in touched:
                    residual[row] += 1
                weights[col] -= 1
            if prev is None or remaining > prev:
                table[key] = remaining
            return False

        if dfs(alive, budget):
            return {
                self.channels[j]: w for j, w in enumerate(weights) if w
            }
        return None

    def solve_exact(
        self, *, timeout: float | None = None
    ) -> tuple[dict[int, int], KernelStats]:
        """Minimum-cost residual weights by bisection over the budget.

        Mirrors the reference ``_search`` contract: the heuristic
        descent's cost is the known-feasible upper bound, feasibility is
        monotone in the budget, and the converged probe's weights come
        back.  One transposition table serves every probe.  Raises
        :class:`~repro.core.solvers.ExactTimeout` once ``timeout``
        seconds have passed.  Returns the weights and this search's
        counters, which are also added to :attr:`stats`.
        """
        stats = KernelStats()
        if not self.deficits:
            return {}, stats
        deadline = None if timeout is None else time.monotonic() + timeout
        best = self._bisect(deadline, stats)
        self.stats.nodes_explored += stats.nodes_explored
        self.stats.table_hits += stats.table_hits
        self.stats.bound_cuts += stats.bound_cuts
        return best, stats

    def _bisect(
        self, deadline: float | None, stats: KernelStats
    ) -> dict[int, int]:
        """:meth:`solve_exact`'s probe sequence: the floor, the
        bisection, then the converged budget."""
        ExactTimeout = _exact_timeout()

        def expired() -> bool:
            return deadline is not None and time.monotonic() > deadline

        if expired():
            raise ExactTimeout
        heuristic = self.solve_heuristic()
        high = sum(heuristic.values())
        # Root disjoint-packing bound (admissible, see feasible()):
        # tighten the bisection floor, and when the heuristic already
        # meets it, its solution is provably optimal -- no search at all.
        low = max(self.root_lower_bound(), self.deficits[0])
        if high <= low:
            return heuristic
        table: dict = {}
        # Probe the floor first: any solution within ``low`` tokens
        # costs exactly ``low`` (no feasible assignment can beat the
        # admissible bound), so a hit ends the search in one probe.
        found = self.feasible(low, deadline=deadline, table=table, stats=stats)
        if found is not None:
            return found
        low += 1
        if high <= low:
            return heuristic
        best: dict[int, int] | None = None
        while low < high:
            if expired():
                raise ExactTimeout
            mid = (low + high) // 2
            found = self.feasible(
                mid, deadline=deadline, table=table, stats=stats
            )
            if found is not None:
                best = found
                high = sum(found.values())
            else:
                low = mid + 1
        if best is None or sum(best.values()) > low:
            if expired():
                raise ExactTimeout
            best = self.feasible(
                low, deadline=deadline, table=table, stats=stats
            )
            if best is None:  # pragma: no cover - upper bound is feasible
                raise RuntimeError(
                    "binary search converged on infeasible budget"
                )
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TdKernel(cycles={self.n_cycles}, channels={self.n_channels})"
        )


def compile_td(instance: td.TokenDeficitInstance) -> TdKernel:
    """Lower a :class:`TokenDeficitInstance` into a :class:`TdKernel`.

    Rows are the instance's residual cycles ordered by decreasing
    deficit (ties by cycle index) -- the order the packing bound greedily
    consumes; columns are the covering channels in ascending id order
    (the reference solvers' deterministic branch/descent order).
    Channels covering no residual cycle are dropped (they can never
    usefully carry weight).

    The result is memoized on the instance, so the heuristic and exact
    solvers running on one instance share a single compile
    (simplifying or :meth:`TokenDeficitInstance.invalidate_cover_index`
    drops the memo).

    Raises:
        InfeasibleError: If a residual cycle has no covering channel.
    """
    cached = getattr(instance, "_kernel", None)
    if isinstance(cached, TdKernel):
        return cached
    order = sorted(
        instance.deficits, key=lambda idx: (-instance.deficits[idx], idx)
    )
    row_of = {idx: row for row, idx in enumerate(order)}
    covers: dict[int, list[int]] = {idx: [] for idx in order}
    cols: list[int] = []
    for cid in sorted(instance.sets):
        covered = [idx for idx in instance.sets[cid] if idx in row_of]
        if covered:
            cols.append(cid)
            for idx in covered:
                covers[idx].append(cid)
    uncovered = [idx for idx in order if not covers[idx]]
    if uncovered:
        raise td.InfeasibleError(
            f"cycles {uncovered} have no covering sizable channel"
        )
    col_of = {cid: j for j, cid in enumerate(cols)}
    cover_cols = tuple(
        tuple(col_of[cid] for cid in covers[idx]) for idx in order
    )
    channel_rows_mut: list[list[int]] = [[] for _ in cols]
    for row, idx in enumerate(order):
        for cid in covers[idx]:
            channel_rows_mut[col_of[cid]].append(row)
    kern = TdKernel(
        channels=tuple(cols),
        cycle_ids=tuple(order),
        deficits=tuple(instance.deficits[idx] for idx in order),
        cover_cols=cover_cols,
        channel_rows=tuple(tuple(rows) for rows in channel_rows_mut),
        forced=instance.forced,
    )
    try:
        instance._kernel = kern
    except AttributeError:  # pragma: no cover - slotted stand-ins
        pass
    return kern
