"""The parallel cached analysis engine.

:class:`AnalysisEngine` is the batch substrate under the experiment
runners, the Table V exhaustive sweep, the CLI's ``--jobs``/``--cache``
flags, and the benchmarks.  It owns three concerns:

* **fan-out** -- independent analyses go through a
  :class:`~concurrent.futures.ProcessPoolExecutor`; results always come
  back in submission order, so a parallel run is a drop-in replacement
  for the serial loop it replaces;
* **memoization** -- results are cached under a content hash of the
  serialized system + op + options (in-memory LRU always, pickle files
  under ``cache_dir`` optionally), so repeated sweeps and overlapping
  experiments never recompute a minimum cycle mean;
* **observability** -- per-op timing, hit/miss/disk-hit counters and
  solver-call counts accumulate in :class:`EngineStats`, render as
  text, and persist into the cache directory for
  ``python -m repro stats``;
* **self-healing** -- hour-scale sweeps must survive infrastructure
  faults, not just compute them: every pool op gets a wall-clock
  timeout with bounded retry + exponential backoff, a broken process
  pool (worker SIGKILLed, OOMed, segfaulted) is detected, rebuilt, and
  the in-flight ops replayed, and an op that keeps breaking the pool
  degrades to in-process serial execution rather than sinking the
  batch.  Every recovery action is counted in :class:`EngineStats`.
"""

from __future__ import annotations

import copy
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence

from ..analysis import Context
from ..core.lis_graph import LisGraph
from ..core.serialize import lis_to_json
from ..obs import Counters, render
from .cache import DiskCache, LruCache, content_key
from .ops import run_op

__all__ = ["AnalysisEngine", "EngineStats", "analyze_many"]


#: Counters kept per op name (``ops/<op>/<field>`` keys).
OP_FIELDS = (
    "calls",
    "hits",
    "disk_hits",
    "misses",
    "coalesced",
    "seconds",
    "solver_calls",
    "failures",
)

#: Engine-wide counters (the stats document's top-level keys).  The
#: self-healing ones count ops replayed after a pool fault, per-op
#: wall-clock timeouts, pool teardown/rebuild events, ops that fell
#: back to in-process serial execution, ops that ultimately failed
#: (their exception is attached to the task outcome), corrupt disk
#: cache entries quarantined, and tasks served from a checkpoint file
#: instead of being recomputed.
ENGINE_FIELDS = (
    "batches",
    "tasks",
    "wall_seconds",
    "serialize_seconds",
    "retries",
    "op_timeouts",
    "pool_rebuilds",
    "serial_fallbacks",
    "failures",
    "corrupt_entries",
    "checkpoint_hits",
)

#: Name-column headings of the stats tables.
_TITLES = {"ops": "op", "context": "artifact", "solver": "solver counter"}


class EngineStats:
    """The engine's counters, on one :class:`repro.obs.Counters`.

    Keys are paths into the stats document (``/stats`` -> ``engine``,
    ``stats.json``): ``ops/<op>/<field>`` (:data:`OP_FIELDS`),
    ``context/<artifact>.<hit|miss>`` (the repro.analysis counters of
    every op run), ``solver/<counter>`` (solver-kernel search counters
    of every op that ran a registry solver), and the engine-wide
    :data:`ENGINE_FIELDS`.  Engine-wide fields and the per-op fields
    summed over every op read as attributes (``stats.tasks``,
    ``stats.hits``).

    Long-lived processes (the analysis server, notebook sessions) take
    a :meth:`snapshot` before an operation and a :meth:`delta`
    afterwards to get exactly what that operation contributed, without
    resetting the cumulative view other readers rely on.
    """

    __slots__ = ("counters",)

    def __init__(self, values: Mapping[str, float] | None = None) -> None:
        self.counters = Counters(values, fields=ENGINE_FIELDS)

    def __getattr__(self, name: str):
        if name in ENGINE_FIELDS:
            return self.counters.get(name)
        if name in OP_FIELDS:  # summed over ops: stats.hits, stats.misses
            return sum(op[name] for op in self.as_dict()["ops"].values())
        raise AttributeError(name)

    def op(self, name: str) -> SimpleNamespace:
        """One op's counters, as attributes (zero if it never ran)."""
        return SimpleNamespace(
            **{f: self.counters.get(f"ops/{name}/{f}") for f in OP_FIELDS}
        )

    @property
    def ops(self) -> dict[str, SimpleNamespace]:
        return {name: self.op(name) for name in self.as_dict()["ops"]}

    @property
    def context(self) -> dict[str, int]:
        return self.as_dict()["context"]

    @property
    def solver(self) -> dict[str, int]:
        return self.as_dict()["solver"]

    @property
    def hit_rate(self) -> float:
        served = self.hits + self.disk_hits + self.misses
        return (self.hits + self.disk_hits) / served if served else 0.0

    def as_dict(self) -> dict:
        """The stats document: every engine-wide field and every
        field of each op that ran, zeros included."""
        doc = self.counters.as_dict()
        doc["ops"] = {
            name: {f: fields.get(f, 0) for f in OP_FIELDS}
            for name, fields in doc.get("ops", {}).items()
        }
        doc.setdefault("context", {})
        doc.setdefault("solver", {})
        return doc

    def snapshot(self) -> "EngineStats":
        """An independent copy of the current counters."""
        return EngineStats(self.counters.snapshot())

    def delta(self, before: "EngineStats") -> "EngineStats":
        """The counters accumulated since the ``before`` snapshot; ops
        (and counter keys) that saw no traffic are dropped."""
        return EngineStats(self.counters.delta(before.counters.snapshot()))

    def render(self) -> str:
        """Human-readable stats block (``repro analyze --stats``,
        ``repro stats``)."""
        return f"hit rate: {self.hit_rate:.1%}\n" + render(
            self.as_dict(), _TITLES
        )


def _default_jobs() -> int:
    return max(1, os.cpu_count() or 1)


class _TaskFailure:
    """Internal marker carried through the result list for a task whose
    op raised (or exhausted its retries): the exception travels with
    the task instead of aborting its siblings."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException) -> None:
        self.error = error


class AnalysisEngine:
    """Parallel, cached, self-healing executor of LIS analysis
    operations.

    Args:
        jobs: Worker processes.  ``None``, 0 or 1 run everything in
            process (no pool); ``"auto"`` uses the CPU count.
        cache_size: In-memory LRU capacity (entries; 0 disables).
        cache_dir: Optional on-disk cache directory, shared across
            engines and runs.
        op_timeout: Optional wall-clock budget in seconds granted to
            each pooled op (measured from when the engine starts
            waiting on it, so a queued op is never charged for its
            predecessors).  A timed-out op's worker is presumed wedged:
            the pool is rebuilt and the op retried up to
            ``max_retries`` times before a ``TimeoutError`` is attached
            to its task.  ``None`` (default) waits forever.
        max_retries: Replay budget per op for pool-level faults (worker
            killed, pool broken, timeout) before giving up -- a pool
            fault exhausting its retries degrades to one in-process
            serial execution instead of failing.  Op-level exceptions
            (the op itself raising) are deterministic and never
            retried.
        retry_backoff: Base of the exponential backoff slept between
            replay rounds (``retry_backoff * 2**round`` seconds, capped
            at 4s).

    Use as a context manager (or call :meth:`close`) so the worker
    pool is reaped and stats are persisted to the cache directory.
    """

    def __init__(
        self,
        jobs: int | str | None = None,
        cache_size: int = 4096,
        cache_dir: str | os.PathLike | None = None,
        op_timeout: float | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.25,
    ) -> None:
        if jobs == "auto":
            jobs = _default_jobs()
        self.jobs = max(1, int(jobs or 1))
        self.op_timeout = op_timeout
        self.max_retries = max(0, int(max_retries))
        self.retry_backoff = max(0.0, float(retry_backoff))
        self.stats = EngineStats()
        self._memory = LruCache(cache_size)
        self._disk = DiskCache(cache_dir) if cache_dir else None
        self._pool: ProcessPoolExecutor | None = None
        self._closed = False

    # -- lifecycle ----------------------------------------------------

    def __enter__(self) -> "AnalysisEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down and persist cumulative stats."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        self.flush_stats()

    def flush_stats(self) -> None:
        """Merge this engine's counters into ``<cache_dir>/stats.json``
        (no-op without a cache directory)."""
        if self._disk is not None and self.stats.tasks:
            self._disk.merge_stats(self.stats.as_dict())

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def _rebuild_pool(self) -> None:
        """Tear the (presumed broken or wedged) pool down -- terminating
        any worker that is still alive, e.g. one stuck in a timed-out op
        -- so the next :meth:`_ensure_pool` starts fresh."""
        pool, self._pool = self._pool, None
        if pool is not None:
            for proc in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    proc.terminate()
                except Exception:
                    pass
            pool.shutdown(wait=False, cancel_futures=True)
        self.stats.counters.add("pool_rebuilds")

    # -- the batch surface --------------------------------------------

    def run(
        self, tasks: Sequence[tuple], return_exceptions: bool = False
    ) -> list:
        """Execute ``(op, lis, options)`` tasks; results in task order.

        ``lis`` may be a :class:`LisGraph`, an
        :class:`~repro.analysis.Context` (its canonical JSON is already
        computed, so serialization is free and in-process runs reuse
        the context's artifacts), or the canonical JSON text itself.
        Identical tasks inside one batch are computed once (coalesced);
        cached results are served without touching the pool.

        One task raising never discards its siblings: **every** task in
        the batch is completed and every success is cached before
        failures are reported.  With ``return_exceptions=False`` (the
        default) the first failing task's exception -- in task order --
        then propagates, exactly as the historical surface did (e.g.
        :class:`ExactTimeout` from an exact op).  With
        ``return_exceptions=True`` the exception object itself is
        returned in that task's slot instead, preserving the
        documented deterministic ordering.
        """
        t_start = time.perf_counter()
        counts = self.stats.counters
        counts.merge({"batches": 1, "tasks": len(tasks)})

        results: list = [None] * len(tasks)
        # key -> (op, lis_json, options, [indices])
        pending: dict[str, list] = {}
        try:
            for i, task in enumerate(tasks):
                op, lis, options = (*task, None)[:3]
                t0 = time.perf_counter()
                if isinstance(lis, str):
                    lis_json = lis
                elif isinstance(lis, Context):
                    lis_json = lis.lis_json
                else:
                    lis_json = lis_to_json(lis)
                counts.add("serialize_seconds", time.perf_counter() - t0)
                key = content_key(op, lis_json, options)
                counts.add(f"ops/{op}/calls")
                if key in self._memory:
                    counts.add(f"ops/{op}/hits")
                    results[i] = copy.deepcopy(self._memory.get(key))
                    continue
                if self._disk is not None:
                    try:
                        value = self._disk.get(op, key)
                    except KeyError:
                        pass
                    else:
                        counts.add(f"ops/{op}/disk_hits")
                        self._memory.put(key, value)
                        results[i] = copy.deepcopy(value)
                        continue
                if key in pending:
                    counts.add(f"ops/{op}/coalesced")
                    pending[key][3].append(i)
                else:
                    pending[key] = [op, lis_json, options, [i]]

            if pending:
                self._execute(pending, results)
        finally:
            if self._disk is not None:
                fresh = self._disk.corrupt_entries - counts.corrupt_entries
                if fresh:
                    counts.add("corrupt_entries", fresh)
            counts.add("wall_seconds", time.perf_counter() - t_start)

        first_error: BaseException | None = None
        for i, value in enumerate(results):
            if isinstance(value, _TaskFailure):
                if first_error is None:
                    first_error = value.error
                results[i] = value.error
        if first_error is not None and not return_exceptions:
            raise first_error
        return results

    def _execute(self, pending: dict[str, list], results: list) -> None:
        items = list(pending.items())
        if self.jobs > 1 and len(items) > 1:
            outcomes = self._execute_pool(
                [
                    (op, lis_json, options)
                    for _, (op, lis_json, options, _) in items
                ]
            )
        else:
            outcomes = [
                self._run_local(op, lis_json, options)
                for _, (op, lis_json, options, _) in items
            ]
        counts = self.stats.counters
        for (key, (op, _, _, indices)), outcome in zip(items, outcomes):
            if isinstance(outcome, _TaskFailure):
                counts.merge({f"ops/{op}/failures": 1, "failures": 1})
                for i in indices:
                    results[i] = outcome
                continue
            value, meta = outcome
            context = meta.get("context") or {}
            solver = meta.get("solver") or {}
            counts.merge(
                {
                    f"ops/{op}/misses": 1,
                    f"ops/{op}/seconds": meta.get("elapsed", 0.0),
                    f"ops/{op}/solver_calls": meta.get("solver_calls", 0),
                    **{f"context/{k}": n for k, n in context.items()},
                    **{f"solver/{k}": n for k, n in solver.items()},
                }
            )
            self._memory.put(key, value)
            if self._disk is not None:
                self._disk.put(op, key, value)
            for i in indices:
                results[i] = copy.deepcopy(value)

    def _run_local(self, op: str, lis_json: str, options: dict | None):
        """In-process execution; op-level exceptions become task
        failures rather than aborting the batch."""
        try:
            return run_op(op, lis_json, options)
        except Exception as exc:
            return _TaskFailure(exc)

    def _execute_pool(self, calls: list[tuple]) -> list:
        """Fan ``calls`` out over the worker pool, healing pool-level
        faults: a timed-out or broken-pool op is replayed (fresh pool)
        up to ``max_retries`` times with exponential backoff; an op
        that exhausts its replays on pool faults runs once in-process
        (serial degradation).  Returns one ``(value, meta)`` or
        :class:`_TaskFailure` per call, in call order."""
        outcomes: list = [None] * len(calls)
        attempts = [0] * len(calls)
        todo = list(range(len(calls)))
        round_no = 0
        while todo:
            pool = self._ensure_pool()
            futures: dict[int, object] = {}
            broken = False
            try:
                for i in todo:
                    futures[i] = pool.submit(run_op, *calls[i])
            except BrokenProcessPool:
                broken = True
            retry: list[int] = []

            def fault(i: int, failure: _TaskFailure | None) -> None:
                """Replay ``i`` if it has budget left; otherwise attach
                ``failure``, or degrade to serial when the fault was
                pool-level (failure is None)."""
                attempts[i] += 1
                if attempts[i] <= self.max_retries:
                    retry.append(i)
                elif failure is not None:
                    outcomes[i] = failure
                else:
                    self.stats.counters.add("serial_fallbacks")
                    outcomes[i] = self._run_local(*calls[i])

            for i in todo:
                future = futures.get(i)
                if future is None or (broken and not future.done()):
                    # Never ran (or died with the pool): replay it.
                    fault(i, None)
                    continue
                try:
                    outcomes[i] = future.result(
                        timeout=None if broken else self.op_timeout
                    )
                except _FutureTimeout:
                    self.stats.counters.add("op_timeouts")
                    broken = True  # the worker is wedged; rebuild below
                    fault(
                        i,
                        _TaskFailure(
                            TimeoutError(
                                f"op {calls[i][0]!r} exceeded "
                                f"op_timeout={self.op_timeout}s "
                                f"(attempt {attempts[i] + 1})"
                            )
                        ),
                    )
                except BrokenProcessPool:
                    broken = True
                    fault(i, None)
                except Exception as exc:
                    # The op itself raised: deterministic, not retried.
                    outcomes[i] = _TaskFailure(exc)
            if broken:
                self._rebuild_pool()
            todo = retry
            if todo:
                self.stats.counters.add("retries", len(todo))
                delay = self.retry_backoff * (2**round_no)
                round_no += 1
                if delay > 0:
                    time.sleep(min(delay, 4.0))
        return outcomes

    def map(
        self,
        op: str,
        systems: Iterable[LisGraph | Context | str],
        options: dict | None = None,
    ) -> list:
        """Run one op over many systems with shared options."""
        return self.run([(op, lis, options) for lis in systems])

    # -- single-system conveniences -----------------------------------

    def _one(self, op: str, lis: LisGraph | Context | str, options: dict | None = None):
        return self.run([(op, lis, options)])[0]

    def ideal_mst(self, lis: LisGraph | Context | str):
        """Cached :func:`repro.core.ideal_mst` (a ThroughputResult)."""
        return self._one("ideal_mst", lis)

    def actual_mst(self, lis: LisGraph | Context | str, extra_tokens=None):
        """Cached :func:`repro.core.actual_mst`."""
        options = (
            {"extra_tokens": dict(extra_tokens)} if extra_tokens else None
        )
        return self._one("actual_mst", lis, options)

    def size_queues(self, lis: LisGraph | Context | str, **options):
        """Cached :func:`repro.core.size_queues` (same keywords)."""
        return self._one("size_queues", lis, options or None)

    def analyze(self, lis: LisGraph | Context | str, **options):
        """Cached :func:`repro.core.analyze` full report."""
        return self._one("analyze", lis, options or None)


def analyze_many(
    systems: Sequence[LisGraph | Context | str],
    jobs: int | str | None = None,
    cache_dir: str | os.PathLike | None = None,
    engine: AnalysisEngine | None = None,
    **options,
) -> list:
    """Full :class:`~repro.core.AnalysisReport` for each system.

    Batch counterpart of :func:`repro.core.analyze`: fans out over
    ``jobs`` worker processes (deterministic result order) and caches
    under ``cache_dir`` when given.  Pass an existing ``engine`` to
    reuse its pool, cache, and stats; otherwise a transient engine is
    created and closed around the batch.
    """
    if engine is not None:
        return engine.map("analyze", systems, options or None)
    with AnalysisEngine(jobs=jobs, cache_dir=cache_dir) as local:
        return local.map("analyze", systems, options or None)
