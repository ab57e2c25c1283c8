"""Sharded engine workers with admission control and supervision.

Execution substrate of the server: ``shards`` long-lived
:class:`~repro.engine.AnalysisEngine` handles, each owning a bounded
queue and a single dedicated executor thread that runs its ops.
Jobs are routed by content fingerprint, so repeated content always
lands on the shard whose in-memory LRU already holds it -- the disk
cache (shared, multi-process safe) backs all shards.

Admission control is load-shedding, not buffering: when a shard's
queue is full the request is rejected *immediately* with a
``Retry-After`` hint computed from the server's own queue model
(backlog x mean service time), because a bounded wait with an honest
retry hint beats an unbounded queue every time.  A request with a
deadline shorter than the predicted wait is likewise refused up front
-- the self-model (Little's Law) acting as the admission controller.

Resilience (see :mod:`~repro.server.resilience`): every shard carries
a :class:`~repro.server.resilience.CircuitBreaker` and per-job
heartbeat/in-flight records for the
:class:`~repro.server.resilience.ShardSupervisor`.  Routing fails
over to a healthy sibling while the primary's breaker is open
(content ops are pure and content-keyed, so re-routing is always
safe); with *every* breaker open the pool degrades to serving disk
cache hits only.  Shutdown and supervision share one guarantee: an
admitted job's ``done`` future always resolves -- with the result,
or with an honest :class:`~.protocol.RpcError` -- never by hanging.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..engine.core import AnalysisEngine, EngineStats
from ..obs import Counters
from .protocol import (
    ALL_SHARDS_DOWN,
    DEADLINE_EXCEEDED,
    OP_FAILED,
    OVERLOADED,
    SHUTTING_DOWN,
    WORKER_CRASHED,
    Job,
    RpcError,
)
from .qmodel import QueueModel
from .resilience import RESILIENCE_FIELDS, CircuitBreaker

if TYPE_CHECKING:  # pragma: no cover
    from .coalesce import InflightEntry

__all__ = ["ExecutionOutcome", "InflightJob", "ShardPool", "ShardState"]


@dataclass
class ExecutionOutcome:
    """The shared result of one executed (possibly coalesced) job."""

    value: object
    delta: EngineStats
    shard: int
    queued_s: float
    service_s: float
    #: Lazily cached JSON-able rendering (set by the app on first
    #: serialization so N coalesced subscribers serialize once).
    rendered: object = None
    #: True when the job ran on a shard other than its content-hash
    #: primary (the primary's breaker was open).
    failover: bool = False
    #: True when the result came straight off the disk cache with no
    #: shard serving (all breakers open).
    degraded: bool = False

    @property
    def cache_served(self) -> bool:
        return self.delta.misses == 0 and (
            self.delta.hits + self.delta.disk_hits > 0
        )


@dataclass
class InflightJob:
    """The job a shard worker is executing right now (watchdog food)."""

    job: Job
    entry: "InflightEntry"
    done: asyncio.Future
    t_arrival: float
    t_start: float


@dataclass
class ShardState:
    """Per-shard health record read by the supervisor and ``/healthz``."""

    index: int
    breaker: CircuitBreaker
    last_heartbeat: float
    inflight: InflightJob | None = None
    restarts: int = 0


class ShardPool:
    """``shards`` engine workers behind bounded queues.

    Args:
        shards: Engine workers (and executor threads).
        cache_dir: Shared disk-cache directory (multi-process safe).
        cache_bytes: Optional disk-cache size cap (oldest evicted).
        memo_size: In-memory memo entries per shard engine (0 turns
            result caching off entirely -- benchmark baselines).
        queue_limit: Bounded queue depth per shard; a full queue sheds.
        qmodel: The server's queue model (arrivals/departures are
            recorded here so the self-model sees exactly the admitted
            executions).
        failover: Route around shards whose breaker is open (content
            ops are pure, so any shard can serve any key).
        breaker_threshold / breaker_window / breaker_cooldown:
            Per-shard :class:`~.resilience.CircuitBreaker` tuning.
    """

    def __init__(
        self,
        shards: int = 1,
        cache_dir=None,
        cache_bytes: int | None = None,
        memo_size: int = 4096,
        queue_limit: int = 64,
        qmodel: QueueModel | None = None,
        failover: bool = True,
        breaker_threshold: int = 5,
        breaker_window: float = 30.0,
        breaker_cooldown: float = 5.0,
    ) -> None:
        self.shards = max(1, int(shards))
        self.cache_dir = cache_dir
        self.cache_bytes = cache_bytes
        self.memo_size = max(0, int(memo_size))
        self.queue_limit = max(1, int(queue_limit))
        self.qmodel = qmodel or QueueModel(servers=self.shards)
        self.failover = bool(failover)
        self.resilience = Counters(fields=RESILIENCE_FIELDS)
        self.states: list[ShardState] = [
            ShardState(
                index=idx,
                breaker=CircuitBreaker(
                    threshold=breaker_threshold,
                    window=breaker_window,
                    cooldown=breaker_cooldown,
                ),
                last_heartbeat=time.monotonic(),
            )
            for idx in range(self.shards)
        ]
        self.engines: list[AnalysisEngine] = []
        self._queues: list[asyncio.Queue] = []
        self._executors: list[ThreadPoolExecutor] = []
        self._workers: list[asyncio.Task | None] = []
        self._started = False
        self._closing = False
        #: Jobs admitted to a shard queue (qmodel arrivals).
        self.admitted = 0
        #: Admitted jobs whose ``done`` future was resolved -- result
        #: or error.  The chaos invariant: after drain, equals
        #: ``admitted``; no admitted request may hang.
        self.terminals = 0
        #: Chaos seam: called as ``hook(shard, job)`` in the worker
        #: thread right before the engine runs -- raising injects an
        #: executor exception, sleeping injects executor latency.
        self.chaos_hook: Callable[[int, Job], None] | None = None

    # -- lifecycle ----------------------------------------------------

    @property
    def running(self) -> bool:
        return self._started and not self._closing

    def start(self) -> None:
        """Build engines, queues, and worker tasks (event loop
        required)."""
        if self._started:
            return
        self._started = True
        now = time.monotonic()
        for idx in range(self.shards):
            self.engines.append(self._build_engine())
            self._queues.append(asyncio.Queue(maxsize=self.queue_limit))
            self._executors.append(self._build_executor(idx))
            self.states[idx].last_heartbeat = now
            self._workers.append(self._spawn_worker(idx))

    def _build_engine(self) -> AnalysisEngine:
        engine = AnalysisEngine(
            cache_size=self.memo_size, cache_dir=self.cache_dir
        )
        if self.cache_bytes is not None and engine._disk is not None:
            engine._disk.max_bytes = self.cache_bytes
        return engine

    def _build_executor(self, idx: int) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-shard-{idx}"
        )

    def _spawn_worker(self, idx: int) -> asyncio.Task:
        return asyncio.get_running_loop().create_task(
            self._worker(idx), name=f"repro-shard-worker-{idx}"
        )

    def worker_task(self, idx: int) -> asyncio.Task | None:
        if not self._started or idx >= len(self._workers):
            return None
        return self._workers[idx]

    def kill_worker(self, idx: int) -> None:
        """Chaos helper: make shard ``idx``'s drain loop die exactly
        the way an escaped exception would -- the task ends, any
        in-flight record is left orphaned for the supervisor."""
        task = self.worker_task(idx)
        if task is not None and not task.done():
            task.cancel()

    def restart_shard(
        self,
        idx: int,
        rebuild_engine: bool = False,
        abandon_executor: bool = False,
    ) -> None:
        """Replace shard ``idx``'s worker task (supervisor action).

        ``abandon_executor`` swaps in a fresh executor thread, leaving
        a wedged one to finish (or never finish) unobserved;
        ``rebuild_engine`` replaces the engine handle too -- the
        abandoned thread still holds the old engine and may yet write
        to its memo and counters, so a fresh worker must not share
        them.
        """
        if not self._started or self._closing:
            return
        state = self.states[idx]
        task = self._workers[idx]
        if task is not None and not task.done():
            task.cancel()
        if abandon_executor:
            self._executors[idx].shutdown(wait=False, cancel_futures=True)
            self._executors[idx] = self._build_executor(idx)
        if rebuild_engine:
            old = self.engines[idx]
            self.engines[idx] = self._build_engine()
            self.resilience.add("engine_rebuilds")
            try:
                old.close()
            except Exception:  # pragma: no cover - defensive
                pass
        state.inflight = None
        state.restarts += 1
        state.last_heartbeat = time.monotonic()
        self.resilience.add("worker_restarts")
        self._workers[idx] = self._spawn_worker(idx)

    async def close(self) -> None:
        """Stop accepting, stop the workers, and fail every job that
        never got an answer -- queued or in flight -- with an honest
        ``SHUTTING_DOWN`` error.  Concurrent ``execute()`` awaiters
        must *never* hang on shutdown."""
        self._closing = True
        for task in self._workers:
            if task is not None:
                task.cancel()
        for task in self._workers:
            if task is None:
                continue
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        # Orphans first (jobs a worker had in flight)...
        for idx in range(len(self.states)):
            self.fail_inflight(
                idx,
                RpcError(
                    SHUTTING_DOWN,
                    "server shut down while the job was running",
                ),
                counter="shutdown_failed",
            )
        # ...then everything still queued and never started.
        for queue in self._queues:
            while not queue.empty():
                job, entry, done, t_arrival = queue.get_nowait()
                if done.done():
                    continue
                self.qmodel.record_departure(
                    time.monotonic() - t_arrival, 0.0
                )
                self.terminals += 1
                self.resilience.add("shutdown_failed")
                self._publish(
                    entry,
                    {"event": "done", "ok": False, "shard": None},
                )
                done.set_exception(
                    RpcError(
                        SHUTTING_DOWN,
                        "server shut down before the job ran",
                    )
                )
        # A wedged executor thread must not block shutdown; abandoned
        # ops resolve nothing (their futures are already failed).
        for executor in self._executors:
            executor.shutdown(wait=False, cancel_futures=True)
        for engine in self.engines:
            engine.close()
        self._workers.clear()
        self._started = False

    # -- routing & admission ------------------------------------------

    def shard_of(self, key: str) -> int:
        """Deterministic content-hash routing: equal content, equal
        shard (and therefore one warm in-memory LRU entry)."""
        return int(key[:8], 16) % self.shards

    def route(self, key: str) -> tuple[int | None, bool]:
        """Pick the serving shard: the content-hash primary, or --
        when its breaker is open and failover is on -- the first
        healthy sibling walking up from it.  ``(None, False)`` means
        every breaker refused (degraded mode decides next)."""
        primary = self.shard_of(key)
        if self.states[primary].breaker.allow():
            return primary, False
        if not self.failover or self.shards == 1:
            return None, False
        for step in range(1, self.shards):
            idx = (primary + step) % self.shards
            if self.states[idx].breaker.allow():
                self.resilience.add("failovers")
                return idx, True
        return None, False

    def depth(self) -> int:
        return sum(queue.qsize() for queue in self._queues)

    def predicted_wait(self, shard: int) -> float:
        """Self-modeled queue wait for a new arrival on ``shard``:
        backlog x mean service time (Little's Law's drain estimate)."""
        backlog = self._queues[shard].qsize()
        return backlog * max(self.qmodel.service_mean(), 0.0)

    def retry_after(self, shard: int) -> float:
        """An honest Retry-After hint: time for the full backlog to
        drain, clamped to something a client can act on."""
        service = self.qmodel.service_mean() or 0.05
        return min(max(self._queues[shard].qsize() * service, 0.05), 30.0)

    def health(self) -> dict:
        """Per-shard health for ``/healthz``: worker liveness, breaker
        state, queue depth, heartbeat age.  ``ok`` iff at least one
        shard is serving."""
        now = time.monotonic()
        shards = []
        serving = 0
        for idx, state in enumerate(self.states):
            worker = self.worker_task(idx)
            alive = worker is not None and not worker.done()
            breaker = state.breaker.state
            ok = alive and breaker != "open" and self.running
            serving += bool(ok)
            shards.append(
                {
                    "shard": idx,
                    "ok": ok,
                    "worker_alive": alive,
                    "breaker": breaker,
                    "queue_depth": (
                        self._queues[idx].qsize()
                        if idx < len(self._queues)
                        else 0
                    ),
                    "heartbeat_age_s": now - state.last_heartbeat,
                    "inflight": state.inflight is not None,
                    "restarts": state.restarts,
                }
            )
        return {
            "ok": serving > 0,
            "serving": serving,
            "shards": shards,
            "degraded": serving == 0 and self.cache_dir is not None,
        }

    async def execute(
        self, job: Job, entry: "InflightEntry"
    ) -> ExecutionOutcome:
        """Admit and run one leader job; the awaited outcome resolves
        the coalescer's shared future via the caller."""
        if not self.running:
            raise RpcError(SHUTTING_DOWN, "server is not running")
        shard, failed_over = self.route(job.key)
        if shard is None:
            outcome = self._degraded_lookup(job)
            if outcome is not None:
                self.resilience.add("degraded_served")
                self._publish(
                    entry,
                    {"event": "done", "ok": True, "shard": None,
                     "degraded": True},
                )
                return outcome
            self.resilience.add("all_shards_down")
            raise RpcError(
                ALL_SHARDS_DOWN,
                f"all {self.shards} shard(s) are unavailable and the "
                "disk cache has no answer; retry after the breaker "
                "cooldown",
                data={"shards": self.shards},
                retry_after=self._min_cooldown(),
            )
        queue = self._queues[shard]
        if queue.full():
            raise RpcError(
                OVERLOADED,
                f"shard {shard} queue is full "
                f"({self.queue_limit} jobs deep); retry later",
                data={"shard": shard, "queue_depth": queue.qsize()},
                retry_after=self.retry_after(shard),
            )
        predicted = self.predicted_wait(shard)
        if job.deadline_s is not None and predicted > job.deadline_s:
            raise RpcError(
                DEADLINE_EXCEEDED,
                f"deadline {job.deadline_s * 1e3:.0f}ms is shorter than "
                f"the predicted queue wait {predicted * 1e3:.0f}ms; "
                "shedding at admission",
                data={
                    "predicted_wait_ms": predicted * 1e3,
                    "shard": shard,
                },
                retry_after=self.retry_after(shard),
            )
        done: asyncio.Future = asyncio.get_running_loop().create_future()
        self.qmodel.record_arrival()
        self.admitted += 1
        self._publish(
            entry,
            {
                "event": "accepted",
                "shard": shard,
                "failover": failed_over,
                "position": queue.qsize(),
                "predicted_wait_ms": predicted * 1e3,
            },
        )
        queue.put_nowait((job, entry, done, time.monotonic()))
        outcome = await done
        if failed_over and isinstance(outcome, ExecutionOutcome):
            outcome.failover = True
        return outcome

    def _min_cooldown(self) -> float:
        remaining = [s.breaker.remaining() for s in self.states]
        return min(max(min(remaining), 0.05), 30.0) if remaining else 1.0

    def _degraded_lookup(self, job: Job) -> ExecutionOutcome | None:
        """All-shards-down fallback: a pure disk-cache read, no engine
        involved.  Content keys are the disk-cache keys, so a prior
        execution of the identical job anywhere serves this one."""
        seen = set()
        for engine in self.engines:
            disk = engine._disk
            if disk is None or id(disk) in seen:
                continue
            seen.add(id(disk))
            try:
                value = disk.get(job.op, job.key)
            except KeyError:
                continue
            return ExecutionOutcome(
                value=value,
                delta=EngineStats(
                    {f"ops/{job.op}/calls": 1, f"ops/{job.op}/disk_hits": 1}
                ),
                shard=-1,
                queued_s=0.0,
                service_s=0.0,
                degraded=True,
            )
        return None

    # -- terminal accounting ------------------------------------------

    @staticmethod
    def _publish(entry: "InflightEntry", event: dict) -> None:
        """Publish a progress event; a broken subscriber must never
        take the worker (or shutdown) down with it."""
        try:
            entry.publish(event)
        except Exception:  # pragma: no cover - defensive
            pass

    def fail_inflight(
        self, idx: int, error: RpcError, counter: str = "orphans_failed"
    ) -> bool:
        """Resolve shard ``idx``'s orphaned in-flight future with
        ``error`` (supervisor/shutdown path).  Exactly-once: a future
        the worker already resolved is left alone."""
        state = self.states[idx]
        inflight, state.inflight = state.inflight, None
        if inflight is None or inflight.done.done():
            return False
        now = time.monotonic()
        self.qmodel.record_departure(
            max(inflight.t_start - inflight.t_arrival, 0.0),
            max(now - inflight.t_start, 0.0),
        )
        self.terminals += 1
        self.resilience.add(counter)
        self._publish(
            inflight.entry,
            {
                "event": "done",
                "shard": idx,
                "ok": False,
                "orphaned": True,
            },
        )
        inflight.done.set_exception(error)
        return True

    # -- the shard worker ---------------------------------------------

    async def _worker(self, idx: int) -> None:
        """The drain loop.  Hardened: *nothing* a job does -- not the
        engine, not a progress subscriber, not result bookkeeping --
        may kill the loop silently.  An unexpected error resolves the
        job's future with an honest error and the loop keeps
        draining; a genuinely dying loop is the supervisor's problem
        (it restarts the worker and fails the orphan)."""
        queue = self._queues[idx]
        state = self.states[idx]
        while True:
            job, entry, done, t_arrival = await queue.get()
            state.last_heartbeat = time.monotonic()
            try:
                await self._run_one(idx, job, entry, done, t_arrival)
            except asyncio.CancelledError:
                queue.task_done()
                raise
            except Exception as exc:
                # The legacy failure mode: an exception outside the
                # engine call (e.g. in entry.publish) used to kill
                # this loop and hang every subscriber.
                self._settle(
                    idx,
                    job,
                    entry,
                    done,
                    t_arrival,
                    time.monotonic(),
                    None,
                    error=RpcError(
                        WORKER_CRASHED,
                        f"shard {idx} worker error outside the engine: "
                        f"{type(exc).__name__}: {exc}",
                    ),
                )
                queue.task_done()
            else:
                queue.task_done()

    async def _run_one(
        self,
        idx: int,
        job: Job,
        entry: "InflightEntry",
        done: asyncio.Future,
        t_arrival: float,
    ) -> None:
        loop = asyncio.get_running_loop()
        state = self.states[idx]
        engine = self.engines[idx]
        executor = self._executors[idx]
        t_start = time.monotonic()
        state.inflight = InflightJob(job, entry, done, t_arrival, t_start)
        self._publish(
            entry,
            {
                "event": "started",
                "shard": idx,
                "queued_ms": (t_start - t_arrival) * 1e3,
            },
        )
        before = engine.stats.snapshot()
        try:
            value = await loop.run_in_executor(
                executor, self._run_engine, idx, engine, job
            )
            error: RpcError | None = None
        except RpcError as exc:
            value, error = None, exc
        except Exception as exc:
            value, error = None, RpcError(OP_FAILED, str(exc))
        delta = engine.stats.delta(before)
        self._settle(
            idx,
            job,
            entry,
            done,
            t_arrival,
            t_start,
            value,
            delta=delta,
            error=error,
        )

    def _settle(
        self,
        idx: int,
        job: Job,
        entry: "InflightEntry",
        done: asyncio.Future,
        t_arrival: float,
        t_start: float,
        value: object,
        delta: EngineStats | None = None,
        error: RpcError | None = None,
    ) -> None:
        """Resolve one job's future exactly once, with the departure
        recorded and the shard's breaker fed."""
        state = self.states[idx]
        state.inflight = None
        state.last_heartbeat = time.monotonic()
        if done.done():
            # The supervisor (or shutdown) already answered the
            # subscribers; this late result must not double-count.
            return
        queued_s = max(t_start - t_arrival, 0.0)
        service_s = max(time.monotonic() - t_start, 0.0)
        self.qmodel.record_departure(queued_s, service_s)
        self.terminals += 1
        if error is None:
            state.breaker.record_success()
        else:
            state.breaker.record_failure()
        outcome = ExecutionOutcome(
            value=value,
            delta=delta if delta is not None else EngineStats(),
            shard=idx,
            queued_s=queued_s,
            service_s=service_s,
        )
        self._publish(
            entry,
            {
                "event": "done",
                "shard": idx,
                "ok": error is None,
                "service_ms": service_s * 1e3,
                "cache_served": outcome.cache_served,
            },
        )
        if error is not None:
            done.set_exception(error)
        else:
            done.set_result(outcome)

    def _run_engine(
        self, idx: int, engine: AnalysisEngine, job: Job
    ) -> object:
        """Thread body: one engine batch of one task, run in the shard
        thread; op failures surface as :class:`RpcError`."""
        hook = self.chaos_hook
        if hook is not None:
            hook(idx, job)
        result = engine.run(
            [(job.op, job.lis_json, job.options)], return_exceptions=True
        )[0]
        if isinstance(result, BaseException):
            raise RpcError(
                OP_FAILED,
                f"{job.op} failed: "
                f"{type(result).__name__}: {result}",
            )
        return result
