"""Resilient serving: supervision, circuit breaking, and retry policy.

The paper's latency-insensitive discipline -- stalls, retries, and
backpressure as first-class, correctness-preserving events -- applied
to the service itself.  Three pieces:

* :class:`CircuitBreaker` -- the per-shard health gate, a classic
  closed / open / half-open state machine driven by the shard's
  failure rate *and* by supervisor signals (a watchdog kill trips the
  breaker immediately).  While a breaker is open, content-keyed
  requests fail over to a healthy sibling shard (content ops are pure,
  so re-routing is always safe); when *every* breaker is open the pool
  degrades to serving disk-cache hits only.

* :class:`ShardSupervisor` -- the supervision tree over the shard
  workers.  Each worker records a heartbeat around every job; the
  supervisor restarts any worker whose task has died (today an
  exception escaping the drain loop would silently stop the shard
  forever) and watchdogs any op wedged past ``hang_timeout``
  (abandoning the stuck executor thread and rebuilding the engine).
  Every orphaned in-flight ``done`` future is resolved with an honest
  :class:`~.protocol.RpcError` -- an admitted request must always
  reach a terminal response, never hang its subscribers.

* :class:`RetryPolicy` -- the client half of the contract: jittered
  exponential backoff that honors ``Retry-After``, a deadline-aware
  retry budget, and a whitelist of *transient* error codes (overload,
  shutdown, crashed/wedged workers -- never deterministic op
  failures).

All three are seeded/deterministic where it matters: breakers take an
injectable clock, the retry jitter takes a seed, and the supervisor's
decisions are pure functions of observed timestamps -- so every chaos
finding replays.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from .protocol import (
    ALL_SHARDS_DOWN,
    OVERLOADED,
    SHUTTING_DOWN,
    WATCHDOG_TIMEOUT,
    WORKER_CRASHED,
    RpcError,
)

if TYPE_CHECKING:  # pragma: no cover
    from .pool import ShardPool

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "CircuitBreaker",
    "RESILIENCE_FIELDS",
    "RetryPolicy",
    "ShardSupervisor",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

#: Error codes a client may safely retry: the request never produced a
#: result (or would produce the same one elsewhere); re-sending cannot
#: duplicate work thanks to content-keyed coalescing + caching.
RETRYABLE_CODES = frozenset(
    {OVERLOADED, SHUTTING_DOWN, WORKER_CRASHED, WATCHDOG_TIMEOUT,
     ALL_SHARDS_DOWN}
)


class CircuitBreaker:
    """Closed / open / half-open health gate for one shard.

    * **closed** -- traffic flows; failures inside ``window`` seconds
      accumulate, and reaching ``threshold`` trips the breaker open.
    * **open** -- no traffic for ``cooldown`` seconds (callers fail
      over to a sibling shard); :meth:`remaining` says how long.
    * **half-open** -- after the cooldown, up to ``probes`` requests
      are let through; the first success closes the breaker, any
      failure re-opens it.

    A supervisor signal (worker crash, watchdog kill) can also
    :meth:`trip` the breaker directly -- failure *rate* is not the
    only health input.
    """

    def __init__(
        self,
        threshold: int = 5,
        window: float = 30.0,
        cooldown: float = 5.0,
        probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.threshold = max(1, int(threshold))
        self.window = float(window)
        self.cooldown = float(cooldown)
        self.probes = max(1, int(probes))
        self._clock = clock
        self._failures: deque[float] = deque()
        self._state = BREAKER_CLOSED
        self._opened_at = 0.0
        self._probes_used = 0
        #: Times this breaker tripped open (observability).
        self.opens = 0

    # -- state --------------------------------------------------------

    @property
    def state(self) -> str:
        """The current state, advancing open -> half-open lazily."""
        if (
            self._state == BREAKER_OPEN
            and self._clock() - self._opened_at >= self.cooldown
        ):
            self._state = BREAKER_HALF_OPEN
            self._probes_used = 0
        return self._state

    def remaining(self) -> float:
        """Seconds of cooldown left (0 unless open)."""
        if self.state != BREAKER_OPEN:
            return 0.0
        return max(0.0, self.cooldown - (self._clock() - self._opened_at))

    def allow(self) -> bool:
        """May a request be routed here right now?  In half-open this
        *consumes* one of the probe slots."""
        state = self.state
        if state == BREAKER_CLOSED:
            return True
        if state == BREAKER_OPEN:
            return False
        if self._probes_used < self.probes:
            self._probes_used += 1
            return True
        return False

    # -- signals ------------------------------------------------------

    def _prune(self, now: float) -> None:
        cutoff = now - self.window
        while self._failures and self._failures[0] < cutoff:
            self._failures.popleft()

    def trip(self) -> None:
        """Force the breaker open (supervisor watchdog signal)."""
        self._state = BREAKER_OPEN
        self._opened_at = self._clock()
        self._probes_used = 0
        self.opens += 1

    def record_success(self) -> None:
        if self.state in (BREAKER_HALF_OPEN, BREAKER_OPEN):
            # The probe came back healthy: close and forget history.
            self._state = BREAKER_CLOSED
            self._failures.clear()
            self._probes_used = 0
        else:
            self._prune(self._clock())

    def record_failure(self) -> None:
        now = self._clock()
        self._failures.append(now)
        self._prune(now)
        if self.state == BREAKER_HALF_OPEN:
            self.trip()  # the probe failed: back to open
        elif (
            self._state == BREAKER_CLOSED
            and len(self._failures) >= self.threshold
        ):
            self.trip()

    def as_dict(self) -> dict:
        return {
            "state": self.state,
            "recent_failures": len(self._failures),
            "opens": self.opens,
            "cooldown_remaining_s": self.remaining(),
        }


@dataclass
class RetryPolicy:
    """Client-side retry semantics for :class:`~.client.ServerClient`.

    Attempt ``n`` (0-based) sleeps ``min(cap_s, base_s * multiplier**n)``
    scaled by a jitter factor drawn uniformly from
    ``[1 - jitter, 1]`` -- full-jitter-style decorrelation so a shed
    fleet does not retry in lockstep.  A server-sent ``Retry-After``
    is honored as a *floor* on the delay.  ``budget_s`` bounds the
    total time spent (calls + backoff); a retry that cannot complete
    inside the remaining budget is not attempted.  Only transient
    errors (connection drops and :data:`RETRYABLE_CODES`) are retried
    -- a deterministic op failure would fail identically everywhere.
    """

    retries: int = 3
    base_s: float = 0.05
    cap_s: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    budget_s: float | None = None
    seed: int | None = None
    _rng: random.Random = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self._rng = random.Random(self.seed)

    def delay(
        self, attempt: int, retry_after: float | None = None
    ) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        base = min(self.cap_s, self.base_s * self.multiplier**attempt)
        scaled = base * (1.0 - self.jitter * self._rng.random())
        if retry_after is not None:
            scaled = max(scaled, float(retry_after))
        return scaled

    def retryable(self, exc: BaseException) -> bool:
        """Is this failure transient (retry may succeed elsewhere or
        later)?"""
        if isinstance(
            exc, (ConnectionError, asyncio.IncompleteReadError, EOFError)
        ):
            return True
        if isinstance(exc, RpcError):
            if exc.code in RETRYABLE_CODES:
                return True
            return getattr(exc, "http_status", 200) == 503
        return False


#: The supervision/failover counters (a :class:`repro.obs.Counters`
#: owned by the pool, surfaced under ``/stats`` -> ``resilience``).
RESILIENCE_FIELDS = (
    "worker_restarts",
    "worker_crashes",
    "watchdog_kills",
    "engine_rebuilds",
    "orphans_failed",
    "shutdown_failed",
    "failovers",
    "degraded_served",
    "all_shards_down",
)


class ShardSupervisor:
    """The supervision tree over a :class:`~.pool.ShardPool`.

    A single asyncio task wakes every ``interval`` seconds and, per
    shard:

    * **dead worker** -- the drain-loop task has finished (crashed,
      was cancelled, or exited): fail the orphaned in-flight future
      with :data:`~.protocol.WORKER_CRASHED`, count a failure on the
      shard's breaker, and restart the worker.  Jobs still queued are
      picked up by the replacement -- nothing is lost.
    * **wedged op** -- the in-flight job has been running longer than
      ``hang_timeout``: fail its future with
      :data:`~.protocol.WATCHDOG_TIMEOUT`, *trip* the breaker,
      abandon the stuck executor thread, rebuild the shard's engine
      (the abandoned thread may still write to the old engine's
      memo), and restart the worker.  This is the one owner of a hung
      or crashed server op.

    ``check()`` is synchronous and idempotent so tests (and the chaos
    harness) can drive it deterministically without the timer.
    """

    def __init__(
        self,
        pool: "ShardPool",
        interval: float = 0.1,
        hang_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.pool = pool
        self.interval = max(0.01, float(interval))
        self.hang_timeout = float(hang_timeout)
        self._clock = clock
        self._task: asyncio.Task | None = None

    def start(self) -> None:
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(
                self._loop(), name="repro-shard-supervisor"
            )

    async def close(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except (asyncio.CancelledError, Exception):
                pass
            self._task = None

    async def _loop(self) -> None:
        while True:
            await asyncio.sleep(self.interval)
            try:
                self.check()
            except Exception:  # pragma: no cover - must never die
                pass

    def check(self, now: float | None = None) -> list[dict]:
        """One supervision pass; returns the actions taken (tests and
        the chaos harness assert on these)."""
        now = self._clock() if now is None else now
        actions: list[dict] = []
        pool = self.pool
        if not pool.running:
            return actions
        for idx in range(pool.shards):
            state = pool.states[idx]
            worker = pool.worker_task(idx)
            if worker is None or worker.done():
                pool.fail_inflight(
                    idx,
                    RpcError(
                        WORKER_CRASHED,
                        f"shard {idx} worker died mid-job; "
                        "the job was not completed (safe to retry)",
                        data={"shard": idx},
                    ),
                )
                state.breaker.record_failure()
                pool.restart_shard(idx)
                pool.resilience.add("worker_crashes")
                pool.qmodel.note_disruption()
                actions.append({"shard": idx, "action": "restart-dead"})
                continue
            inflight = state.inflight
            if (
                inflight is not None
                and self.hang_timeout > 0
                and now - inflight.t_start > self.hang_timeout
            ):
                pool.fail_inflight(
                    idx,
                    RpcError(
                        WATCHDOG_TIMEOUT,
                        f"shard {idx} op exceeded the "
                        f"{self.hang_timeout:.1f}s hung-op watchdog; "
                        "worker restarted (safe to retry)",
                        data={"shard": idx, "op": inflight.job.op},
                    ),
                )
                state.breaker.trip()
                pool.restart_shard(
                    idx, rebuild_engine=True, abandon_executor=True
                )
                pool.resilience.add("watchdog_kills")
                pool.qmodel.note_disruption()
                actions.append({"shard": idx, "action": "watchdog-kill"})
        return actions
