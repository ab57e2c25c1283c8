"""Supervision, breakers, failover, degraded mode, honest shutdown.

The unit half drives :class:`CircuitBreaker` / :class:`RetryPolicy`
with fake clocks and seeds; the integration half boots real servers
and injects real failures (killed worker tasks, wedged executor ops)
to verify the supervisor's contract: an admitted request always gets
a terminal answer, and the shard comes back.
"""

import asyncio
import time

import pytest

from repro.server import (
    AnalysisServer,
    ServerClient,
    ServerConfig,
)
from repro.server.coalesce import InflightEntry
from repro.server.pool import ShardPool
from repro.server.protocol import (
    ALL_SHARDS_DOWN,
    OVERLOADED,
    SHUTTING_DOWN,
    WORKER_CRASHED,
    RpcError,
    parse_job,
)
from repro.server.qmodel import QueueModel
from repro.server.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    RetryPolicy,
    ShardSupervisor,
)


def run(coro):
    return asyncio.run(coro)


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


class TestCircuitBreaker:
    def test_trips_at_threshold_and_cools_down(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            threshold=3, window=10.0, cooldown=5.0, clock=clock
        )
        assert breaker.state == BREAKER_CLOSED
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()
        assert breaker.remaining() == pytest.approx(5.0)
        clock.tick(5.0)
        assert breaker.state == BREAKER_HALF_OPEN

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            threshold=1, cooldown=1.0, probes=1, clock=clock
        )
        breaker.record_failure()
        clock.tick(1.0)
        assert breaker.allow()  # consumes the probe slot
        assert not breaker.allow()  # only one probe
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=1.0, clock=clock)
        breaker.record_failure()
        clock.tick(1.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert breaker.opens == 2

    def test_window_prunes_stale_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            threshold=3, window=10.0, clock=clock
        )
        breaker.record_failure()
        breaker.record_failure()
        clock.tick(11.0)  # both age out of the window
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.as_dict()["recent_failures"] == 1

    def test_supervisor_trip_is_immediate(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=100, clock=clock)
        breaker.trip()
        assert breaker.state == BREAKER_OPEN
        assert breaker.as_dict()["opens"] == 1


class TestRetryPolicy:
    def test_seeded_delays_are_deterministic(self):
        a = RetryPolicy(seed=42)
        b = RetryPolicy(seed=42)
        assert [a.delay(i) for i in range(4)] == [
            b.delay(i) for i in range(4)
        ]

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_s=0.1, cap_s=0.5, multiplier=2.0, jitter=0.0
        )
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(10) == pytest.approx(0.5)  # capped

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(
            base_s=1.0, cap_s=1.0, jitter=0.5, seed=7
        )
        for attempt in range(32):
            delay = policy.delay(attempt)
            assert 0.5 <= delay <= 1.0

    def test_retry_after_is_a_floor(self):
        policy = RetryPolicy(base_s=0.01, jitter=0.0)
        assert policy.delay(0, retry_after=2.5) == pytest.approx(2.5)

    def test_retryable_whitelist(self):
        policy = RetryPolicy()
        assert policy.retryable(ConnectionError("dropped"))
        assert policy.retryable(RpcError(OVERLOADED, "shed"))
        assert policy.retryable(RpcError(WORKER_CRASHED, "died"))
        assert policy.retryable(RpcError(SHUTTING_DOWN, "bye"))
        assert policy.retryable(RpcError(ALL_SHARDS_DOWN, "down"))
        assert not policy.retryable(RpcError(-32000, "op failed"))
        assert not policy.retryable(ValueError("nope"))

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


def _entry(job):
    return InflightEntry(
        job.key, asyncio.get_running_loop().create_future()
    )


class TestWorkerHardening:
    """The ISSUE'd bug: an exception outside the engine call used to
    kill the drain loop silently."""

    def test_broken_subscriber_does_not_kill_the_worker(self):
        async def scenario():
            pool = ShardPool(shards=1, qmodel=QueueModel())
            pool.start()
            try:
                job = parse_job("analyze", {"system": "fig1"})
                entry = _entry(job)

                class Boom(asyncio.Queue):
                    def put_nowait(self, item):
                        raise RuntimeError("subscriber exploded")

                entry.subscribers.append(Boom())
                outcome = await pool.execute(job, entry)
                assert outcome.value is not None
                worker = pool.worker_task(0)
                assert worker is not None and not worker.done()
                # ...and the shard still serves afterwards.
                job2 = parse_job("analyze", {"system": "fig2-right"})
                outcome2 = await pool.execute(job2, _entry(job2))
                assert outcome2.value is not None
            finally:
                await pool.close()

        run(scenario())


class TestSupervisorRecovery:
    def test_killed_worker_is_restarted_and_orphan_failed(self):
        """Satellite: kill a shard worker mid-job; the supervisor
        must restart it, the orphan must get a terminal error, and
        the next request must succeed."""

        async def scenario():
            started = asyncio.Event()
            loop = asyncio.get_running_loop()

            pool = ShardPool(shards=1, qmodel=QueueModel())
            pool.start()
            supervisor = ShardSupervisor(pool, hang_timeout=0.0)

            def stall(shard, job):
                loop.call_soon_threadsafe(started.set)
                time.sleep(0.3)

            pool.chaos_hook = stall
            try:
                job = parse_job("analyze", {"system": "fig1"})
                pending = asyncio.ensure_future(
                    pool.execute(job, _entry(job))
                )
                await asyncio.wait_for(started.wait(), timeout=5.0)
                pool.kill_worker(0)
                await asyncio.sleep(0)  # let the cancellation land
                actions = supervisor.check()
                assert actions == [
                    {"shard": 0, "action": "restart-dead"}
                ]
                with pytest.raises(RpcError) as excinfo:
                    await asyncio.wait_for(pending, timeout=5.0)
                assert excinfo.value.code == WORKER_CRASHED
                assert pool.resilience.worker_crashes == 1
                assert pool.resilience.worker_restarts == 1
                assert pool.qmodel.disruptions == 1
                # The replacement worker serves (no stall this time).
                pool.chaos_hook = None
                job2 = parse_job("analyze", {"system": "fig15"})
                outcome = await asyncio.wait_for(
                    pool.execute(job2, _entry(job2)), timeout=10.0
                )
                assert outcome.value is not None
                assert pool.admitted == pool.terminals == 2
            finally:
                await pool.close()

        run(scenario())

    def test_end_to_end_recovery_through_the_server(self):
        """The same crash through real sockets: the supervisor task
        (not a manual check()) restarts the shard and the retrying
        client sees a result."""

        async def scenario():
            config = ServerConfig(
                port=0,
                shards=1,
                heartbeat_interval=0.02,
                breaker_cooldown=0.05,
            )
            async with AnalysisServer(config) as server:
                started = asyncio.Event()
                loop = asyncio.get_running_loop()

                calls = {"n": 0}

                def stall_once(shard, job):
                    calls["n"] += 1
                    if calls["n"] == 1:
                        loop.call_soon_threadsafe(started.set)
                        time.sleep(0.3)

                server.pool.chaos_hook = stall_once
                client = ServerClient(
                    "127.0.0.1",
                    server.port,
                    retry=RetryPolicy(
                        retries=4, base_s=0.05, cap_s=0.2, seed=1
                    ),
                )
                try:
                    task = asyncio.ensure_future(
                        client.call("analyze", {"system": "fig1"})
                    )
                    await asyncio.wait_for(started.wait(), timeout=5.0)
                    server.pool.kill_worker(0)
                    result = await asyncio.wait_for(task, timeout=15.0)
                    assert result["value"]["ideal"]
                    assert client.retries_used >= 1
                finally:
                    await client.aclose()
                assert server.pool.resilience.worker_restarts >= 1

        run(scenario())

    def test_watchdog_kills_wedged_op_and_rebuilds_engine(self):
        async def scenario():
            pool = ShardPool(
                shards=1, qmodel=QueueModel(), breaker_cooldown=0.05
            )
            pool.start()
            supervisor = ShardSupervisor(pool, hang_timeout=0.1)
            started = asyncio.Event()
            loop = asyncio.get_running_loop()

            def wedge(shard, job):
                loop.call_soon_threadsafe(started.set)
                time.sleep(0.5)

            pool.chaos_hook = wedge
            engine_before = pool.engines[0]
            try:
                job = parse_job("analyze", {"system": "fig1"})
                pending = asyncio.ensure_future(
                    pool.execute(job, _entry(job))
                )
                await asyncio.wait_for(started.wait(), timeout=5.0)
                await asyncio.sleep(0.15)  # exceed the hang timeout
                actions = supervisor.check()
                assert actions == [
                    {"shard": 0, "action": "watchdog-kill"}
                ]
                with pytest.raises(RpcError) as excinfo:
                    await asyncio.wait_for(pending, timeout=5.0)
                assert excinfo.value.code == -32005  # WATCHDOG_TIMEOUT
                assert pool.engines[0] is not engine_before
                assert pool.resilience.watchdog_kills == 1
                assert pool.resilience.engine_rebuilds == 1
                assert pool.states[0].breaker.state == BREAKER_OPEN
                # After the cooldown the half-open probe serves again.
                pool.chaos_hook = None
                await asyncio.sleep(0.06)
                job2 = parse_job("analyze", {"system": "fig15"})
                outcome = await asyncio.wait_for(
                    pool.execute(job2, _entry(job2)), timeout=10.0
                )
                assert outcome.value is not None
            finally:
                await pool.close()

        run(scenario())


class TestFailoverAndDegraded:
    def test_open_breaker_fails_over_to_sibling(self):
        async def scenario():
            pool = ShardPool(shards=2, qmodel=QueueModel())
            pool.start()
            try:
                job = parse_job("analyze", {"system": "fig1"})
                primary = pool.shard_of(job.key)
                pool.states[primary].breaker.trip()
                outcome = await asyncio.wait_for(
                    pool.execute(job, _entry(job)), timeout=10.0
                )
                assert outcome.shard == (primary + 1) % 2
                assert outcome.failover is True
                assert pool.resilience.failovers == 1
            finally:
                await pool.close()

        run(scenario())

    def test_failover_disabled_goes_all_shards_down(self):
        async def scenario():
            pool = ShardPool(
                shards=2, qmodel=QueueModel(), failover=False
            )
            pool.start()
            try:
                job = parse_job("analyze", {"system": "fig1"})
                pool.states[pool.shard_of(job.key)].breaker.trip()
                with pytest.raises(RpcError) as excinfo:
                    await pool.execute(job, _entry(job))
                assert excinfo.value.code == ALL_SHARDS_DOWN
                assert excinfo.value.retry_after is not None
            finally:
                await pool.close()

        run(scenario())

    def test_degraded_mode_serves_disk_cache_hits(self, tmp_path):
        async def scenario():
            pool = ShardPool(
                shards=1,
                qmodel=QueueModel(),
                cache_dir=str(tmp_path / "cache"),
            )
            pool.start()
            try:
                job = parse_job("analyze", {"system": "fig15"})
                warm = await asyncio.wait_for(
                    pool.execute(job, _entry(job)), timeout=10.0
                )
                pool.states[0].breaker.trip()
                served = await pool.execute(job, _entry(job))
                assert served.degraded is True
                assert served.shard == -1
                assert served.cache_served is True
                assert served.value == warm.value
                assert pool.resilience.degraded_served == 1
                # Unseen content cannot be served from the cache.
                other = parse_job("analyze", {"system": "fig1"})
                with pytest.raises(RpcError) as excinfo:
                    await pool.execute(other, _entry(other))
                assert excinfo.value.code == ALL_SHARDS_DOWN
                assert pool.resilience.all_shards_down == 1
            finally:
                await pool.close()

        run(scenario())


class TestHonestShutdown:
    def test_close_fails_queued_and_inflight_jobs(self):
        """Satellite regression: close() used to leave queued ``done``
        futures unresolved, hanging concurrent execute() awaiters."""

        async def scenario():
            pool = ShardPool(shards=1, qmodel=QueueModel())
            pool.start()
            started = asyncio.Event()
            loop = asyncio.get_running_loop()

            def stall(shard, job):
                loop.call_soon_threadsafe(started.set)
                time.sleep(0.3)

            pool.chaos_hook = stall
            jobs = [
                parse_job("analyze", {"system": name})
                for name in ("fig1", "fig2-right", "fig15")
            ]
            pending = [
                asyncio.ensure_future(pool.execute(j, _entry(j)))
                for j in jobs
            ]
            await asyncio.wait_for(started.wait(), timeout=5.0)
            t0 = time.monotonic()
            await asyncio.wait_for(pool.close(), timeout=5.0)
            assert time.monotonic() - t0 < 5.0
            results = await asyncio.gather(
                *pending, return_exceptions=True
            )
            assert len(results) == 3
            for result in results:
                assert isinstance(result, RpcError)
                assert result.code == SHUTTING_DOWN
            assert pool.admitted == pool.terminals == 3
            assert pool.resilience.shutdown_failed == 3

        run(scenario())

    def test_execute_after_close_is_refused(self):
        async def scenario():
            pool = ShardPool(shards=1, qmodel=QueueModel())
            pool.start()
            await pool.close()
            job = parse_job("analyze", {"system": "fig1"})
            with pytest.raises(RpcError) as excinfo:
                await pool.execute(job, _entry(job))
            assert excinfo.value.code == SHUTTING_DOWN

        run(scenario())


class TestHonestHealthz:
    def test_healthz_reports_per_shard_detail(self):
        async def scenario():
            config = ServerConfig(port=0, shards=2, supervise=False)
            async with AnalysisServer(config) as server:
                client = ServerClient("127.0.0.1", server.port)
                try:
                    health = await client.health()
                    assert health["ok"] is True
                    assert health["serving"] == 2
                    assert len(health["shards"]) == 2
                    for shard in health["shards"]:
                        assert shard["ok"] is True
                        assert shard["worker_alive"] is True
                        assert shard["breaker"] == BREAKER_CLOSED
                        assert shard["queue_depth"] == 0
                        assert shard["heartbeat_age_s"] >= 0.0
                    assert await client.healthz() is True
                finally:
                    await client.aclose()

        run(scenario())

    def test_healthz_503_when_no_shard_serving(self):
        async def scenario():
            # supervise=False so the dead workers *stay* dead.
            config = ServerConfig(port=0, shards=2, supervise=False)
            async with AnalysisServer(config) as server:
                for idx in range(2):
                    server.pool.kill_worker(idx)
                await asyncio.sleep(0)
                client = ServerClient("127.0.0.1", server.port)
                try:
                    status, _headers, payload = await client._request(
                        "GET", "/healthz"
                    )
                    assert status == 503
                    import json as _json

                    health = _json.loads(payload)
                    assert health["ok"] is False
                    assert all(
                        not s["worker_alive"] for s in health["shards"]
                    )
                    assert await client.healthz() is False
                finally:
                    await client.aclose()

        run(scenario())

    def test_stats_carries_resilience_section(self):
        async def scenario():
            async with AnalysisServer(ServerConfig(port=0)) as server:
                client = ServerClient("127.0.0.1", server.port)
                try:
                    stats = await client.stats()
                finally:
                    await client.aclose()
            resilience = stats["resilience"]
            assert resilience["worker_restarts"] == 0
            assert resilience["failovers"] == 0
            assert len(resilience["breakers"]) == 1
            assert resilience["breakers"][0]["state"] == BREAKER_CLOSED
            queueing = stats["queueing"]
            assert queueing["disruptions"] == 0
            assert "prediction_error" in queueing

        run(scenario())
