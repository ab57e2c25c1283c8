"""The asyncio HTTP/JSON-RPC front end.

Analysis-as-a-service over stdlib :mod:`asyncio` streams -- no web
framework.  The surface:

* ``POST /rpc`` -- one JSON-RPC 2.0 call (``analyze``, ``size_queues``,
  ``simulate``, ``measure``, ``tail``); with ``params.stream: true``
  the response is chunked NDJSON progress events ending in the normal
  JSON-RPC envelope;
* ``GET /stats`` -- counters, coalescing/cache rates, resilience
  counters, and the queueing self-model (predicted vs observed
  latency);
* ``GET /healthz`` -- honest per-shard health (worker liveness,
  breaker state, queue depth, heartbeat age); ``503`` when no shard
  is serving, so load balancers can gate on it.

Request lifecycle: parse -> validate into a :class:`~.protocol.Job`
(whose content key *is* the engine cache key) -> coalesce in-flight
duplicates -> bounded shard queue (shed with ``Retry-After`` when
full) -> engine execution -> shared result fan-out.  Overload responds
``503``, an admission- or wait-deadline ``504``; everything else is a
``200`` JSON-RPC envelope, errors included, per JSON-RPC-over-HTTP
convention.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass

from .coalesce import Coalescer, InflightEntry
from .metrics import ServerMetrics
from .pool import ExecutionOutcome, ShardPool
from .protocol import (
    ALL_SHARDS_DOWN,
    DEADLINE_EXCEEDED,
    INVALID_REQUEST,
    OVERLOADED,
    PARSE_ERROR,
    Job,
    RpcError,
    jsonify,
    parse_job,
)
from .qmodel import QueueModel
from .resilience import ShardSupervisor

__all__ = ["AnalysisServer", "ServerConfig"]

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass
class ServerConfig:
    """Tunables for one :class:`AnalysisServer`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral (read back from .port after start)
    shards: int = 1
    cache_dir: str | None = None
    cache_bytes: int | None = None
    #: In-memory memo entries per shard engine (0 disables caching --
    #: used by the load benchmark's uncached baseline).
    memo_size: int = 4096
    queue_limit: int = 64
    coalesce: bool = True
    window: float = 60.0
    max_body: int = 16 * 1024 * 1024
    #: Route around shards whose breaker is open (content ops are
    #: pure and content-keyed, so any shard can serve any key).
    failover: bool = True
    #: Run the :class:`~.resilience.ShardSupervisor` (worker restarts
    #: + hung-op watchdog).
    supervise: bool = True
    #: Supervisor check cadence in seconds.
    heartbeat_interval: float = 0.25
    #: Hung-op watchdog threshold in seconds (0 disables).
    hang_timeout: float = 30.0
    #: Per-shard circuit-breaker tuning.
    breaker_threshold: int = 5
    breaker_window: float = 30.0
    breaker_cooldown: float = 5.0


class AnalysisServer:
    """The analysis service (see module docstring).  Use::

        server = AnalysisServer(ServerConfig(port=0))
        await server.start()
        ...
        await server.close()
    """

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        self.qmodel = QueueModel(
            servers=self.config.shards, window=self.config.window
        )
        self.metrics = ServerMetrics(self.qmodel)
        self.coalescer = Coalescer(enabled=self.config.coalesce)
        self.pool = ShardPool(
            shards=self.config.shards,
            cache_dir=self.config.cache_dir,
            cache_bytes=self.config.cache_bytes,
            memo_size=self.config.memo_size,
            queue_limit=self.config.queue_limit,
            qmodel=self.qmodel,
            failover=self.config.failover,
            breaker_threshold=self.config.breaker_threshold,
            breaker_window=self.config.breaker_window,
            breaker_cooldown=self.config.breaker_cooldown,
        )
        self.supervisor = ShardSupervisor(
            self.pool,
            interval=self.config.heartbeat_interval,
            hang_timeout=self.config.hang_timeout,
        )
        self._server: asyncio.base_events.Server | None = None
        self._started_at: float | None = None

    # -- lifecycle ----------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (useful with the ephemeral ``port=0``)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self.pool.start()
        if self.config.supervise:
            self.supervisor.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._started_at = time.monotonic()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # The supervisor must stop before the pool: a shutdown is not
        # a crash it should "fix" by restarting workers.
        await self.supervisor.close()
        await self.pool.close()

    async def __aenter__(self) -> "AnalysisServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- HTTP plumbing ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                keep_alive = await self._route(*request, writer=writer)
                await writer.drain()
                if not keep_alive:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """One HTTP/1.1 request -> (method, path, headers, body), or
        None at EOF / on an unparseable preamble."""
        try:
            request_line = await reader.readline()
        except (ValueError, ConnectionError):
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            return None
        method, path, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length > self.config.max_body:
            return method, path, headers, None  # routed to 413
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    @staticmethod
    def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        keep_alive: bool,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        headers = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra_headers or {}).items():
            headers.append(f"{name}: {value}")
        writer.write(
            ("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body
        )

    def _json_response(
        self,
        writer: asyncio.StreamWriter,
        payload: object,
        status: int = 200,
        keep_alive: bool = True,
        extra_headers: dict[str, str] | None = None,
    ) -> bool:
        body = json.dumps(payload).encode("utf-8")
        self._write_response(
            writer, status, body, keep_alive, extra_headers
        )
        return keep_alive

    # -- routing ------------------------------------------------------

    async def _route(
        self,
        method: str,
        path: str,
        headers: dict[str, str],
        body: bytes | None,
        writer: asyncio.StreamWriter,
    ) -> bool:
        keep_alive = headers.get("connection", "").lower() != "close"
        path = path.split("?", 1)[0]
        if body is None:
            return self._json_response(
                writer,
                {"error": "request body too large"},
                status=413,
                keep_alive=False,
            )
        if method == "GET" and path == "/healthz":
            health = self.pool.health()
            return self._json_response(
                writer,
                health,
                status=200 if health["ok"] else 503,
                keep_alive=keep_alive,
            )
        if method == "GET" and path == "/stats":
            return self._json_response(
                writer, self.stats(), keep_alive=keep_alive
            )
        if method == "POST" and path == "/rpc":
            return await self._handle_rpc(body, writer, keep_alive)
        return self._json_response(
            writer,
            {"error": f"no route for {method} {path}"},
            status=404,
            keep_alive=keep_alive,
        )

    def stats(self) -> dict:
        """The ``/stats`` document."""
        out = self.metrics.as_dict(
            coalescer=self.coalescer,
            queue_depth=self.pool.depth(),
            resilience={
                **self.pool.resilience.as_dict(),
                "breakers": [
                    state.breaker.as_dict() for state in self.pool.states
                ],
            },
        )
        out["server"] = {
            "shards": self.config.shards,
            "queue_limit": self.config.queue_limit,
            "coalesce": self.config.coalesce,
            "uptime_s": (
                time.monotonic() - self._started_at
                if self._started_at is not None
                else 0.0
            ),
        }
        return out

    # -- the RPC path -------------------------------------------------

    @staticmethod
    def _envelope(request_id, result=None, error: RpcError | None = None):
        if error is not None:
            return {
                "jsonrpc": "2.0",
                "id": request_id,
                "error": error.as_dict(),
            }
        return {"jsonrpc": "2.0", "id": request_id, "result": result}

    def _http_status(self, error: RpcError) -> tuple[int, dict]:
        if error.code in (OVERLOADED, ALL_SHARDS_DOWN):
            headers = {}
            if error.retry_after is not None:
                headers["Retry-After"] = f"{error.retry_after:.3f}"
            return 503, headers
        if error.code == DEADLINE_EXCEEDED:
            return 504, {}
        return 200, {}

    async def _handle_rpc(
        self, body: bytes, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> bool:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self.metrics.requests.add("invalid")
            return self._json_response(
                writer,
                self._envelope(
                    None, error=RpcError(PARSE_ERROR, f"bad JSON: {exc}")
                ),
                status=400,
                keep_alive=keep_alive,
            )
        if not isinstance(payload, dict) or "method" not in payload:
            self.metrics.requests.add("invalid")
            return self._json_response(
                writer,
                self._envelope(
                    None,
                    error=RpcError(
                        INVALID_REQUEST,
                        "expected a JSON-RPC object with a 'method'",
                    ),
                ),
                status=400,
                keep_alive=keep_alive,
            )
        request_id = payload.get("id")
        try:
            job = parse_job(
                str(payload["method"]), payload.get("params")
            )
        except RpcError as exc:
            self.metrics.requests.add("invalid")
            return self._json_response(
                writer,
                self._envelope(request_id, error=exc),
                keep_alive=keep_alive,
            )

        self.metrics.record_request(job.method)
        if job.stream:
            return await self._run_streaming(
                job, request_id, writer, keep_alive
            )
        try:
            result = await self._run(job)
        except RpcError as exc:
            status, headers = self._http_status(exc)
            return self._json_response(
                writer,
                self._envelope(request_id, error=exc),
                status=status,
                keep_alive=keep_alive,
                extra_headers=headers,
            )
        return self._json_response(
            writer,
            self._envelope(request_id, result=result),
            keep_alive=keep_alive,
        )

    async def _start(self, job: Job, entry: InflightEntry):
        """The leader's computation: runs detached from any one HTTP
        connection, and folds the engine-stats delta into the metrics
        the moment the execution finishes -- even if every subscriber
        (the leader's connection included) timed out or went away."""
        outcome = await self.pool.execute(job, entry)
        self.metrics.record_execution(outcome)
        return outcome

    def _admit(self, job: Job) -> tuple[InflightEntry, bool]:
        return self.coalescer.admit(job.key, lambda e: self._start(job, e))

    async def _result(
        self, job: Job, entry: InflightEntry, leader: bool
    ) -> dict:
        """One subscriber's JSON-RPC result (or the :class:`RpcError`
        its request ended with), with the outcome counted."""
        try:
            outcome = await self.coalescer.wait(
                entry, timeout=job.deadline_s
            )
        except asyncio.TimeoutError:
            self.metrics.requests.add("deadline_exceeded")
            raise RpcError(
                DEADLINE_EXCEEDED,
                f"result not ready within "
                f"{(job.deadline_s or 0) * 1e3:.0f}ms "
                "(the computation continues for other subscribers)",
            ) from None
        except RpcError as exc:
            if exc.code in (OVERLOADED, ALL_SHARDS_DOWN):
                self.metrics.requests.add("shed")
            elif exc.code == DEADLINE_EXCEEDED:
                self.metrics.requests.add("deadline_exceeded")
            else:
                self.metrics.requests.add("failed")
            raise
        assert isinstance(outcome, ExecutionOutcome)
        self.metrics.requests.add("completed")
        if outcome.rendered is None:
            outcome.rendered = jsonify(outcome.value)
        return {
            "value": outcome.rendered,
            "meta": {
                "method": job.method,
                "fingerprint": job.key[:16],
                "coalesced": not leader,
                "shard": outcome.shard,
                "cache_served": outcome.cache_served,
                "queued_ms": outcome.queued_s * 1e3,
                "service_ms": outcome.service_s * 1e3,
            },
        }

    async def _run(self, job: Job) -> dict:
        """Coalesce + execute one job; shared-outcome fan-out."""
        return await self._result(job, *self._admit(job))

    async def _run_streaming(
        self,
        job: Job,
        request_id,
        writer: asyncio.StreamWriter,
        keep_alive: bool,
    ) -> bool:
        """Chunked NDJSON: progress events, then the final envelope."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )

        def chunk(obj: object) -> None:
            data = (json.dumps(obj) + "\n").encode("utf-8")
            writer.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")

        events: asyncio.Queue = asyncio.Queue()
        entry, leader = self._admit(job)
        entry.subscribers.append(events)
        if not leader:
            chunk({"event": "joined", "coalesced": True})
        waiter = asyncio.ensure_future(self._result(job, entry, leader))
        try:
            while not waiter.done():
                getter = asyncio.ensure_future(events.get())
                await asyncio.wait(
                    {getter, waiter},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if getter.done():
                    chunk(getter.result())
                    await writer.drain()
                else:
                    getter.cancel()
            while not events.empty():
                chunk(events.get_nowait())
            try:
                chunk(self._envelope(request_id, result=waiter.result()))
            except RpcError as exc:
                chunk(self._envelope(request_id, error=exc))
        finally:
            if events in entry.subscribers:
                entry.subscribers.remove(events)
            if not waiter.done():
                waiter.cancel()
        writer.write(b"0\r\n\r\n")
        return False  # streaming responses close the connection
