"""Server-level chaos: seeded fault injection against the service.

:mod:`repro.faults` validates the *simulators* under adversarial stall
schedules; this module applies the same discipline to the serving
layer.  A campaign boots a real in-process
:class:`~.app.AnalysisServer` (real sockets, real shard workers, real
supervisor), drives a duplicate-heavy seeded workload through
retrying :class:`~.client.ServerClient` instances, and concurrently
injects faults drawn from a seeded RNG:

* **worker kills** -- cancel a shard's drain-loop task mid-job (the
  failure mode ISSUE'd against ``pool.py``: before supervision this
  silently stopped the shard forever);
* **executor exceptions / latency / hangs** -- via the pool's
  ``chaos_hook`` seam, raised or slept *inside* the worker thread
  (hangs exceed the watchdog threshold, forcing a kill + engine
  rebuild);
* **severed connections** -- close a client's keep-alive socket while
  a call may be in flight (exercising reconnect-and-retry).

Invariants checked after the drain (violations fail the campaign):

1. **termination** -- every request reaches a terminal response
   (result or honest error) within its timeout; nothing hangs;
2. **exactly-once accounting** -- every admitted execution departs
   exactly once: ``admitted == terminals`` on the pool and
   ``arrivals == completions`` on the queue model, under coalescing,
   failover, supervisor orphan-resolution, and shutdown combined;
3. **agreement** -- all successful responses for one content key
   carry the identical value (coalesced subscribers and retried
   duplicates must be indistinguishable);
4. **recovery** -- after injection stops, ``/healthz`` returns to
   all-shards-ok within a bounded window, and the ``/stats``
   self-model is live and stable again (predictions resume).

Everything is seeded, so a failing campaign replays.
"""

from __future__ import annotations

import asyncio
import json
import random
import threading
import time
from dataclasses import dataclass, field

from .app import AnalysisServer, ServerConfig
from .client import ServerClient, ServerError
from .resilience import RetryPolicy

__all__ = [
    "ServerChaosConfig",
    "ServerChaosReport",
    "run_server_campaign",
]


@dataclass
class ServerChaosConfig:
    """One campaign: ``requests`` per seed, for each of ``seeds``."""

    requests: int = 70
    seeds: tuple[int, ...] = (0, 1, 2)
    shards: int = 2
    clients: int = 8
    queue_limit: int = 64
    #: Mean delay between injection events (seconds).
    injection_period: float = 0.03
    #: Relative weights of the injection kinds.
    kill_workers: float = 1.0
    drop_connections: float = 1.0
    exec_exception_rate: float = 0.05
    exec_latency_rate: float = 0.15
    exec_latency_s: float = 0.02
    #: Probability of a wedged op (must exceed ``hang_timeout``).
    exec_hang_rate: float = 0.01
    exec_hang_s: float = 0.9
    hang_timeout: float = 0.4
    #: Supervisor cadence + breaker tuning (fast, for short campaigns).
    heartbeat_interval: float = 0.05
    breaker_threshold: int = 4
    breaker_cooldown: float = 0.3
    #: Client-side per-request timeout: exceeding it is a *hang*
    #: violation (must dominate the full retry + cooldown chain).
    request_timeout: float = 15.0
    #: Bounded post-chaos window for /healthz to return to all-ok.
    recovery_timeout: float = 5.0
    retry: RetryPolicy | None = None

    def policy(self, seed: int) -> RetryPolicy:
        if self.retry is not None:
            return self.retry
        return RetryPolicy(
            retries=5, base_s=0.02, cap_s=0.3, jitter=0.5, seed=seed
        )


@dataclass
class ServerChaosReport:
    """Campaign outcome; mirrors :class:`repro.faults.CampaignReport`."""

    config: dict
    trials: list[dict] = field(default_factory=list)
    violations: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def summary(self) -> dict:
        totals = {
            key: sum(t[key] for t in self.trials)
            for key in (
                "requests",
                "succeeded",
                "errored",
                "hung",
                "retries_used",
                "kills",
                "drops",
            )
        }
        return {
            "seeds": [t["seed"] for t in self.trials],
            **totals,
            "violations": len(self.violations),
            "ok": self.ok,
        }

    def as_dict(self) -> dict:
        return {
            "config": self.config,
            "trials": self.trials,
            "violations": self.violations,
            "summary": self.summary,
        }

    def render(self) -> str:
        s = self.summary
        lines = [
            f"server chaos: {len(self.trials)} seed(s), "
            f"{s['requests']} requests "
            f"({s['succeeded']} ok, {s['errored']} honest errors, "
            f"{s['hung']} hangs), "
            f"{s['kills']} worker kills, {s['drops']} dropped "
            f"connections, {s['retries_used']} client retries",
        ]
        for trial in self.trials:
            res = trial["resilience"]
            lines.append(
                f"  seed {trial['seed']}: {trial['requests']} reqs, "
                f"restarts={res['worker_restarts']}, "
                f"watchdog={res['watchdog_kills']}, "
                f"failovers={res['failovers']}, "
                f"recovered in {trial['recovery_s']:.2f}s"
            )
        if self.violations:
            lines.append(f"  VIOLATIONS ({len(self.violations)}):")
            for violation in self.violations:
                lines.append(f"    - {violation}")
        else:
            lines.append("  all invariants held")
        return "\n".join(lines)


def _scrub(value: object) -> object:
    """Drop wall-clock timing fields before fingerprinting: op values
    embed measurement metadata (``elapsed``, ``*_seconds``) that
    legitimately differs between two independent *computations* of the
    same content key (e.g. after an engine rebuild evicted the memo).
    The agreement invariant is about semantic results."""
    if isinstance(value, dict):
        return {
            k: _scrub(v)
            for k, v in value.items()
            if not (k.endswith("elapsed") or k.endswith("_seconds"))
        }
    if isinstance(value, list):
        return [_scrub(v) for v in value]
    return value


def _fingerprint(value: object) -> str:
    return json.dumps(_scrub(value), sort_keys=True, default=str)


def _corpus(rng: random.Random, n: int) -> list[tuple[str, dict]]:
    """A duplicate-heavy workload of cheap content-keyed requests --
    heavy duplication is the point: it maximizes coalescing across
    concurrent clients, which invariant 3 then checks."""
    menu: list[tuple[str, dict]] = [
        ("analyze", {"system": "fig1"}),
        ("analyze", {"system": "fig2-right"}),
        ("analyze", {"system": "fig15"}),
        ("simulate", {"system": "fig1", "options": {"clocks": 48}}),
        ("simulate", {"system": "fig2-right", "options": {"clocks": 64}}),
        ("measure", {"system": "fig1", "options": {"clocks": 48}}),
    ]
    return [menu[rng.randrange(len(menu))] for _ in range(n)]


def _make_hook(cfg: ServerChaosConfig, seed: int, counters: dict):
    """The executor-thread fault injector handed to
    ``pool.chaos_hook``.  Runs in worker threads, hence its own lock
    around the shared RNG."""
    rng = random.Random(seed * 7919 + 13)
    lock = threading.Lock()

    def hook(shard: int, job) -> None:
        with lock:
            draw = rng.random()
        if draw < cfg.exec_hang_rate:
            counters["hangs_injected"] += 1
            time.sleep(cfg.exec_hang_s)
        elif draw < cfg.exec_hang_rate + cfg.exec_exception_rate:
            counters["exceptions_injected"] += 1
            raise RuntimeError(
                f"chaos: injected executor failure on shard {shard}"
            )
        elif draw < (
            cfg.exec_hang_rate
            + cfg.exec_exception_rate
            + cfg.exec_latency_rate
        ):
            time.sleep(cfg.exec_latency_s)

    return hook


async def _drive_seed(
    cfg: ServerChaosConfig, seed: int
) -> tuple[dict, list[dict]]:
    """One seed's trial: boot, inject, drive, drain, verify."""
    violations: list[dict] = []
    counters = {
        "kills": 0,
        "drops": 0,
        "hangs_injected": 0,
        "exceptions_injected": 0,
    }
    server = AnalysisServer(
        ServerConfig(
            port=0,
            shards=cfg.shards,
            queue_limit=cfg.queue_limit,
            heartbeat_interval=cfg.heartbeat_interval,
            hang_timeout=cfg.hang_timeout,
            breaker_threshold=cfg.breaker_threshold,
            breaker_cooldown=cfg.breaker_cooldown,
        )
    )
    await server.start()
    server.pool.chaos_hook = _make_hook(cfg, seed, counters)

    rng = random.Random(seed)
    requests = _corpus(rng, cfg.requests)
    outcomes: list[dict] = []
    chaos_on = asyncio.Event()
    chaos_on.set()

    async def client_task(worker: int, slice_: list) -> None:
        client = ServerClient(
            "127.0.0.1", server.port, retry=cfg.policy(seed * 101 + worker)
        )
        clients[worker] = client
        try:
            for method, params in slice_:
                key = _fingerprint((method, params))
                record = {"key": key, "status": "hung"}
                outcomes.append(record)
                try:
                    result = await asyncio.wait_for(
                        client.call(method, params),
                        timeout=cfg.request_timeout,
                    )
                except asyncio.TimeoutError:
                    record["status"] = "hung"
                    # The connection may hold a half-read response;
                    # reset it so later requests parse cleanly.
                    await client.aclose()
                except ServerError as exc:
                    record["status"] = "error"
                    record["code"] = exc.code
                except (
                    ConnectionError,
                    asyncio.IncompleteReadError,
                    EOFError,
                ) as exc:
                    # Retries exhausted on a severed connection: an
                    # honest transport error, still terminal.
                    record["status"] = "error"
                    record["code"] = type(exc).__name__
                else:
                    record["status"] = "ok"
                    record["value"] = _fingerprint(result["value"])
                record["retries"] = client.retries_used
        finally:
            await client.aclose()

    async def chaos_task() -> None:
        chaos_rng = random.Random(seed * 31 + 7)
        kinds = [
            ("kill", cfg.kill_workers),
            ("drop", cfg.drop_connections),
        ]
        while chaos_on.is_set():
            await asyncio.sleep(
                cfg.injection_period * (0.5 + chaos_rng.random())
            )
            if not chaos_on.is_set():
                return
            total = sum(weight for _, weight in kinds)
            if total <= 0:
                continue
            draw = chaos_rng.random() * total
            for kind, weight in kinds:
                draw -= weight
                if draw <= 0:
                    break
            if kind == "kill":
                server.pool.kill_worker(
                    chaos_rng.randrange(cfg.shards)
                )
                counters["kills"] += 1
            elif kind == "drop":
                victim = clients[chaos_rng.randrange(len(clients))]
                if victim is not None:
                    await victim.aclose()
                    counters["drops"] += 1

    clients: list[ServerClient | None] = [None] * cfg.clients
    slices: list[list] = [[] for _ in range(cfg.clients)]
    for i, request in enumerate(requests):
        slices[i % cfg.clients].append(request)
    injector = asyncio.ensure_future(chaos_task())
    t_load = time.monotonic()
    try:
        await asyncio.gather(
            *(client_task(i, s) for i, s in enumerate(slices))
        )
    finally:
        chaos_on.clear()
        injector.cancel()
        try:
            await injector
        except asyncio.CancelledError:
            pass
    load_s = time.monotonic() - t_load

    # The storm is over: disarm the executor hook so the recovery
    # probes measure the server healing, not fresh injections.
    server.pool.chaos_hook = None

    # -- invariant 4: bounded recovery to all-healthy -----------------
    t_recover = time.monotonic()
    recovery_s = None
    probe = ServerClient("127.0.0.1", server.port)
    try:
        while time.monotonic() - t_recover < cfg.recovery_timeout:
            try:
                health = await probe.health()
            except (ConnectionError, asyncio.IncompleteReadError):
                await probe.aclose()
                health = {"ok": False}
            if health.get("ok") and all(
                shard["ok"] for shard in health.get("shards", [])
            ):
                recovery_s = time.monotonic() - t_recover
                break
            await asyncio.sleep(cfg.heartbeat_interval)
        if recovery_s is None:
            violations.append(
                {
                    "seed": seed,
                    "invariant": "recovery",
                    "detail": "healthz did not return to all-ok "
                    f"within {cfg.recovery_timeout}s",
                }
            )
            recovery_s = cfg.recovery_timeout
        # Self-model re-convergence: drive a few clean requests and
        # require the predictions to be live and stable again.
        retry_probe = ServerClient(
            "127.0.0.1", server.port, retry=cfg.policy(seed + 1)
        )
        try:
            for _ in range(3):
                await retry_probe.call("analyze", {"system": "fig1"})
        finally:
            await retry_probe.aclose()
        await probe.aclose()
        stats = await probe.stats()
        queueing = stats["queueing"]
        if not queueing["predicted"]["stable"]:
            violations.append(
                {
                    "seed": seed,
                    "invariant": "self-model",
                    "detail": "post-recovery prediction is not stable "
                    f"(rho={queueing['predicted']['rho']:.3f})",
                }
            )
    finally:
        await probe.aclose()

    pool = server.pool
    trial = {
        "seed": seed,
        "requests": len(outcomes),
        "succeeded": sum(1 for o in outcomes if o["status"] == "ok"),
        "errored": sum(1 for o in outcomes if o["status"] == "error"),
        "hung": sum(1 for o in outcomes if o["status"] == "hung"),
        "retries_used": sum(
            c.retries_used for c in clients if c is not None
        ),
        "kills": counters["kills"],
        "drops": counters["drops"],
        "injected": {
            "hangs": counters["hangs_injected"],
            "exceptions": counters["exceptions_injected"],
        },
        "admitted": pool.admitted,
        "terminals": pool.terminals,
        "resilience": pool.resilience.as_dict(),
        "load_s": load_s,
        "recovery_s": recovery_s,
    }

    # -- invariant 1: termination -------------------------------------
    if trial["hung"]:
        violations.append(
            {
                "seed": seed,
                "invariant": "termination",
                "detail": f"{trial['hung']} request(s) reached no "
                f"terminal response within {cfg.request_timeout}s",
            }
        )
    # -- invariant 2: exactly-once accounting -------------------------
    if pool.admitted != pool.terminals:
        violations.append(
            {
                "seed": seed,
                "invariant": "exactly-once",
                "detail": f"admitted={pool.admitted} but "
                f"terminals={pool.terminals}",
            }
        )
    model = server.qmodel
    completed = model.observed()["completed"]
    if model.arrivals_total != completed:
        violations.append(
            {
                "seed": seed,
                "invariant": "exactly-once",
                "detail": f"qmodel arrivals={model.arrivals_total} but "
                f"departures={completed}",
            }
        )
    # -- invariant 3: coalesced agreement -----------------------------
    values_by_key: dict[str, set[str]] = {}
    for outcome in outcomes:
        if outcome["status"] == "ok":
            values_by_key.setdefault(outcome["key"], set()).add(
                outcome["value"]
            )
    for key, values in values_by_key.items():
        if len(values) > 1:
            violations.append(
                {
                    "seed": seed,
                    "invariant": "agreement",
                    "detail": f"{len(values)} distinct successful "
                    f"values for one content key ({key[:60]}...)",
                }
            )

    await server.close()
    return trial, violations


def run_server_campaign(
    config: ServerChaosConfig | None = None,
) -> ServerChaosReport:
    """Run the full campaign (one fresh server + event loop per
    seed) and return the report; ``report.ok`` is the verdict."""
    cfg = config or ServerChaosConfig()
    report = ServerChaosReport(
        config={
            "requests": cfg.requests,
            "seeds": list(cfg.seeds),
            "shards": cfg.shards,
            "clients": cfg.clients,
            "hang_timeout": cfg.hang_timeout,
        }
    )
    for seed in cfg.seeds:
        trial, violations = asyncio.run(_drive_seed(cfg, seed))
        report.trials.append(trial)
        report.violations.extend(violations)
    return report
