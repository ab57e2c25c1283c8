"""Load benchmark for the analysis server: the repo analyzed by its
own theory.

Two phases against a real :class:`~repro.server.AnalysisServer` on an
ephemeral port:

* **Phase A -- duplicate-heavy mix.**  A closed-loop fleet of clients
  fires a corpus drawn from a handful of distinct jobs
  (fig15/COFDM/mesh/torus across analyze / size_queues / simulate /
  measure) at two servers: the real one (fingerprint coalescing + the
  engine memo cache) and a baseline with coalescing *and* caching
  disabled (``coalesce=False, memo_size=0``).  The acceptance floor:
  coalescing + caching deliver >= 5x the baseline throughput.

* **Phase B -- mid-load M/M/1 cross-check.**  An open-loop Poisson
  arrival process of *unique* ``simulate`` jobs (horizon lengths drawn
  from an exponential, so service times are near-exponential) drives a
  single shard to rho ~ 0.5; the server's own queueing self-model
  (``/stats``) must then predict the mean queue wait within 25% of
  what it measured (Hill's M/M/1 applied to the server itself).

Both numbers land in ``benchmarks/results/server_load.json`` so
``check_regression.py`` can guard them in CI (``--floor`` for the
rates, ``--tolerance`` for p99).

Standalone smoke mode (the CI server-smoke job)::

    python benchmarks/bench_server_load.py --smoke

starts a server, fires 50 mixed requests (duplicates included),
and exits non-zero unless every request succeeds and at least one
was coalesced.
"""

import asyncio
import json
import math
import os
import random
import time

from repro.server import AnalysisServer, ServerClient, ServerConfig

# Tunables (environment-overridable so CI can shrink or relax).
DUP_REQUESTS = int(os.environ.get("REPRO_LOAD_DUP_REQUESTS", "240"))
DUP_CLIENTS = int(os.environ.get("REPRO_LOAD_DUP_CLIENTS", "24"))
MM1_REQUESTS = int(os.environ.get("REPRO_LOAD_MM1_REQUESTS", "700"))
MM1_RHO = float(os.environ.get("REPRO_LOAD_MM1_RHO", "0.45"))
MM1_MEAN_CLOCKS = int(os.environ.get("REPRO_LOAD_MM1_CLOCKS", "2400"))
SPEEDUP_FLOOR = float(os.environ.get("REPRO_LOAD_SPEEDUP_FLOOR", "5.0"))
MM1_TOLERANCE = float(os.environ.get("REPRO_LOAD_MM1_TOLERANCE", "0.25"))
SEED = 20260808


def corpus():
    """The duplicate-heavy mix: 8 distinct jobs across 4 systems and
    4 methods -- exactly the traffic shape coalescing + caching eat."""
    return [
        ("analyze", {"system": "fig15"}),
        ("analyze", {"system": "cofdm"}),
        ("size_queues", {"system": "fig15"}),
        ("size_queues", {"system": "mesh:3x3"}),
        ("simulate", {"system": "fig15", "options": {"clocks": 1200}}),
        ("simulate", {"system": "torus:3x3", "options": {"clocks": 600}}),
        (
            "measure",
            {
                "system": "cofdm",
                "options": {"backend": "trace", "clocks": 1500},
            },
        ),
        ("measure", {"system": "mesh:3x3", "options": {"clocks": 800}}),
    ]


def percentile(sorted_samples, q):
    if not sorted_samples:
        return 0.0
    rank = max(0, math.ceil(q * len(sorted_samples)) - 1)
    return sorted_samples[min(rank, len(sorted_samples) - 1)]


async def drive_closed_loop(port, requests, clients):
    """A closed-loop fleet: each worker owns one keep-alive connection
    and pulls the next request off a shared list.  Returns per-request
    latencies (seconds) and the error count."""
    queue = list(requests)
    latencies = []
    errors = 0
    lock = asyncio.Lock()

    async def worker():
        nonlocal errors
        async with ServerClient("127.0.0.1", port) as client:
            while True:
                async with lock:
                    if not queue:
                        return
                    method, params = queue.pop()
                t0 = time.perf_counter()
                try:
                    await client.call(method, params)
                except Exception:
                    errors += 1
                else:
                    latencies.append(time.perf_counter() - t0)

    await asyncio.gather(*(worker() for _ in range(clients)))
    return latencies, errors


async def run_duplicate_phase(coalesce):
    """Phase A at one setting: returns (stats_doc, wall_s, latencies,
    errors)."""
    rng = random.Random(SEED)
    requests = [rng.choice(corpus()) for _ in range(DUP_REQUESTS)]
    config = ServerConfig(
        port=0,
        shards=2,
        queue_limit=max(DUP_REQUESTS, 64),
        coalesce=coalesce,
        memo_size=4096 if coalesce else 0,
    )
    async with AnalysisServer(config) as server:
        t0 = time.perf_counter()
        latencies, errors = await drive_closed_loop(
            server.port, requests, DUP_CLIENTS
        )
        wall = time.perf_counter() - t0
        async with ServerClient("127.0.0.1", server.port) as client:
            stats = await client.stats()
    return stats, wall, sorted(latencies), errors


async def run_mm1_phase():
    """Phase B: open-loop Poisson arrivals of unique near-exponential
    jobs at rho ~ MM1_RHO on one shard; returns the server's own
    /stats queueing document plus the offered load."""
    rng = random.Random(SEED + 1)
    seen_clocks = set()

    def unique_job(_i):
        # Service time is linear in the horizon, so exponential
        # horizons give near-exponential service (the fixed per-op
        # overhead pulls cv^2 a little under 1).  Unique horizons keep
        # every fingerprint distinct, so neither coalescing nor the
        # cache can help -- each request is real work.
        while True:
            clocks = max(
                200, int(rng.expovariate(1.0 / MM1_MEAN_CLOCKS))
            )
            if clocks not in seen_clocks:
                seen_clocks.add(clocks)
                break
        return (
            "simulate",
            {
                "system": "fig15",
                "options": {"clocks": clocks, "warmup": 100},
            },
        )

    # Calibrate the mean service time on a throwaway server so the
    # measured server's self-model sees only the Poisson phase (the
    # fig15 Context warmed here is shared process-wide either way).
    # The estimate comes from the throwaway server's *own* queueing
    # stats -- client round-trip timing would fold HTTP overhead into
    # S and undershoot the offered rho badly.
    async with AnalysisServer(ServerConfig(port=0)) as throwaway:
        async with ServerClient("127.0.0.1", throwaway.port) as client:
            for i in range(30):
                await client.call(*unique_job(10_000 + i))
            calib = await client.stats()
    service_mean = calib["queueing"]["service_mean_ms"] / 1e3

    lam = MM1_RHO / service_mean  # arrivals/s for the target rho

    config = ServerConfig(
        port=0,
        shards=1,
        queue_limit=max(MM1_REQUESTS, 64),
    )
    async with AnalysisServer(config) as server:
        port = server.port

        # A pool of pre-opened keep-alive connections: opening a TCP
        # connection per shot keeps the shared event loop busy enough
        # to clump the arrival process, which would bias observed
        # waits above the Poisson model being tested.
        idle: asyncio.Queue = asyncio.Queue()
        pool = [
            ServerClient("127.0.0.1", port)
            for _ in range(min(64, MM1_REQUESTS))
        ]
        for client in pool:
            await client.connect()
            idle.put_nowait(client)

        async def fire(method, params, delay):
            await asyncio.sleep(delay)
            client = await idle.get()
            try:
                await client.call(method, params)
                return None
            except Exception as exc:
                return exc
            finally:
                idle.put_nowait(client)

        t = 0.0
        shots = []
        for i in range(MM1_REQUESTS):
            t += rng.expovariate(lam)
            method, params = unique_job(i)
            shots.append(fire(method, params, t))
        outcomes = await asyncio.gather(*shots)
        errors = sum(1 for o in outcomes if o is not None)

        stats = await pool[0].stats()
        for client in pool:
            await client.aclose()
    return stats["queueing"], lam, errors


def summarize_duplicate(on, off):
    stats_on, wall_on, lat_on, err_on = on
    stats_off, wall_off, lat_off, err_off = off
    throughput_on = len(lat_on) / wall_on
    throughput_off = len(lat_off) / wall_off
    coalescing = stats_on["coalescing"]
    cache = stats_on["cache"]
    return {
        "requests": DUP_REQUESTS,
        "clients": DUP_CLIENTS,
        "errors": err_on + err_off,
        "throughput_rps": throughput_on,
        "baseline_throughput_rps": throughput_off,
        "duplicate_speedup": throughput_on / throughput_off,
        "p50_ms": percentile(lat_on, 0.50) * 1e3,
        "p99_ms": percentile(lat_on, 0.99) * 1e3,
        "baseline_p50_ms": percentile(lat_off, 0.50) * 1e3,
        "baseline_p99_ms": percentile(lat_off, 0.99) * 1e3,
        "coalesce_rate": coalescing["rate"],
        "coalesced": coalescing["followers"],
        "executed": cache["executed"],
        "cache_hit_rate": cache["hit_rate"],
    }


def summarize_mm1(queueing, lam, errors):
    predicted = queueing["predicted"]
    observed = queueing["observed"]
    pred_wait = predicted["mm1_wait_ms"]
    obs_wait = observed["mean_wait_ms"]
    pred_res = predicted["mm1_residence_ms"]
    obs_res = observed["mean_residence_ms"]
    return {
        "requests": MM1_REQUESTS,
        "errors": errors,
        "offered_lambda_hz": lam,
        "rho": predicted["rho"],
        "service_mean_ms": queueing["service_mean_ms"],
        "service_cv2": queueing["service_cv2"],
        "mm1_wait_ms": pred_wait,
        "observed_wait_ms": obs_wait,
        "mm1_wait_error": (
            abs(pred_wait - obs_wait) / obs_wait if obs_wait else None
        ),
        "mm1_residence_ms": pred_res,
        "observed_residence_ms": obs_res,
        "mm1_residence_error": (
            abs(pred_res - obs_res) / obs_res if obs_res else None
        ),
        "mg1_wait_ms": predicted["mg1_wait_ms"],
        "observed_p50_ms": observed["p50_ms"],
        "observed_p99_ms": observed["p99_ms"],
        "mm1_p99_ms": predicted["mm1_p99_ms"],
        "little_l": queueing["little"]["observed_l"],
        "little_lambda_w": queueing["little"]["lambda_times_w"],
    }


def test_server_load(publish):
    from repro.experiments import render_table

    on = asyncio.run(run_duplicate_phase(coalesce=True))
    off = asyncio.run(run_duplicate_phase(coalesce=False))
    dup = summarize_duplicate(on, off)

    queueing, lam, errors = asyncio.run(run_mm1_phase())
    mm1 = summarize_mm1(queueing, lam, errors)

    # The acceptance floors (env-relaxable for slow CI runners).
    assert dup["errors"] == 0
    assert mm1["errors"] == 0
    assert dup["duplicate_speedup"] >= SPEEDUP_FLOOR, dup
    assert dup["coalesce_rate"] > 0.0
    assert mm1["mm1_wait_error"] is not None
    assert mm1["mm1_wait_error"] <= MM1_TOLERANCE, mm1

    rows = [
        [
            "duplicate-heavy (coalesce+cache)",
            f"{dup['throughput_rps']:.1f}/s",
            f"{dup['p50_ms']:.1f}",
            f"{dup['p99_ms']:.1f}",
            f"{dup['coalesce_rate']:.0%}",
            f"{dup['cache_hit_rate']:.0%}",
        ],
        [
            "duplicate-heavy (baseline off)",
            f"{dup['baseline_throughput_rps']:.1f}/s",
            f"{dup['baseline_p50_ms']:.1f}",
            f"{dup['baseline_p99_ms']:.1f}",
            "-",
            "-",
        ],
        [
            f"mid-load rho={mm1['rho']:.2f} (unique)",
            f"{mm1['offered_lambda_hz']:.1f}/s",
            f"{mm1['observed_p50_ms']:.1f}",
            f"{mm1['observed_p99_ms']:.1f}",
            "-",
            "-",
        ],
    ]
    publish(
        "server_load",
        render_table(
            ["phase", "throughput", "p50 ms", "p99 ms", "coalesce", "cache"],
            rows,
            title=(
                f"Server load - {DUP_REQUESTS} duplicate-heavy + "
                f"{MM1_REQUESTS} unique Poisson requests; "
                f"speedup {dup['duplicate_speedup']:.1f}x (floor "
                f"{SPEEDUP_FLOOR:.0f}x), M/M/1 wait error "
                f"{mm1['mm1_wait_error']:.0%} (tolerance "
                f"{MM1_TOLERANCE:.0%})"
            ),
        ),
        data={
            "duplicate_phase": dup,
            "mm1_phase": mm1,
            "duplicate_speedup": dup["duplicate_speedup"],
            "p99_ms": dup["p99_ms"],
            "coalesce_rate": dup["coalesce_rate"],
            "cache_hit_rate": dup["cache_hit_rate"],
            "mm1_wait_error": mm1["mm1_wait_error"],
            "speedup_floor": SPEEDUP_FLOOR,
            "mm1_tolerance": MM1_TOLERANCE,
        },
    )


async def smoke(total=50):
    """The CI smoke: mixed traffic with duplicates; zero failures and
    a non-zero coalesce count required."""
    rng = random.Random(SEED)
    requests = [rng.choice(corpus()) for _ in range(total)]
    async with AnalysisServer(ServerConfig(port=0, shards=2)) as server:
        latencies, errors = await drive_closed_loop(
            server.port, requests, clients=10
        )
        async with ServerClient("127.0.0.1", server.port) as client:
            stats = await client.stats()
    coalesced = stats["coalescing"]["followers"]
    cache_served = stats["cache"]["cache_served"]
    print(
        f"smoke: {len(latencies)}/{total} ok, {errors} failed, "
        f"{coalesced} coalesced, {cache_served} cache-served, "
        f"p99 {percentile(sorted(latencies), 0.99) * 1e3:.1f}ms"
    )
    assert errors == 0, f"{errors} requests failed"
    assert len(latencies) == total
    assert coalesced > 0, "no request was coalesced"
    return stats


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="50 mixed requests incl. duplicates; assert zero "
        "failures and coalescing > 0",
    )
    parser.add_argument("--requests", type=int, default=50)
    args = parser.parse_args()
    if args.smoke:
        asyncio.run(smoke(args.requests))
        print("server smoke passed")
    else:
        raise SystemExit(
            "run the full benchmark through pytest: "
            "python -m pytest benchmarks/bench_server_load.py"
        )
