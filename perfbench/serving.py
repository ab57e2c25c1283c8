"""The ``serve-mix`` workload: a ``repro serve`` process under load from
one client process.

Four in five requests are a *hot* request (one of eight fixed
analyze/size_queues/measure/simulate calls, answered from the memo
after warm-up); the fifth is a *unique miss* (a seeded ``simulate`` or
``tail`` call that no earlier request made).  With one shard a hit
queues behind any miss in service, so at an even split the median falls
between the hit and miss modes and swings by a third from run to run;
at four to one most hits find the shard idle, the median is a hit's
round trip (the serving path) and the tail a miss (the simulation
kernels).  The client holds at most :data:`CONNECTIONS` keep-alive
connections; a request that finds both busy waits, and its latency is
timed from when it was due.

A run has two phases:

* the *reference* phase offers Poisson arrivals at
  :data:`REFERENCE_RATE`, well under capacity, and gives
  ``latency_p50_ms`` and ``latency_tail_ms``;
* the *capacity* phase keeps both connections busy (a closed loop).
  The gaps between its answers are the shard's service times; their
  rate is ``throughput_per_s``, and replaying them against Poisson
  arrivals gives ``sustained_rps``, the highest offered rate whose tail
  meets :data:`LATENCY_LIMIT_MS` with no growing backlog (see
  :func:`sustained_rate`).
"""

from __future__ import annotations

import asyncio
import bisect
import http.client
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import fmean

from common import (
    REQUEST_BUDGET_S,
    STATE_DIR,
    DigestLog,
    Outcome,
    child_env,
    ideal_mst,
    median,
    oracle_rate,
    peak_rss_mb,
    tail,
)

#: Rates and times of this workload are in reference-host terms (see
#: :class:`HostSpeed`).  Offered rate of the reference phase
#: (requests/s).
REFERENCE_RATE = 8.0
#: Latency limit on a replayed rate's tail percentile; its backlog may
#: grow by twice as much.
LATENCY_LIMIT_MS = 250.0
#: Fixed Poisson arrival realizations the capacity phase's service
#: times are replayed against (see :func:`sustained_rate`).
REPLAY_REALIZATIONS = 32
#: The replayed latencies' percentile held to the limit: ten samples
#: beyond it at about 500 answers, the fewest a run has given.
REPLAY_PERCENTILE = 98.0
#: Share of the run time of the reference phase; the capacity phase
#: takes the rest.
REFERENCE_SHARE = 0.5
#: The host's speed state flips within a tenth of a second, between
#: levels about 1.8x apart; one sample says little about a moment, so a
#: slowdown is the mean of the samples within this many seconds.
SPEED_WINDOW_S = 1.0
CONNECTIONS = 2
#: Server launches per run for ``setup_s`` (the last one is measured).
SERVER_SETUPS = 5

HOT = (
    ("analyze", "fig15", None),
    ("analyze", "cofdm", None),
    ("analyze", "mesh:3x3", None),
    ("size_queues", "fig15", None),
    ("size_queues", "mesh:3x3", None),
    ("measure", "cofdm", None),
    ("measure", "mesh:3x3", None),
    ("simulate", "fig15", {"clocks": 1200}),
)
MISS_SYSTEMS = ("fig15", "cofdm", "mesh:4x4", "torus:3x3")
#: Allowed gap between a finite-window simulated rate and the MST.
RATE_TOLERANCE = Fraction(1, 50)


@dataclass
class Request:
    index: int
    hot: bool
    method: str
    system: str
    options: dict | None
    #: Due time in reference-host seconds from the phase's start.
    offset: float = 0.0
    due: float = 0.0
    lag: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    error: str | None = None
    result: dict | None = None
    #: The host's slowdown over the request's segment.
    slowdown: float = 1.0

    @property
    def params(self) -> dict:
        params: dict = {"system": self.system}
        if self.options:
            params["options"] = self.options
        return params

    @property
    def latency(self) -> float:
        """Reference-host seconds from when the request was due to its
        answer."""
        return (self.done - self.due) / self.slowdown


class References:
    """Answers the checks compare against, computed in this process
    by independent means before anything is timed."""

    def __init__(self) -> None:
        from repro.core.serialize import lis_from_json
        from repro.server.protocol import resolve_named_system

        names = {name for _, name, _ in HOT} | set(MISS_SYSTEMS)
        self.lis = {name: lis_from_json(resolve_named_system(name)) for name in names}
        self.channels = {name: lis.channel_ids() for name, lis in self.lis.items()}
        self.practical = {name: oracle_rate(lis) for name, lis in self.lis.items()}
        self.ideal = {name: ideal_mst(lis) for name, lis in self.lis.items()}
        # Known numbers from the paper's Fig. 15.
        if (self.ideal["fig15"], self.practical["fig15"]) != (Fraction(5, 6), Fraction(3, 4)):
            raise RuntimeError("fig15 reference MSTs are not 5/6 and 3/4")


#: Requests per cycle of the request kinds: four hot requests and a
#: miss, the misses cycling over two methods and the systems.
PERIOD = 5 * 2 * len(MISS_SYSTEMS)


def aligned(index: int) -> int:
    """The first request index at or after ``index`` that starts a
    :data:`PERIOD`.  Every phase starts at one, so a phase at a
    given rate asks the same kinds of request in the same places in
    every run; runs differ in the misses' seeded contents only."""
    return -(-index // PERIOD) * PERIOD


def make_request(seed: int, index: int, refs: References) -> Request:
    """The ``index``-th request of a run: four hot requests, then the
    ``k``-th unique miss, alternating simulate / tail over
    :data:`MISS_SYSTEMS`."""
    k, slot = divmod(index, 5)
    if slot < 4:
        method, system, options = HOT[(4 * k + slot) % len(HOT)]
        return Request(index, True, method, system, options)
    rng = random.Random(f"serve-mix:{seed}:{k}")
    system = MISS_SYSTEMS[(k // 2) % len(MISS_SYSTEMS)]
    if k % 2 == 0:
        channels = refs.channels[system]
        assignments = [
            {str(c): rng.randint(1, 2) for c in rng.sample(channels, rng.randint(1, 3))}
            for _ in range(16)
        ]
        options = {"assignments": assignments, "clocks": 2000}
        return Request(index, False, "simulate", system, options)
    spec = {"kind": "bernoulli", "scope": "all", "rate": 0.05, "seed": rng.randrange(1 << 30)}
    options = {"specs": [spec], "trials": 128, "clocks": 600}
    return Request(index, False, "tail", system, options)


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------


class ServerProcess:
    """One ``repro serve`` process with a fresh cache directory."""

    def __init__(self, root: Path, spans_file: Path | None = None) -> None:
        state = root / STATE_DIR
        state.mkdir(parents=True, exist_ok=True)
        self.cache = Path(tempfile.mkdtemp(prefix="cache-", dir=state))
        serve_args = ["--port", "0", "--shards", "1", "--cache", str(self.cache), "--prewarm"]
        if spans_file is None:
            argv = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            launcher = Path(__file__).with_name("serve_traced.py")
            argv = [sys.executable, str(launcher), str(spans_file), *serve_args]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, env=child_env(root), cwd=root, stdout=subprocess.PIPE, text=True
        )
        try:
            line = self.proc.stdout.readline()
            if "http://" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            self._wait_healthy(self.started + 60)
        except BaseException:
            self.stop()
            raise
        self.ready = time.perf_counter()

    def _wait_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.005)
        raise RuntimeError("server never became healthy")

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.cache, ignore_errors=True)


class HostSpeed:
    """The host's slowdown over time (see ``common.SpeedGauge``), sampled
    by ``prober.py`` on the CPU this process and the server share, from
    construction until :meth:`stop`."""

    def __init__(self, root: Path) -> None:
        state = root / STATE_DIR
        state.mkdir(parents=True, exist_ok=True)
        self.path = state / f"speed-{os.getpid()}.txt"
        self._out = open(self.path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("prober.py"))],
            cwd=root,
            stdout=self._out,
        )
        self.times: list[float] = []
        self.values: list[float] = []

    def stop(self) -> None:
        self.proc.terminate()
        self.proc.wait()
        self._out.close()
        self.refresh()
        self.path.unlink()

    def refresh(self) -> None:
        """Read the samples taken so far."""
        # The last piece is empty or a line being written.
        pairs = [line.split() for line in self.path.read_text().split("\n")[:-1]]
        self.times = [float(t) for t, _ in pairs]
        self.values = [float(v) for _, v in pairs]

    def current(self) -> float:
        """The slowdown over the last seconds."""
        self.refresh()
        now = time.perf_counter()
        return self.over(now - SPEED_WINDOW_S, now)

    def over(self, t0: float, t1: float) -> float:
        """Mean slowdown of the samples taken from ``t0`` to ``t1``,
        widened by :data:`SPEED_WINDOW_S` on each side (1.0 before the
        first sample)."""
        i = bisect.bisect_left(self.times, t0 - SPEED_WINDOW_S)
        j = bisect.bisect_right(self.times, t1 + SPEED_WINDOW_S)
        return fmean(self.values[i:j]) if i < j else 1.0

    def mark(self, requests: list[Request]) -> float:
        """Set each request's slowdown; returns the slowdown over all of
        them."""
        self.refresh()
        for req in requests:
            req.slowdown = self.over(req.due, req.done)
        return self.over(requests[0].due, max(r.done for r in requests))


def launch(root: Path, repeats: int, speed: HostSpeed | None) -> tuple[ServerProcess, float]:
    """Launch the server ``repeats`` times, each stopped before the
    next; keep the last one running.  Returns it and the median
    launch-to-healthy time, in reference-host seconds when ``speed``
    is given."""
    times: list[float] = []
    server = None
    try:
        for _ in range(repeats):
            if server is not None:
                server.stop()
            server = ServerProcess(root)
            slowdown = 1.0
            if speed is not None:
                speed.refresh()
                slowdown = speed.over(server.started, server.ready)
            times.append((server.ready - server.started) / slowdown)
    except BaseException:
        if server is not None:
            server.stop()
        raise
    return server, median(times)


# ----------------------------------------------------------------------
# The load generator
# ----------------------------------------------------------------------


async def _connect(port: int) -> list:
    from repro.server import ServerClient

    clients = [ServerClient("127.0.0.1", port) for _ in range(CONNECTIONS)]
    for client in clients:
        await client.connect()
    return clients


async def _call(client, req: Request) -> None:
    """Send one request on ``client`` and fill in its result fields."""
    req.sent = time.perf_counter()
    try:
        req.result = await asyncio.wait_for(
            client.call(req.method, req.params), REQUEST_BUDGET_S
        )
    except asyncio.TimeoutError:
        req.error = f"no answer within {REQUEST_BUDGET_S}s"
        await client.aclose()  # reconnects on the next call
    except Exception as exc:
        req.error = f"{type(exc).__name__}: {exc}"
        await client.aclose()
    finally:
        req.done = time.perf_counter()


async def _drive(port: int, requests: list[Request], speed: HostSpeed | None = None) -> None:
    """Send ``requests`` at their offsets over :data:`CONNECTIONS`
    keep-alive connections and fill in their timing fields.

    With ``speed``, the offsets are reference-host seconds: each gap
    between arrivals is stretched by the host's current slowdown, so a
    rate loads the shard alike whatever the host's speed state."""
    clients = await _connect(port)
    idle: asyncio.Queue = asyncio.Queue()
    for client in clients:
        idle.put_nowait(client)

    async def one(req: Request) -> None:
        client = await idle.get()
        try:
            await _call(client, req)
        finally:
            idle.put_nowait(client)

    due, offset = time.perf_counter() + 0.02, 0.0
    try:
        tasks = []
        for req in requests:
            due += (req.offset - offset) * (speed.current() if speed is not None else 1.0)
            offset = req.offset
            req.due = due
            delay = req.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            req.lag = time.perf_counter() - req.due
            tasks.append(asyncio.create_task(one(req)))
        await asyncio.gather(*tasks)
    finally:
        for client in clients:
            await client.aclose()


async def _saturate(port: int, requests: list[Request], duration: float) -> list[Request]:
    """The closed loop: each connection sends the next of ``requests``
    as soon as its previous answer arrives, until ``duration`` seconds
    have passed.  Returns the requests sent, in order."""
    clients = await _connect(port)
    pending = iter(requests)
    sent: list[Request] = []
    stop_at = time.perf_counter() + duration

    async def loop(client) -> None:
        while time.perf_counter() < stop_at:
            req = next(pending, None)
            if req is None:
                return
            sent.append(req)
            req.due = time.perf_counter()
            await _call(client, req)

    try:
        await asyncio.gather(*(loop(client) for client in clients))
    finally:
        for client in clients:
            await client.aclose()
    return sent


def _stats(port: int) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", "/stats")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def _schedule(seed: int, rate: float, first_index: int, count: int, refs) -> list[Request]:
    """A Poisson arrival process at ``rate`` conditioned on its count:
    ``count`` arrivals at sorted uniform offsets.

    The offsets do not depend on ``seed`` (which picks the requests):
    every run replays one realization of the arrival process at each
    rate, so runs differ in what is asked, not in how requests happen
    to collide."""
    count = max(11, count)
    rng = random.Random(f"serve-mix:arrivals:{rate:g}:{count}")
    offsets = sorted(rng.uniform(0, count / rate) for _ in range(count))
    requests = []
    for i, offset in enumerate(offsets):
        req = make_request(seed, first_index + i, refs)
        req.offset = offset
        requests.append(req)
    return requests


def _prime(port: int) -> None:
    """Warm-up: run every hot request once so later ones are hits."""
    requests = [Request(i, True, m, s, o) for i, (m, s, o) in enumerate(HOT)]
    asyncio.run(_drive(port, requests))
    for req in requests:
        if req.error is not None:
            raise RuntimeError(f"warm-up request failed: {req.error}")


@dataclass
class Phase:
    """The requests of one open-loop phase."""

    rate: float
    requests: list[Request]
    #: The host's slowdown over the phase.
    slowdown: float = 1.0

    @property
    def answered(self) -> list[Request]:
        return [r for r in self.requests if r.error is None]

    def tail(self) -> tuple[float, float, int]:
        # Failed requests count as missing the limit.
        lat = [r.latency if r.error is None else math.inf for r in self.requests]
        return tail(lat)


# ----------------------------------------------------------------------
# The sustained rate
# ----------------------------------------------------------------------


def service_times(closed: list[Request], speed: HostSpeed) -> list[float]:
    """The shard's service time per request, in reference-host seconds:
    the gaps between successive answers of the closed loop.  Two
    requests are always in flight, so the shard is never idle and each
    gap is the whole time one request held it (engine work, protocol
    and transport, and the client's share of the CPU)."""
    done = sorted(r.done for r in closed)
    return [(b - a) / speed.over(a, b) for a, b in zip(done, done[1:])]


def replay_score(rate: float, services: list[float], realization: int) -> float:
    """Offer Poisson arrivals at ``rate`` to one first-come-first-served
    server whose ``k``-th request takes ``services[k]``, and return the
    worse of the latencies' :data:`REPLAY_PERCENTILE` over
    :data:`LATENCY_LIMIT_MS` and their backlog growth over twice that:
    the rate passes at most 1.

    The arrivals are the ``realization``-th of a fixed set, scaled to
    ``rate``, alike in every run; the backlog growth is the median
    latency of the last quarter of arrivals minus that of the first
    quarter.  The percentile is fixed, not the highest with ten samples
    beyond it: a slow host state leaves fewer answers to replay, and a
    lower percentile would read a higher rate."""
    rng = random.Random(f"serve-mix:arrivals:replay:{realization}")
    arrival = free = 0.0
    latencies = []
    for service in services:
        arrival += rng.expovariate(rate)
        free = max(free, arrival) + service
        latencies.append(free - arrival)
    quarter = len(latencies) // 4
    growth = median(latencies[-quarter:]) - median(latencies[:quarter])
    high = sorted(latencies)[math.ceil(REPLAY_PERCENTILE / 100 * len(latencies)) - 1]
    return max(high, growth / 2) * 1e3 / LATENCY_LIMIT_MS


def replay_rate(services: list[float], realization: int) -> float:
    """The highest offered rate whose replay against one arrival
    realization (:func:`replay_score`) meets the latency limit with no
    growing backlog, bisected to 0.1% between a twentieth of the
    shard's capacity and twice it."""
    capacity = len(services) / sum(services)
    low, high = capacity / 20, capacity * 2
    if replay_score(low, services, realization) > 1:
        return low
    if replay_score(high, services, realization) <= 1:
        return high
    while high - low > low * 1e-3:
        mid = (low + high) / 2
        if replay_score(mid, services, realization) <= 1:
            low = mid
        else:
            high = mid
    return low


def sustained_rate(services: list[float]) -> float:
    """``sustained_rps``: the median of :func:`replay_rate` over
    :data:`REPLAY_REALIZATIONS` arrival realizations.  Against one
    realization the rate hangs on where its few bursts meet the few
    slow misses, and swung 13% between quartiles over eight runs; the
    median over 32 follows the service times as a whole (1%)."""
    return median([replay_rate(services, i) for i in range(REPLAY_REALIZATIONS)])


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def _scrub(value):
    """Drop timing fields so results compare across runs."""
    if isinstance(value, dict):
        return {
            k: _scrub(v)
            for k, v in value.items()
            if k not in ("elapsed", "enumeration_elapsed", "stats", "seconds")
            and not k.endswith("_ms")
        }
    if isinstance(value, list):
        return [_scrub(v) for v in value]
    return value


def _rates_close(rates: dict, mst: Fraction) -> bool:
    return all(abs(Fraction(r) - mst) <= RATE_TOLERANCE for r in rates.values())


def check(req: Request, refs: References) -> list[str]:
    """Problems with one answered request (empty when correct)."""
    value = req.result["value"]
    ideal, practical = refs.ideal[req.system], refs.practical[req.system]
    lis = refs.lis[req.system]
    problems = []
    if req.method == "analyze":
        got = (Fraction(value["ideal"]), Fraction(value["practical"]))
        if got != (ideal, practical):
            problems.append(f"analyze {req.system} gave {got}, expected {(ideal, practical)}")
    elif req.method == "size_queues":
        extra = {int(c): int(x) for c, x in value["extra_tokens"].items()}
        if Fraction(value["target"]) != ideal:
            problems.append(f"size_queues {req.system} target {value['target']} != {ideal}")
        if oracle_rate(lis, extra) < ideal:
            problems.append(f"size_queues {req.system} sizing misses its target")
    elif req.method == "measure":
        if Fraction(value["throughput"]) != practical:
            problems.append(f"measure {req.system} gave {value['throughput']} != {practical}")
    elif req.method == "simulate":
        assignments = (req.options or {}).get("assignments") or [{}]
        # Two assignments per request keep the check cheap.
        for entry, assignment in list(zip(value, assignments))[:2]:
            extra = {int(c): int(x) for c, x in assignment.items()}
            mst = practical if not extra else oracle_rate(lis, extra)
            if not _rates_close(entry["throughput"], mst):
                problems.append(f"simulate {req.system} rates far from MST {mst}")
    elif req.method == "tail":
        mean = value["throughput"]["mean"]
        p50 = value["throughput"]["p50"]
        if not (0 < p50 <= 1 and 0 < mean <= float(practical + RATE_TOLERANCE)):
            problems.append(f"tail {req.system} throughput {mean} above MST {practical}")
        if "analytic" not in value:
            problems.append("tail answer lacks the analytic estimate")
    return problems


def _check_all(requests: list[Request], refs: References, outcome: Outcome, digests) -> None:
    for req in requests:
        outcome.attempted += 1
        if req.error is not None:
            outcome.fail(f"request {req.index} ({req.method} {req.system}): {req.error}")
            continue
        problems = check(req, refs)
        if digests is not None and not digests.check(req.index, _scrub(req.result["value"])):
            problems.append("result digest differs from an earlier run")
        if problems:
            outcome.fail(f"request {req.index}: {'; '.join(problems)}")


def _phase_note(name: str, phase: Phase) -> str:
    t, p, k = phase.tail()
    return (
        f"[serve-mix] {name} at {phase.rate:.4g}/s (host slowdown {phase.slowdown:.2f}):"
        f"  p50 {median([r.latency for r in phase.answered]) * 1e3:.1f} ms"
        f"  p{p:.1f} {t * 1e3:.1f} ms of {k}"
    )


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


def run(seed: int, seconds: float, root: Path) -> Outcome:
    """The untraced run: every end-to-end metric."""
    refs = References()
    speed = HostSpeed(root)
    try:
        server, setup_s = launch(root, SERVER_SETUPS, speed)
        try:
            port = server.port
            _prime(port)
            index = aligned(len(HOT))
            count = round(REFERENCE_RATE * seconds * REFERENCE_SHARE)
            reference = Phase(REFERENCE_RATE, _schedule(seed, REFERENCE_RATE, index, count, refs))
            index += len(reference.requests)
            asyncio.run(_drive(port, reference.requests, speed))
            reference.slowdown = speed.mark(reference.requests)

            duration = seconds * (1 - REFERENCE_SHARE)
            index = aligned(index)
            # More requests than the shard can answer in the time.
            offered = [make_request(seed, index + i, refs) for i in range(round(200 * duration))]
            closed = asyncio.run(_saturate(port, offered, duration))
            closed_slowdown = speed.mark(closed)
            services = service_times(closed, speed)
            peak_rss = peak_rss_mb(server.proc.pid)
        finally:
            server.stop()
    finally:
        speed.stop()

    outcome = Outcome()
    digests = DigestLog(root, "serve-mix", seed)
    _check_all(reference.requests, refs, outcome, digests)
    _check_all(closed, refs, outcome, digests)
    digests.save()

    value, pct, n = reference.tail()
    # Answers per reference-host second.
    capacity = len(services) / sum(services)
    sustained = sustained_rate(services)
    outcome.metrics = {
        "setup_s": setup_s,
        "throughput_per_s": capacity,
        "latency_p50_ms": median([r.latency for r in reference.answered]) * 1e3,
        "latency_tail_ms": value * 1e3,
        "sustained_rps": sustained,
        "peak_rss_mb": peak_rss,
    }
    outcome.notes.append(_phase_note("reference", reference))
    outcome.notes.append(
        f"[serve-mix] capacity: {len(closed)} answers in a closed loop"
        f" of {CONNECTIONS} connections, {capacity:.2f}/s on the reference host"
        f" (host slowdown {closed_slowdown:.2f}); service p50"
        f" {median(services) * 1e3:.1f} ms, p{tail(services)[1]:.1f}"
        f" {tail(services)[0] * 1e3:.1f} ms"
    )
    outcome.notes.append(
        f"[serve-mix] latency_tail_ms is p{pct:.1f} of {n} requests at {REFERENCE_RATE:g}/s;"
        f" sustained_rps {sustained:.2f}/s is load {sustained / capacity:.3f}"
        f" (limit {LATENCY_LIMIT_MS:g} ms); result digest {digests.combined()}"
    )
    return outcome


def run_traced(seed: int, seconds: float, root: Path) -> Outcome:
    """The traced run: the reference phase against a plain server and
    then against a traced one, each for half the time."""
    from spans import layer_metrics

    refs = References()
    first = len(HOT)
    count = round(REFERENCE_RATE * seconds / 2)

    plain_requests = _schedule(seed, REFERENCE_RATE, first, count, refs)
    server, _ = launch(root, 1, None)
    try:
        _prime(server.port)
        asyncio.run(_drive(server.port, plain_requests))
    finally:
        server.stop()

    spans_file = root / STATE_DIR / f"spans-{os.getpid()}.json"
    traced_requests = _schedule(seed, REFERENCE_RATE, first, count, refs)
    server = ServerProcess(root, spans_file)
    try:
        _prime(server.port)
        before = _stats(server.port)
        server.signal(signal.SIGUSR1)
        time.sleep(0.2)
        asyncio.run(_drive(server.port, traced_requests))
        after = _stats(server.port)
    finally:
        server.stop()
    snap = json.loads(spans_file.read_text())
    spans_file.unlink()

    outcome = Outcome()
    _check_all(plain_requests + traced_requests, refs, outcome, None)
    answered = [r for r in traced_requests if r.error is None]
    metas = [r.result["meta"] for r in answered]
    n = max(1, len(answered))
    rtt = sum(r.done - r.sent for r in answered)
    queued = sum(m["queued_ms"] / 1e3 for m in metas)
    wait_ms = sum(m["queued_ms"] for m in metas) / n
    service_ms = sum(m["service_ms"] for m in metas) / n

    def delta(*path):
        a, b = before, after
        for key in path[:-1]:
            a, b = a[key], b[key]
        return b.get(path[-1], 0) - a.get(path[-1], 0)

    def total(doc: dict, suffix: str) -> int:
        return sum(v for k, v in doc["engine"]["context"].items() if k.endswith(suffix))

    def ops(doc: dict, field: str) -> int:
        return sum(s[field] for s in doc["engine"]["ops"].values())

    executed = delta("cache", "executed")
    leaders, followers = delta("coalescing", "leaders"), delta("coalescing", "followers")
    engine_calls = ops(after, "calls") - ops(before, "calls")
    engine_hits = ops(after, "hits") - ops(before, "hits")
    context_hits = total(after, ".hit") - total(before, ".hit")
    context_misses = total(after, ".miss") - total(before, ".miss")
    sized = [r.result["value"]["cost"] for r in answered if r.method == "size_queues"]
    lags = sorted(r.lag for r in traced_requests)
    outcome.metrics = layer_metrics(
        snap,
        requests=len(answered),
        request_s=rtt,
        slowdown=1.0,
        overhead=(
            median([r.latency for r in answered])
            / median([r.latency for r in plain_requests if r.error is None])
        ),
        waited_s=queued,
        extra={
            "server.queue_wait_ms": wait_ms,
            "server.service_ms": service_ms,
            "server.transport_ms": rtt / n * 1e3 - wait_ms - service_ms,
            "server.cache_hit_rate": delta("cache", "cache_served") / executed if executed else 0.0,
            "server.coalesce_rate": followers / (leaders + followers) if leaders + followers else 0.0,
            "server.shed": float(delta("requests", "shed")),
            "serve.hot_share": sum(1 for m in metas if m["cache_served"] or m["coalesced"]) / n,
            "engine.memo_hit_rate": engine_hits / engine_calls if engine_calls else 0.0,
            "analysis.context_hit_rate": (
                context_hits / (context_hits + context_misses)
                if context_hits + context_misses else 0.0
            ),
            "solver.nodes_explored": delta("engine", "solver", "nodes_explored") / n,
            "sizing.zero_cost_share": sum(c == 0 for c in sized) / len(sized) if sized else 0.0,
            "client.lag_p99_ms": lags[min(len(lags) - 1, int(0.99 * len(lags)))] * 1e3,
        },
    )
    if snap["missing"]:
        outcome.notes.append(f"[serve-mix] not traced (gone): {', '.join(snap['missing'])}")
    return outcome
