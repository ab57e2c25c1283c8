"""Command-line interface: ``python -m repro <command>``.

Gives the library's analysis pipeline a shell-scriptable surface:

* ``analyze``  -- topology class, ideal/practical MST, critical cycle;
  accepts many files and fans out with ``--jobs N``, memoizes with
  ``--cache DIR``;
* ``size``     -- queue sizing (any registered solver);
* ``generate`` -- the Section VIII random generator, to a JSON file;
  with ``--dsl FILE`` it instead lowers a declarative system
  (:mod:`repro.dsl`) defined in a Python file;
* ``export-rtl`` -- synthesizable SystemVerilog (plus a self-checking
  testbench) for a corpus entry, example, DSL file, or LIS JSON
  description; ``--check`` cross-validates the RTL model
  cycle-exactly against the whole simulator stack first;
* ``simulate`` -- empirical throughput from either simulator;
* ``example``  -- dump one of the paper's named example systems;
* ``dot``      -- Graphviz rendering of the system or its doubled
  marked graph;
* ``stats``    -- analysis-engine cache statistics for a ``--cache``
  directory (including corrupt/quarantined entry counts);
* ``chaos``    -- seeded fault-injection campaign through the
  invariant harness (:mod:`repro.faults`), optionally with
  engine-level chaos (killed/hung workers); exits non-zero on any
  invariant violation;
* ``tail``     -- stochastic tail-latency curves
  (:mod:`repro.stochastic`): p50/p99/p999 completion time vs queue
  sizing under a seeded stall/arrival process, Monte-Carlo
  cross-checked against the analytic estimate;
* ``serve``    -- analysis-as-a-service (:mod:`repro.server`): an
  asyncio HTTP/JSON-RPC front end over the engine with request
  coalescing, sharded workers, admission control, and a queueing
  self-model (``--report`` prints predicted-vs-observed latency on
  shutdown).

LIS descriptions use the JSON format of :mod:`repro.core.serialize`.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .core import (
    actual_mst,
    classify_topology,
    relay_placement,
    size_queues,
)
from .core.serialize import load_lis, save_lis
from .gen import generator as _generator
from .gen.examples import EXAMPLES, named_system

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Latency-insensitive system performance analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="MST and topology analysis")
    analyze.add_argument(
        "files", nargs="+", metavar="file", help="LIS JSON description(s)"
    )
    analyze.add_argument(
        "--full",
        action="store_true",
        help="per-channel bottleneck/slack report plus the recommended fix",
    )
    analyze.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="fan analyses out over N worker processes",
    )
    analyze.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="content-hash result cache directory (e.g. .repro-cache)",
    )
    analyze.add_argument(
        "--stats",
        action="store_true",
        help="print engine cache/timing stats after the analyses",
    )

    stats = sub.add_parser(
        "stats", help="analysis-engine cache statistics"
    )
    stats.add_argument(
        "--cache",
        default=".repro-cache",
        metavar="DIR",
        help="cache directory to inspect (default: .repro-cache)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection campaign (invariant harness)",
    )
    chaos.add_argument(
        "--system",
        default="fig15",
        metavar="NAME|FILE",
        help="fig15, cofdm, fig19, another example name, or a LIS JSON "
        "file (default: fig15)",
    )
    chaos.add_argument(
        "--schedules",
        type=int,
        default=20,
        help="fault schedules to draw; each runs on every backend "
        "(default: 20)",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--backends",
        default="trace,rtl,fast",
        help="comma-separated simulator backends (default: all three)",
    )
    chaos.add_argument(
        "--horizon",
        type=int,
        default=48,
        help="clocks during which faults may fire (default: 48)",
    )
    chaos.add_argument(
        "--measure",
        type=int,
        default=240,
        help="post-recovery throughput window (default: 240)",
    )
    chaos.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="fan trials out over N worker processes",
    )
    chaos.add_argument(
        "--cache", default=None, metavar="DIR",
        help="analysis-engine result cache directory",
    )
    chaos.add_argument(
        "--checkpoint",
        default=None,
        metavar="FILE",
        help="journal completed trials to FILE and resume from it",
    )
    chaos.add_argument(
        "--engine-chaos",
        action="store_true",
        help="also run the executor drills: SIGKILL and hang a worker "
        "mid-run and require full recovery",
    )
    chaos.add_argument(
        "--server",
        action="store_true",
        help="run the *server* chaos campaign instead: boot an "
        "in-process analysis server, kill shard workers, inject "
        "executor faults, sever connections, and check the "
        "termination/exactly-once/agreement/recovery invariants",
    )
    chaos.add_argument(
        "--requests",
        type=int,
        default=70,
        help="server campaign: requests per seed (default 70)",
    )
    chaos.add_argument(
        "--seeds",
        default="0,1,2",
        help="server campaign: comma-separated seeds (default 0,1,2)",
    )
    chaos.add_argument(
        "--server-shards",
        type=int,
        default=2,
        help="server campaign: engine shards (default 2)",
    )
    chaos.add_argument(
        "--server-clients",
        type=int,
        default=8,
        help="server campaign: concurrent retrying clients (default 8)",
    )
    chaos.add_argument(
        "--hang-timeout",
        type=float,
        default=0.4,
        help="server campaign: hung-op watchdog threshold in seconds "
        "(default 0.4)",
    )
    chaos.add_argument(
        "--json",
        action="store_true",
        help="machine-readable report on stdout",
    )

    tail = sub.add_parser(
        "tail",
        help="stochastic tail-latency curves (p50/p99/p999 vs sizing)",
    )
    tail.add_argument(
        "--system",
        default="fig15",
        metavar="NAME|FILE",
        help="fig15, cofdm, fig19, mesh:RxC, torus:RxC, another example "
        "name, or a LIS JSON file (default: fig15)",
    )
    tail.add_argument(
        "--kind",
        choices=("bernoulli", "burst", "periodic", "arrival"),
        default="bernoulli",
        help="stall/service process ('arrival' = bursty source "
        "envelope from --rho/--sigma)",
    )
    tail.add_argument(
        "--scope",
        choices=("all", "global", "sources", "sinks"),
        default="global",
        help="which nodes the process gates (default: global -- the "
        "scope with exact analytic tails)",
    )
    tail.add_argument("--rate", type=float, default=0.1,
                      help="Bernoulli stall probability (default 0.1)")
    tail.add_argument("--burst", type=float, default=4.0,
                      help="mean/exact stalled-run clocks (default 4)")
    tail.add_argument("--gap", type=float, default=12.0,
                      help="mean/exact clear-run clocks (default 12)")
    tail.add_argument("--rho", type=float, default=0.75,
                      help="arrival long-run rate for --kind arrival")
    tail.add_argument("--sigma", type=float, default=4.0,
                      help="arrival burst size for --kind arrival")
    tail.add_argument("--seed", type=int, default=0)
    tail.add_argument("--clocks", type=int, default=600)
    tail.add_argument("--trials", type=int, default=200)
    tail.add_argument(
        "--max-extra",
        type=int,
        default=3,
        help="uniform sizing ladder: 0..N extra slots per channel "
        "(default 3)",
    )
    tail.add_argument("--node", default=None,
                      help="reference shell (default: the slowest)")
    tail.add_argument("--work", type=int, default=None,
                      help="completion firing target (default: auto)")
    tail.add_argument(
        "--no-analytic",
        action="store_true",
        help="skip the analytic estimate and cross-check",
    )
    tail.add_argument("--jobs", type=int, default=None)
    tail.add_argument(
        "--cache", default=None, metavar="DIR",
        help="analysis-engine result cache directory",
    )
    tail.add_argument("--json", action="store_true",
                      help="machine-readable curve on stdout")

    serve = sub.add_parser(
        "serve",
        help="analysis-as-a-service HTTP/JSON-RPC server",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8787,
        help="TCP port (0 picks an ephemeral port, printed at "
        "startup; default 8787)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="engine worker shards; requests route by content "
        "fingerprint (default 1)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="bounded queue depth per shard; a full queue sheds with "
        "503 + Retry-After (default 64)",
    )
    serve.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="shared disk-cache directory (multi-process safe)",
    )
    serve.add_argument(
        "--cache-bytes",
        type=int,
        default=None,
        help="disk-cache size cap in bytes (oldest entries evicted)",
    )
    serve.add_argument(
        "--memo-size",
        type=int,
        default=4096,
        help="in-memory memo entries per shard engine (0 disables "
        "result caching; default 4096)",
    )
    serve.add_argument(
        "--no-coalesce",
        action="store_true",
        help="disable in-flight request coalescing (benchmarking "
        "baseline; the result cache still applies)",
    )
    serve.add_argument(
        "--window",
        type=float,
        default=60.0,
        help="sliding window (s) for the self-model's arrival-rate "
        "estimate (default 60)",
    )
    # Accepted and ignored: shard engines run ops in their own thread,
    # so there is no process pool to warm.  perfbench/serving.py still
    # passes the flag.
    serve.add_argument(
        "--prewarm", action="store_true", help=argparse.SUPPRESS
    )
    serve.add_argument(
        "--no-failover",
        action="store_true",
        help="disable healthy-sibling failover routing when a "
        "shard's circuit breaker is open",
    )
    serve.add_argument(
        "--no-supervise",
        action="store_true",
        help="disable the shard supervisor (worker restarts and the "
        "hung-op watchdog)",
    )
    serve.add_argument(
        "--hang-timeout",
        type=float,
        default=30.0,
        help="hung-op watchdog threshold in seconds; 0 disables "
        "(default 30)",
    )
    serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        help="failures within the breaker window that trip a "
        "shard's circuit breaker open (default 5)",
    )
    serve.add_argument(
        "--breaker-cooldown",
        type=float,
        default=5.0,
        help="seconds an open breaker waits before letting a "
        "half-open probe through (default 5)",
    )
    serve.add_argument(
        "--report",
        action="store_true",
        help="print the queueing self-model report (predicted vs "
        "observed latency) on shutdown",
    )

    from .core.solvers import available_solvers

    size = sub.add_parser("size", help="queue sizing")
    size.add_argument("file")
    size.add_argument(
        "--method",
        choices=available_solvers(),
        default="heuristic",
    )
    size.add_argument("--timeout", type=float, default=None)
    size.add_argument(
        "--target",
        default=None,
        help="throughput to restore, e.g. 5/6 (default: the ideal MST)",
    )

    gen = sub.add_parser(
        "generate", help="random LIS (Section VIII) or a mesh/torus NoC"
    )
    gen.add_argument("-o", "--output", required=True)
    gen.add_argument(
        "--topology",
        choices=("random", "mesh", "torus"),
        default="random",
        help="random (the paper's Section VIII generator, default) or "
        "a --rows x --cols mesh/torus NoC",
    )
    gen.add_argument("--rows", type=int, default=4,
                     help="mesh/torus rows (default 4)")
    gen.add_argument("--cols", type=int, default=4,
                     help="mesh/torus columns (default 4)")
    gen.add_argument("--vertices", type=int, default=50)
    gen.add_argument("--sccs", type=int, default=5)
    gen.add_argument("--cycles", type=int, default=5)
    gen.add_argument("--relays", type=int, default=10)
    gen.add_argument("--no-reconvergent", action="store_true")
    gen.add_argument("--policy", choices=("scc", "any"), default="scc")
    gen.add_argument("--queue", type=int, default=1)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument(
        "--dsl",
        default=None,
        metavar="FILE",
        help="lower a declarative system (repro.dsl) from a Python "
        "file instead of generating randomly; other generator "
        "options are ignored",
    )
    gen.add_argument(
        "--system",
        default=None,
        metavar="NAME",
        help="with --dsl: which declared system to lower, when the "
        "file defines more than one",
    )

    rtl = sub.add_parser(
        "export-rtl",
        help="synthesizable SystemVerilog + self-checking testbench",
    )
    rtl.add_argument(
        "system",
        metavar="SYSTEM",
        help="a DSL corpus name (e.g. fig15, cofdm, elastic_pipeline), "
        "an example name, mesh:RxC / torus:RxC, a LIS JSON file, or "
        "FILE.py[:NAME] for a declarative system in a Python file",
    )
    rtl.add_argument(
        "-o", "--output", required=True, metavar="DIR",
        help="directory receiving <top>.sv and <top>_tb.sv",
    )
    rtl.add_argument(
        "--name", default=None, help="top module name (default: derived)"
    )
    rtl.add_argument(
        "--clocks",
        type=int,
        default=60,
        help="testbench horizon; golden firing counts cover exactly "
        "this many clocks (default: 60)",
    )
    rtl.add_argument(
        "--width", type=int, default=32, help="channel width in bits"
    )
    rtl.add_argument(
        "--check",
        action="store_true",
        help="first pin the RTL model cycle-exactly against the "
        "simulator stack (differential harness: fast, rtl, schedule "
        "and trace voices); non-zero exit on any disagreement",
    )

    sim = sub.add_parser("simulate", help="empirical throughput")
    sim.add_argument("file")
    sim.add_argument("--clocks", type=int, default=400)
    sim.add_argument("--warmup", type=int, default=100)
    sim.add_argument(
        "--backend",
        choices=("trace", "rtl", "fast", "schedule"),
        default=None,
        help="measurement backend (default: trace; 'fast' is the "
        "vectorized kernel, 'schedule' the analytic oracle -- exact "
        "asymptotic rate, no clocks simulated)",
    )
    sim.add_argument("--shell", default=None, help="probe shell (default: auto)")
    sim.add_argument(
        "--batch",
        default=None,
        metavar="FILE",
        help="JSON list of {channel id: extra queue slots} assignments "
        "to evaluate in one vectorized batch (fast backend only)",
    )
    sim.add_argument(
        "--chunk",
        type=int,
        default=16,
        help="assignments per engine task in --batch mode (default 16)",
    )
    sim.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for --batch chunks",
    )
    sim.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="analysis-engine result cache directory for --batch runs",
    )

    example = sub.add_parser("example", help="dump a named paper example")
    example.add_argument("name", choices=sorted(EXAMPLES))
    example.add_argument("-o", "--output", default=None)

    dot = sub.add_parser("dot", help="Graphviz output")
    dot.add_argument("file")
    dot.add_argument(
        "--view",
        choices=("system", "ideal", "doubled"),
        default="system",
    )
    return parser


def _print_analysis(lis, ideal, practical) -> None:
    print(f"shells:          {lis.system.number_of_nodes()}")
    print(f"channels:        {len(lis.channels())}")
    print(f"relay stations:  {lis.total_relays()}")
    print(f"topology class:  {classify_topology(lis).value}")
    print(f"relay placement: {relay_placement(lis).value}")
    print(f"ideal MST:       {ideal.mst} ({float(ideal.mst):.4f})")
    print(f"practical MST:   {practical.mst} ({float(practical.mst):.4f})")
    if practical.critical is not None:
        path = " -> ".join(str(p.src) for p in practical.critical)
        print(f"critical cycle:  {path}")
    if practical.mst < ideal.mst:
        print("verdict:         DEGRADED by backpressure (try `repro size`)")
    else:
        print("verdict:         no backpressure degradation")


def _cmd_analyze(args) -> int:
    from .engine import AnalysisEngine

    systems = [(path, load_lis(path)) for path in args.files]
    with AnalysisEngine(jobs=args.jobs, cache_dir=args.cache) as engine:
        if args.full:
            reports = engine.map("analyze", [lis for _, lis in systems])
            for (path, lis), report in zip(systems, reports):
                if len(systems) > 1:
                    print(f"== {path}")
                print(report.render(lis))
        else:
            ideals = engine.map("ideal_mst", [lis for _, lis in systems])
            practicals = engine.map(
                "actual_mst", [lis for _, lis in systems]
            )
            for (path, lis), ideal, practical in zip(
                systems, ideals, practicals
            ):
                if len(systems) > 1:
                    print(f"== {path}")
                _print_analysis(lis, ideal, practical)
        if args.stats:
            print()
            print(engine.stats.render())
    return 0


def _cmd_stats(args) -> int:
    from pathlib import Path

    from .engine import DiskCache, EngineStats
    from .obs import flatten

    directory = Path(args.cache)
    if not directory.is_dir():
        print(f"no cache directory at {directory}", file=sys.stderr)
        return 2
    disk = DiskCache(directory)
    entries = disk.entries()
    print(f"cache:   {directory}")
    print(f"entries: {sum(entries.values())}")
    print(f"bytes:   {disk.total_bytes()}")
    quarantined = disk.quarantined()
    if quarantined:
        print(
            f"quarantined: {quarantined} corrupt entr"
            f"{'y' if quarantined == 1 else 'ies'} "
            f"(under {directory / DiskCache.QUARANTINE_DIR})"
        )
    for op in sorted(entries):
        print(f"  {op:<22} {entries[op]}")
    stats = disk.read_stats()
    if stats:
        print("cumulative engine counters (stats.json):")
        print(EngineStats(flatten(stats)).render())
    return 0


def _resolve_system(name: str):
    """A built-in system name (:func:`repro.gen.named_system`) or a
    LIS JSON file path."""
    lis = named_system(name)
    return lis if lis is not None else load_lis(name)


def _cmd_chaos(args) -> int:
    import json as _json

    if args.server:
        from .server.chaos import ServerChaosConfig, run_server_campaign

        seeds = tuple(
            int(s) for s in str(args.seeds).split(",") if s.strip()
        )
        report = run_server_campaign(
            ServerChaosConfig(
                requests=args.requests,
                seeds=seeds or (0,),
                shards=args.server_shards,
                clients=args.server_clients,
                hang_timeout=args.hang_timeout,
            )
        )
        if args.json:
            print(_json.dumps(report.as_dict(), sort_keys=True,
                              default=str))
        else:
            print(report.render())
        return 0 if report.ok else 1

    from .faults import BACKENDS, engine_chaos_drill, run_campaign

    backends = tuple(
        b.strip() for b in args.backends.split(",") if b.strip()
    )
    for backend in backends:
        if backend not in BACKENDS:
            known = ", ".join(BACKENDS)
            print(
                f"error: unknown backend {backend!r} (available: {known})",
                file=sys.stderr,
            )
            return 2
    try:
        lis = _resolve_system(args.system)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load system: {exc}", file=sys.stderr)
        return 2
    report = run_campaign(
        lis,
        schedules=args.schedules,
        backends=backends,
        seed=args.seed,
        horizon=args.horizon,
        measure=args.measure,
        jobs=args.jobs,
        cache_dir=args.cache,
        checkpoint=args.checkpoint,
    )
    drills = []
    if args.engine_chaos:
        drills.append(engine_chaos_drill(mode="kill", jobs=args.jobs or 2))
        drills.append(
            engine_chaos_drill(mode="hang", jobs=args.jobs or 2, op_timeout=10.0)
        )
    ok = report.ok and all(d["ok"] for d in drills)
    if args.json:
        payload = report.as_dict()
        payload["system"] = args.system
        if drills:
            payload["engine_chaos"] = drills
        payload["summary"]["ok"] = ok
        print(_json.dumps(payload, sort_keys=True, default=str))
    else:
        print(f"system: {args.system}")
        print(report.render())
        for drill in drills:
            verdict = "PASS" if drill["ok"] else "FAIL"
            print(
                f"  engine chaos ({drill['mode']}): {verdict} "
                f"(rebuilds={drill['pool_rebuilds']}, "
                f"retries={drill['retries']}, "
                f"op_timeouts={drill['op_timeouts']})"
            )
    return 0 if ok else 1


def _cmd_tail(args) -> int:
    import json as _json

    from .engine import AnalysisEngine
    from .stochastic import StochasticSpec, arrival_envelope, quantile_name

    try:
        lis = _resolve_system(args.system)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load system: {exc}", file=sys.stderr)
        return 2
    try:
        if args.kind == "arrival":
            spec = arrival_envelope(args.rho, args.sigma, seed=args.seed)
        else:
            spec = StochasticSpec(
                args.kind,
                scope=args.scope,
                rate=args.rate,
                burst=args.burst,
                gap=args.gap,
                seed=args.seed,
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    options = {
        "specs": [spec.as_dict()],
        "clocks": args.clocks,
        "trials": args.trials,
        "max_extra": args.max_extra,
        "analytic": not args.no_analytic,
    }
    if args.node is not None:
        options["node"] = args.node
    if args.work is not None:
        options["work"] = args.work
    with AnalysisEngine(jobs=args.jobs, cache_dir=args.cache) as engine:
        (curve,) = engine.run([("tail_curves", lis, options)])
    if args.json:
        payload = dict(curve)
        payload["system"] = args.system
        print(_json.dumps(payload, sort_keys=True))
        return 0
    names = [quantile_name(q) for q in curve["quantiles"]]
    print(f"system: {args.system}")
    print(
        f"spec:   {spec.kind}/{spec.scope}"
        f" (stall fraction {spec.stall_fraction:.3f}, seed {spec.seed})"
    )
    print(
        f"node:   {curve['node']}  work: {curve['work']} firings  "
        f"clocks: {curve['clocks']}  trials: {curve['trials']}"
    )
    header = (
        f"{'extra':>6} " + " ".join(f"{n:>8}" for n in names)
        + f" {'an.p99':>8} {'occ.p99':>8} {'rate':>8} {'check':>6}"
    )
    print(header)

    def _cell(value) -> str:
        return "inf" if value is None else f"{value:g}"

    agreed = True
    any_exact = False
    for point in curve["points"]:
        extra_total = sum(point["extra_tokens"].values())
        completion = point["completion"]
        cells = [_cell(completion.get(n)) for n in names]
        analytic = "-"
        estimate = point.get("analytic")
        if estimate is not None and "p99" in estimate["completion"]:
            analytic = _cell(estimate["completion"]["p99"])
        occ = _cell(point["occupancy"].get("p99"))
        rate = point["throughput"]["mean"]
        check = point.get("agreement")
        verdict = "-"
        if check is not None:
            if not check["exact"]:
                # Effective-bandwidth estimates are bounds, not
                # quantiles; report but never fail on them.
                verdict = "bound"
            else:
                verdict = "ok" if check["ok"] else "OFF"
                agreed = agreed and check["ok"]
                any_exact = True
        print(
            f"{extra_total:>6} " + " ".join(f"{c:>8}" for c in cells)
            + f" {analytic:>8} {occ:>8} {rate:>8.4f} {verdict:>6}"
        )
    if not args.no_analytic:
        if not any_exact:
            print(
                "cross-check: effective-bandwidth bounds only "
                "(no exact analytic path for this spec)"
            )
        elif agreed:
            print(
                "cross-check: exact analytic estimates inside every "
                "MC confidence band"
            )
        else:
            print(
                "cross-check: MISMATCH -- exact analytic estimate "
                "left the MC band"
            )
    return 0 if args.no_analytic or agreed else 1


def _cmd_size(args) -> int:
    from .analysis import get_context
    from .core.solvers import ExactTimeout

    lis = get_context(load_lis(args.file))
    try:
        target = Fraction(args.target) if args.target else None
        solution = size_queues(
            lis, method=args.method, target=target, timeout=args.timeout
        )
    except ZeroDivisionError:
        print(
            f"error: target {args.target!r} has a zero denominator",
            file=sys.stderr,
        )
        return 2
    except ExactTimeout:
        print(
            f"error: {args.method} search timed out after "
            f"{args.timeout} s",
            file=sys.stderr,
        )
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"method:       {solution.method}")
    print(f"target MST:   {solution.target}")
    print(f"achieved MST: {solution.achieved}")
    print(f"total tokens: {solution.cost}")
    print(f"simplified:   {solution.simplified}")
    for cid, tokens in sorted(solution.extra_tokens.items()):
        channel = lis.channel(cid)
        print(
            f"  channel {cid} ({channel.src} -> {channel.dst}): "
            f"queue {channel.data['queue']} -> "
            f"{channel.data['queue'] + tokens}"
        )
    return 0 if solution.restores_target else 1


def _load_dsl_roots(path: str) -> dict[str, object]:
    """Execute a Python file and collect its declarative systems.

    Returns ``{attribute name: SystemDecl}`` for every module-level
    DSL root (``@system`` classes, ``SystemDecl`` constants,
    ``SystemBuilder`` instances).
    """
    import runpy

    from .dsl import DslError, to_system_decl

    namespace = runpy.run_path(path)
    roots: dict[str, object] = {}
    for attr, value in namespace.items():
        if attr.startswith("_"):
            continue
        try:
            roots[attr] = to_system_decl(value)
        except DslError:
            continue
    return roots


def _pick_dsl_root(path: str, wanted: str | None):
    """The (attribute name, SystemDecl) to use from a DSL file."""
    roots = _load_dsl_roots(path)
    if not roots:
        raise ValueError(
            f"{path} defines no declarative systems (@system classes, "
            f"SystemDecl or SystemBuilder objects)"
        )
    if wanted is not None:
        for attr, decl in roots.items():
            if attr == wanted or getattr(decl, "name", None) == wanted:
                return attr, decl
        raise ValueError(
            f"{path} defines no system named {wanted!r} "
            f"(found: {', '.join(sorted(roots))})"
        )
    if len(roots) > 1:
        raise ValueError(
            f"{path} defines {len(roots)} systems "
            f"({', '.join(sorted(roots))}); pick one with --system NAME"
        )
    return next(iter(roots.items()))


def _cmd_generate(args) -> int:
    if args.dsl is not None:
        try:
            attr, decl = _pick_dsl_root(args.dsl, args.system)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        lis = decl.lower()
        save_lis(lis, args.output)
        print(
            f"wrote {args.output}: {attr} from {args.dsl}, "
            f"{lis.system.number_of_nodes()} shells, "
            f"{len(lis.channels())} channels, "
            f"{lis.total_relays()} relay stations "
            f"(fingerprint {lis.fingerprint()[:16]})"
        )
        return 0
    if args.system is not None:
        print("error: --system requires --dsl FILE", file=sys.stderr)
        return 2
    if args.topology in ("mesh", "torus"):
        try:
            lis = _generator.mesh_lis(
                args.rows,
                args.cols,
                queue=args.queue,
                torus=args.topology == "torus",
                relays=args.relays,
                seed=args.seed or 0,
            )
        except _generator.GeneratorError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        save_lis(lis, args.output)
        print(
            f"wrote {args.output}: {args.rows}x{args.cols} {args.topology}, "
            f"{lis.system.number_of_nodes()} shells, "
            f"{len(lis.channels())} channels, "
            f"{lis.total_relays()} relay stations"
        )
        return 0
    config = _generator.GeneratorConfig(
        v=args.vertices,
        s=args.sccs,
        c=args.cycles,
        rs=args.relays,
        rp=not args.no_reconvergent,
        policy=args.policy,
        queue=args.queue,
        seed=args.seed,
    )
    lis = _generator.generate_lis(config)
    save_lis(lis, args.output)
    print(
        f"wrote {args.output}: {lis.system.number_of_nodes()} shells, "
        f"{len(lis.channels())} channels, {lis.total_relays()} relay stations"
    )
    return 0


def _cmd_simulate_batch(args, lis, backend) -> int:
    import json as _json
    from pathlib import Path

    from .engine import AnalysisEngine
    from .lis import select_probe_shell

    if backend not in (None, "fast"):
        print(
            f"error: --batch requires the fast backend, not {backend!r}",
            file=sys.stderr,
        )
        return 2
    try:
        raw = _json.loads(Path(args.batch).read_text())
        assignments = [
            {int(c): int(x) for c, x in entry.items()} for entry in raw
        ]
    except (OSError, ValueError, AttributeError) as exc:
        print(f"error: bad --batch file: {exc}", file=sys.stderr)
        return 2
    if not assignments:
        print("error: --batch file holds no assignments", file=sys.stderr)
        return 2
    probe = args.shell if args.shell is not None else select_probe_shell(lis)
    lis_json = lis.lis_json
    chunk = max(1, args.chunk)
    chunks = [
        assignments[i : i + chunk]
        for i in range(0, len(assignments), chunk)
    ]
    with AnalysisEngine(jobs=args.jobs, cache_dir=args.cache) as engine:
        tasks = [
            (
                "simulate_batch",
                lis_json,
                {
                    "assignments": part,
                    "clocks": args.clocks,
                    "warmup": args.warmup,
                },
            )
            for part in chunks
        ]
        analytic_tasks = [
            ("actual_mst", lis_json, {"extra_tokens": extra})
            for extra in assignments
        ]
        simulated = [
            entry for part in engine.run(tasks) for entry in part
        ]
        analytics = engine.run(analytic_tasks)
    # Serialized shell names are strings; probe may arrive as any type.
    probe_key = str(probe)
    print(f"probe shell:     {probe}")
    print("backend:         fast (batched)")
    print(f"assignments:     {len(assignments)} (chunks of {chunk})")
    for i, (extra, entry, analysis) in enumerate(
        zip(assignments, simulated, analytics)
    ):
        rate = entry["throughput"][probe_key]
        extra_total = sum(extra.values())
        print(
            f"[{i:>3}] extra={extra_total:<3} "
            f"measured={rate} ({float(rate):.4f})  "
            f"analytic={analysis.mst} ({float(analysis.mst):.4f})"
        )
    return 0


def _cmd_simulate(args) -> int:
    from .analysis import get_context
    from .lis import measured_throughput, resolve_backend, select_probe_shell

    backend = args.backend
    lis = get_context(load_lis(args.file))
    if args.batch is not None:
        return _cmd_simulate_batch(args, lis, backend)
    # Resolve up front so the report names the backend that actually
    # ran (schedule -> fast on disconnected systems).
    resolved = resolve_backend(backend or "trace", lis)
    probe = args.shell if args.shell is not None else select_probe_shell(lis)
    rate = measured_throughput(
        lis,
        probe,
        clocks=args.clocks,
        warmup=args.warmup,
        backend=resolved,
    )
    analytic = actual_mst(lis).mst
    print(f"probe shell:     {probe}")
    print(f"simulator:       {resolved}")
    print(f"measured rate:   {rate} ({float(rate):.4f})")
    print(f"analytic MST:    {analytic} ({float(analytic):.4f})")
    if resolved == "schedule":
        match = "equal" if rate == analytic else "MISMATCH"
        print(f"exact backend:   rate vs analytic MST: {match}")
    return 0


def _cmd_export_rtl(args) -> int:
    from .dsl import CORPUS, corpus_system, crosscheck_rtl, export_rtl

    spec = args.system
    try:
        if spec.endswith(".py") or ".py:" in spec:
            path, _, attr = spec.partition(".py")
            system = _pick_dsl_root(
                f"{path}.py", attr.lstrip(":") or None
            )[1]
        elif spec in CORPUS:
            system = corpus_system(spec)
        else:
            system = _resolve_system(spec)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load system: {exc}", file=sys.stderr)
        return 2

    if args.check:
        report = crosscheck_rtl(system, clocks=max(args.clocks, 60))
        rates = ", ".join(
            f"{backend}={rate}"
            for backend, rate in sorted(report.throughput.items())
        )
        if report.agreed:
            print(f"crosscheck: PASS ({rates})")
        else:
            print("crosscheck: FAIL", file=sys.stderr)
            for failure in report.failures:
                print(f"  {failure}", file=sys.stderr)
            return 1

    export = export_rtl(
        system, name=args.name, clocks=args.clocks, width=args.width
    )
    paths = export.write(args.output)
    print(f"top module:  {export.top}")
    print(f"fingerprint: {export.fingerprint[:16]}")
    for path in paths:
        print(f"wrote {path}")
    print(f"golden firing counts over {export.clocks} clocks:")
    for shell_name, count in export.golden.items():
        print(f"  {shell_name!r:24} {count}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .server import AnalysisServer, ServerConfig

    config = ServerConfig(
        host=args.host,
        port=args.port,
        shards=args.shards,
        queue_limit=args.queue_limit,
        cache_dir=args.cache,
        cache_bytes=args.cache_bytes,
        memo_size=args.memo_size,
        coalesce=not args.no_coalesce,
        window=args.window,
        failover=not args.no_failover,
        supervise=not args.no_supervise,
        hang_timeout=args.hang_timeout,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
    )
    server = AnalysisServer(config)

    async def run() -> None:
        await server.start()
        print(
            f"repro server listening on "
            f"http://{config.host}:{server.port} "
            f"(shards={config.shards}, "
            f"coalesce={'on' if config.coalesce else 'off'}, "
            f"cache={config.cache_dir or 'memory-only'})",
            flush=True,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    finally:
        if args.report:
            print()
            print("queueing self-model (predicted vs observed):")
            print(server.qmodel.render())
            metrics = server.metrics
            print(
                f"requests: {metrics.requests.received}   "
                f"completed: {metrics.requests.completed}   "
                f"shed: {metrics.requests.shed}   "
                f"coalesced: {server.coalescer.followers} "
                f"({server.coalescer.coalesce_rate:.1%})   "
                f"cache hit rate: {metrics.cache_hit_rate:.1%}"
            )
    return 0


def _cmd_example(args) -> int:
    lis = EXAMPLES[args.name]()
    from .core.serialize import lis_to_json

    text = lis_to_json(lis)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_dot(args) -> int:
    from .graphs import to_dot

    lis = load_lis(args.file)
    if args.view == "system":
        graph = lis.system

        def label(edge):
            bits = []
            if edge.data["relays"]:
                bits.append(f"rs={edge.data['relays']}")
            bits.append(f"q={edge.data['queue']}")
            return ",".join(bits)

        print(to_dot(graph, name="system", edge_label=label), end="")
        return 0
    mg = (
        lis.ideal_marked_graph()
        if args.view == "ideal"
        else lis.doubled_marked_graph()
    )
    shapes = {
        "relay": "box",
        "stage": "box",
    }
    print(
        to_dot(
            mg.graph,
            name=args.view,
            node_shape=lambda n: shapes.get(
                mg.graph.node_data(n).get("kind"), "ellipse"
            ),
        ),
        end="",
    )
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "size": _cmd_size,
    "generate": _cmd_generate,
    "export-rtl": _cmd_export_rtl,
    "simulate": _cmd_simulate,
    "example": _cmd_example,
    "dot": _cmd_dot,
    "stats": _cmd_stats,
    "chaos": _cmd_chaos,
    "tail": _cmd_tail,
    "serve": _cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
