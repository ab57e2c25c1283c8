"""The in-process workloads ``sizing-dag`` and ``sizing-noc``.

One caller drives one :class:`repro.engine.AnalysisEngine` in a closed
loop: the next request starts when the previous one returned.  Every
request is a fresh system, generated from the seed before it is timed.
"""

from __future__ import annotations

import gc
import random
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    REQUEST_BUDGET_S,
    DigestLog,
    Outcome,
    RequestBudgetExceeded,
    SpeedGauge,
    median,
    oracle_rate,
    peak_rss_mb,
    reset_peak_rss,
    tail,
)

#: Table-IV DAG-of-SCC shapes (v, s), taken in turn; c=5, rs=10.
DAG_SHAPES = ((100, 10), (100, 20), (200, 10))
#: NoC shapes (rows, cols, torus) in a fixed pass of twenty requests.
#: The 3x4 meshes (11) fill the 40th-95th percentiles of the latency
#: distribution, so the median and the tail percentile (p80-p90 at the
#: usual 50-100 requests a run) stay inside one shape; the cheap 3x3 /
#: 2x5 meshes (8) and the costly torus (1) sit at the two ends.
NOC_PATTERN = (
    (3, 4, False), (3, 3, False), (3, 4, False), (2, 5, False), (3, 4, False),
    (3, 3, False), (3, 4, False), (2, 5, False), (3, 4, False), (3, 4, False),
    (3, 3, True), (3, 4, False), (3, 3, False), (3, 4, False), (2, 5, False),
    (3, 4, False), (3, 3, False), (3, 4, False), (2, 5, False), (3, 4, False),
)
#: Relay stations per NoC request, cycled: 2..6 on seeded channels.
NOC_RELAYS = (2, 3, 4, 5, 6)


def make_input(workload: str, seed: int, index: int):
    """The ``index``-th system of a workload (a fresh ``LisGraph``)."""
    from repro.gen.generator import GeneratorConfig, generate_lis, mesh_lis

    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "sizing-dag":
        v, s = DAG_SHAPES[index % len(DAG_SHAPES)]
        return generate_lis(
            GeneratorConfig(v=v, s=s, c=5, rs=10, seed=rng.randrange(1 << 30))
        )
    rows, cols, torus = NOC_PATTERN[index % len(NOC_PATTERN)]
    # Shift the relay cycle by one on each pass over the pattern, so a
    # shape does not keep the same relay count.
    relays = NOC_RELAYS[(index + index // len(NOC_PATTERN)) % len(NOC_RELAYS)]
    return mesh_lis(
        rows, cols, torus=torus, relays=relays, seed=rng.randrange(1 << 30)
    )


def _on_budget(signum, frame):
    raise RequestBudgetExceeded


def _request(engine, workload: str, lis):
    """One timed request: ``(solution, report or None)``."""
    solution = engine.size_queues(lis, method="heuristic", verify=True)
    report = engine.analyze(lis) if workload == "sizing-dag" else None
    return solution, report


def _check(lis, solution, report) -> tuple[list[str], dict]:
    """Output checks against the schedule oracle (an independent
    path); returns (problems, timing-free result for the digest)."""
    problems = []
    target = solution.target
    sized = oracle_rate(lis, solution.extra_tokens)
    practical = oracle_rate(lis)
    if not 0 < target <= 1:
        problems.append(f"target {target} outside (0, 1]")
    if sized < target:
        problems.append(f"sized MST {sized} misses target {target}")
    if solution.achieved != sized:
        problems.append(f"reported achieved {solution.achieved} != {sized}")
    if solution.cost != sum(solution.extra_tokens.values()):
        problems.append("cost is not the sum of extra tokens")
    if practical >= target and solution.cost != 0:
        problems.append("non-zero cost on a system that already meets its target")
    scrubbed = {"target": str(target), "practical": str(practical), "cost": solution.cost}
    if report is not None:
        if (report.ideal, report.practical) != (target, practical):
            problems.append(
                f"analyze gave {report.ideal}/{report.practical}, "
                f"expected {target}/{practical}"
            )
        if (report.practical < report.ideal) != (report.fix is not None):
            problems.append("analyze carries a fix iff the system degrades: violated")
        elif report.fix is not None and report.fix.cost != solution.cost:
            problems.append(f"analyze fix cost {report.fix.cost} != {solution.cost}")
        scrubbed["bottlenecks"] = len(report.bottlenecks)
    return problems, scrubbed


def _budgeted(fn, *args):
    """``fn(*args)`` with :data:`REQUEST_BUDGET_S` enforced by SIGALRM."""
    signal.setitimer(signal.ITIMER_REAL, REQUEST_BUDGET_S)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class Loop:
    """What one closed loop measured."""

    outcome: Outcome = field(default_factory=Outcome)
    #: Per-request wall time as measured, and as the reference host
    #: would have taken it.
    raw_s: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)
    zero_cost: int = 0
    #: Highest peak RSS over the timed requests alone (MiB).
    peak_rss_mb: float = 0.0
    context: dict = field(default_factory=dict)
    memo_hits: int = 0
    memo_calls: int = 0
    solver_nodes: int = 0

    @property
    def slowdown(self) -> float:
        return sum(self.raw_s) / sum(self.ref_s)


def closed_loop(workload: str, seed: int, seconds: float, digests, tracer=None) -> Loop:
    """Run requests until ``seconds`` of request wall time have passed,
    then on to the end of the current pass over the workload's shapes,
    so every run sees the shapes in the same proportions."""
    from repro.analysis import clear_registry, global_stats
    from repro.engine import AnalysisEngine

    loop = Loop()
    outcome = loop.outcome
    gauge = SpeedGauge()
    engine = AnalysisEngine()
    clear_registry()
    context_before = global_stats().snapshot()
    wall_cap = time.monotonic() + 3 * seconds + 60
    previous = signal.signal(signal.SIGALRM, _on_budget)
    index = 0
    try:
        period = len(DAG_SHAPES if workload == "sizing-dag" else NOC_PATTERN)
        while (sum(loop.raw_s) < seconds or index % period) and time.monotonic() < wall_cap:
            lis = make_input(workload, seed, index)
            gc.collect()
            gauge.sample()
            outcome.attempted += 1
            # The output checks also run in this process, between
            # requests: the peak is taken over each request alone.
            reset_peak_rss()
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                solution, report = _budgeted(_request, engine, workload, lis)
            except RequestBudgetExceeded:
                outcome.fail(f"request {index} exceeded {REQUEST_BUDGET_S}s")
                solution = None
            except Exception as exc:
                outcome.fail(f"request {index}: {type(exc).__name__}: {exc}")
                solution = None
            finally:
                elapsed = time.perf_counter() - t0
                if tracer is not None:
                    tracer.active = False
            loop.peak_rss_mb = max(loop.peak_rss_mb, peak_rss_mb())
            gauge.sample()
            loop.raw_s.append(elapsed)
            loop.ref_s.append(elapsed / gauge.slowdown())
            if solution is not None:
                try:
                    problems, scrubbed = _budgeted(_check, lis, solution, report)
                except RequestBudgetExceeded:
                    problems, scrubbed = ["output check overran its budget"], None
                # Only checked answers become reference digests.
                if (
                    scrubbed is not None
                    and digests is not None
                    and not digests.check(index, scrubbed)
                ):
                    problems.append("result digest differs from an earlier run")
                if problems:
                    outcome.fail(f"request {index}: {'; '.join(problems)}")
                loop.zero_cost += solution.cost == 0
            clear_registry()
            index += 1
    finally:
        signal.signal(signal.SIGALRM, previous)
    loop.context = global_stats().delta(context_before)
    loop.memo_hits = engine.stats.hits + engine.stats.disk_hits
    loop.memo_calls = loop.memo_hits + engine.stats.misses
    loop.solver_nodes = engine.stats.solver.get("nodes_explored", 0)
    engine.close()
    return loop


def run(workload: str, seed: int, seconds: float, root: Path, setup_s: float) -> Outcome:
    """The untraced run: every end-to-end metric."""
    digests = DigestLog(root, workload, seed)
    loop = closed_loop(workload, seed, seconds, digests)
    digests.save()
    outcome = loop.outcome
    value, pct, n = tail(loop.ref_s)
    throughput = len(loop.ref_s) / sum(loop.ref_s)
    outcome.metrics = {
        "setup_s": setup_s,
        "throughput_per_s": throughput,
        "latency_p50_ms": median(loop.ref_s) * 1e3,
        "latency_tail_ms": value * 1e3,
        # A closed loop with one caller sustains exactly its throughput.
        "sustained_rps": throughput,
        "peak_rss_mb": loop.peak_rss_mb,
    }
    outcome.notes += [
        f"[{workload}] latency_tail_ms is p{pct:.1f} of {n} requests",
        f"[{workload}] host slowdown {loop.slowdown:.3f}: as measured, throughput"
        f" {len(loop.raw_s) / sum(loop.raw_s):.4g}/s, p50 {median(loop.raw_s) * 1e3:.4g} ms,"
        f" tail {tail(loop.raw_s)[0] * 1e3:.4g} ms",
        f"[{workload}] sizing.zero_cost_share {loop.zero_cost / n:.3f}"
        f"  result digest {digests.combined()}",
    ]
    return outcome


def run_traced(workload: str, seed: int, seconds: float, root: Path) -> Outcome:
    """The traced run: the same inputs untraced, then traced, each for
    half the time; per-layer self times come from the traced half."""
    from spans import Tracer, layer_metrics

    plain = closed_loop(workload, seed, seconds / 2, None)
    tracer = Tracer()
    tracer.install()
    tracer.active = False
    try:
        traced = closed_loop(workload, seed, seconds / 2, None, tracer)
    finally:
        tracer.uninstall()
    outcome = Outcome(
        attempted=plain.outcome.attempted + traced.outcome.attempted,
        failed=plain.outcome.failed + traced.outcome.failed,
        notes=plain.outcome.notes + traced.outcome.notes,
    )
    common = min(len(plain.ref_s), len(traced.ref_s))
    hits = sum(v for k, v in traced.context.items() if k.endswith(".hit"))
    lookups = sum(traced.context.values())
    outcome.metrics = layer_metrics(
        tracer.snapshot(),
        requests=len(traced.raw_s),
        request_s=sum(traced.raw_s),
        slowdown=traced.slowdown,
        overhead=median(traced.ref_s[:common]) / median(plain.ref_s[:common]),
        extra={
            "analysis.context_hit_rate": hits / lookups if lookups else 0.0,
            "engine.memo_hit_rate": (
                traced.memo_hits / traced.memo_calls if traced.memo_calls else 0.0
            ),
            "sizing.zero_cost_share": traced.zero_cost / max(1, len(traced.raw_s)),
            "solver.nodes_explored": traced.solver_nodes / max(1, len(traced.raw_s)),
        },
    )
    if tracer.missing:
        outcome.notes.append(f"[{workload}] not traced (gone): {', '.join(tracer.missing)}")
    return outcome
