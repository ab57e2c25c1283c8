"""Shared pieces of the benchmark: the host-speed gauge, statistics,
output checks, the per-seed result digests, set-up timing and the
result line."""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

#: Where the benchmark keeps state between runs in one checkout.
STATE_DIR = ".perfbench_state"
#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 5
#: A request (or its output check) running longer than this is stopped
#: and counted as failed.
REQUEST_BUDGET_S = 20.0
#: Seconds :func:`probe` takes on the reference host (the fast state of
#: a 2 GHz x86 vCPU).  Reported times are reference-host times.
REFERENCE_PROBE_S = 0.003


class RequestBudgetExceeded(BaseException):
    """Raised into a request that overran :data:`REQUEST_BUDGET_S`.

    A ``BaseException`` so the engine's per-task ``except Exception``
    does not turn it into an ordinary op failure and carry on."""


def probe(clock=time.perf_counter) -> float:
    """Seconds (by ``clock``) taken by a fixed slice of the kind of work
    the program does: exact ``Fraction`` arithmetic and dict updates."""
    t0 = clock()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 700):
        acc = min(acc + Fraction(i % 17, i % 13 + 1), Fraction(10**6))
        seen[i] = acc
    return clock() - t0


class SpeedGauge:
    """How slow this CPU runs now, relative to the reference host.

    A vCPU of a shared virtual machine swings between speed states
    about 2x apart, for seconds to minutes at a time, which moves every
    wall-clock figure by the same factor.  Timing :func:`probe` just
    before and after each request and dividing the request's time by
    ``slowdown`` removes that factor: the reported time is what the
    reference host would have taken, and a change to the program still
    moves it in full.  The probe must run on the CPU that ran the work
    -- two vCPUs swing independently -- so the benchmark pins itself,
    and the server it launches, to one CPU.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(probe())

    def slowdown(self) -> float:
        """Median of the last five probe times over the reference."""
        return statistics.median(self.samples[-5:]) / REFERENCE_PROBE_S


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile, sample count)``.  Needs eleven samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def median(samples: list[float]) -> float:
    return statistics.median(samples)


@dataclass
class Outcome:
    """What one run measured: metric name -> value (units come from
    ``BENCHMARK.json``)."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.notes) < 40:
            self.notes.append(f"FAILED: {why}")


def oracle_rate(lis, extra_tokens: dict[int, int] | None = None) -> Fraction:
    """The practical MST of ``lis`` sized by ``extra_tokens``, from the
    analytic schedule oracle: it walks the doubled marked graph's
    markings until they repeat, an algorithm independent of the Karp
    recursion the program's MST comes from.  A private context keeps
    the check out of the program's registry and counters."""
    from repro.analysis import Context, ContextStats

    ctx = Context(lis, stats=ContextStats())
    return ctx.schedule_oracle(dict(extra_tokens or {})).min_rate()


def ideal_mst(lis) -> Fraction:
    """The ideal MST by Howard's policy iteration (fixed named systems
    only: it does not terminate on some ideal graphs of meshes with
    relay stations)."""
    from repro.core.marked_graph import place_tokens
    from repro.graphs.mcm import howard_minimum_cycle_mean

    mean = howard_minimum_cycle_mean(lis.ideal_marked_graph().graph, place_tokens)
    return Fraction(1) if mean is None else min(Fraction(1), mean)


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current RSS."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def digest(value: object) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class DigestLog:
    """Per-request digests of timing-scrubbed results, kept per
    (workload, seed) in the checkout.  A request whose digest differs
    from an earlier run of the same seed is a failure: the program's
    answers must not depend on the run."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.path = root / STATE_DIR / f"digests-{workload}-{seed}.json"
        try:
            self.known: dict[str, str] = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.known = {}
        self.seen: dict[str, str] = {}

    def check(self, index: int, scrubbed: object) -> bool:
        value = digest(scrubbed)
        self.seen[str(index)] = value
        return self.known.get(str(index), value) == value

    def combined(self) -> str:
        return digest(sorted(self.seen.items(), key=lambda kv: int(kv[0])))

    def save(self) -> None:
        merged = {**self.known, **self.seen}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(merged, sort_keys=True))
        tmp.replace(self.path)


def child_env(root: Path) -> dict[str, str]:
    """Environment for processes running the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


_READY_SNIPPET = (
    "import repro\n"
    "from repro.engine import AnalysisEngine\n"
    "engine = AnalysisEngine()\n"
    "print('ready', flush=True)\n"
)


def in_process_setup_s(root: Path) -> float:
    """Set-up of the in-process workloads: starting the interpreter
    until ``import repro`` and an ``AnalysisEngine`` are ready.  The
    median over :data:`SETUP_REPEATS` launches, in reference-host
    seconds (the launched interpreter inherits this process's CPU)."""
    gauge = SpeedGauge()
    times = []
    for _ in range(SETUP_REPEATS):
        gauge.sample()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _READY_SNIPPET],
            env=child_env(root),
            cwd=root,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            proc.wait(timeout=30)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe did not start the engine")
        gauge.sample()
        times.append(seconds / gauge.slowdown())
    return median(times)


def report(workload: str, outcome: Outcome, units: dict[str, str]) -> None:
    """Print the human-readable lines, then the result line last."""
    for note in outcome.notes:
        print(note)
    share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"[{workload}] attempted {outcome.attempted}  failed {outcome.failed}"
          f"  failed_share {share:.4f} ratio")
    for name, value in outcome.metrics.items():
        print(f"[{workload}] {name} = {value:.6g} {units.get(name, '')}")
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in outcome.metrics.items()
        if name in units
    }
    print(json.dumps({
        "correct": outcome.failed == 0 and set(metrics) == set(units),
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
