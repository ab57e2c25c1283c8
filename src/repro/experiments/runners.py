"""Experiment runners for Section VIII's figures and tables.

Each runner is deterministic given its seed base, averages over a
configurable number of random systems, and returns plain dicts/rows
that the benchmarks render with :mod:`repro.experiments.tables`.

All of them fan their per-system work out through the
:class:`~repro.engine.AnalysisEngine`: pass ``jobs=`` to parallelize,
``cache_dir=`` to memoize across runs, or an existing ``engine=`` to
share its pool, cache, and stats.  Results are aggregated in
submission order, so serial and parallel runs produce identical
numbers.
"""

from __future__ import annotations

import contextlib
import statistics
from dataclasses import dataclass, field

from ..engine import AnalysisEngine
from ..gen.generator import GeneratorConfig, generate_lis

__all__ = [
    "fig16_mst_degradation",
    "fig17_fixed_queue_recovery",
    "Table4Row",
    "table4_exact_vs_heuristic",
    "tail_latency_curves",
]


@contextlib.contextmanager
def _engine_for(engine, jobs, cache_dir):
    """An engine to submit through: the caller's (left open) or a
    transient one (closed on exit)."""
    if engine is not None:
        yield engine
        return
    with AnalysisEngine(jobs=jobs, cache_dir=cache_dir) as local:
        yield local


def _run_tasks(eng, tasks, checkpoint, chunk):
    """``eng.run`` with an optional completion journal, so a killed
    runner resumes where it died (see :mod:`repro.engine.checkpoint`)."""
    if checkpoint is not None:
        from ..engine import run_checkpointed

        return run_checkpointed(eng, tasks, checkpoint, chunk=chunk)
    return eng.run(tasks)


def fig16_mst_degradation(
    rs_values: list[int],
    queues: list[int],
    policies: tuple[str, ...] = ("scc", "any"),
    trials: int = 10,
    v: int = 50,
    s: int = 5,
    c: int = 5,
    seed_base: int = 1000,
    jobs: int | str | None = None,
    cache_dir=None,
    engine: AnalysisEngine | None = None,
    checkpoint=None,
    checkpoint_chunk: int = 16,
    method: str = "analytic",
) -> dict[tuple[str, str], list[float]]:
    """Fig. 16: average MST vs relay-station count.

    Returns ``{(policy, queue_label): [avg MST per rs value]}`` where
    ``queue_label`` is ``"inf"`` for the ideal system (infinite queues,
    no backpressure) or ``str(q)`` for finite uniform queues.
    ``checkpoint`` journals completed sweeps for crash resume.
    ``method`` selects how each finite-queue point is computed:
    ``"analytic"`` (the minimum cycle mean) or ``"schedule"`` (the
    eventually-periodic oracle -- same exact values, different
    derivation; see the ``mst_sweep`` op).
    """
    grid = [
        (policy, rs, trial)
        for policy in policies
        for rs in rs_values
        for trial in range(trials)
    ]
    tasks = []
    for policy, rs, trial in grid:
        cfg = GeneratorConfig(
            v=v,
            s=s,
            c=c,
            rs=rs,
            rp=True,
            policy=policy,
            seed=seed_base + 7919 * trial + rs,
        )
        tasks.append(
            (
                "mst_sweep",
                generate_lis(cfg),
                {"queues": queues, "method": method},
            )
        )
    with _engine_for(engine, jobs, cache_dir) as eng:
        sweeps = _run_tasks(eng, tasks, checkpoint, checkpoint_chunk)

    labels = ["inf"] + [str(q) for q in queues]
    series: dict[tuple[str, str], list[float]] = {
        (policy, label): [] for policy in policies for label in labels
    }
    sums: dict[tuple[str, int, str], float] = {}
    for (policy, rs, _trial), sweep in zip(grid, sweeps):
        for label in labels:
            key = (policy, rs, label)
            sums[key] = sums.get(key, 0.0) + float(sweep[label])
    for policy in policies:
        for label in labels:
            series[(policy, label)] = [
                sums[(policy, rs, label)] / trials for rs in rs_values
            ]
    return series


def fig17_fixed_queue_recovery(
    q_values: list[int],
    trials: int = 10,
    rs: int = 10,
    v: int = 50,
    s: int = 5,
    c: int = 5,
    seed_base: int = 2000,
    jobs: int | str | None = None,
    cache_dir=None,
    engine: AnalysisEngine | None = None,
    checkpoint=None,
    checkpoint_chunk: int = 16,
    method: str = "analytic",
) -> dict[int, float]:
    """Fig. 17: average actual/ideal MST ratio vs uniform queue size,
    for scc-policy relay insertion (ideal MST is 1 there).  ``method``
    is forwarded to the ``mst_sweep`` op (``"analytic"`` or
    ``"schedule"``)."""
    tasks = []
    for trial in range(trials):
        cfg = GeneratorConfig(
            v=v, s=s, c=c, rs=rs, rp=True, policy="scc",
            seed=seed_base + 104729 * trial,
        )
        tasks.append(
            (
                "mst_sweep",
                generate_lis(cfg),
                {"queues": q_values, "method": method},
            )
        )
    with _engine_for(engine, jobs, cache_dir) as eng:
        sweeps = _run_tasks(eng, tasks, checkpoint, checkpoint_chunk)
    totals = {q: 0.0 for q in q_values}
    for sweep in sweeps:
        ideal = sweep["inf"]
        for q in q_values:
            totals[q] += float(sweep[str(q)] / ideal)
    return {q: total / trials for q, total in totals.items()}


def tail_latency_curves(
    systems: dict | None = None,
    specs: list[dict] | None = None,
    clocks: int = 600,
    trials: int = 200,
    max_extra: int = 3,
    quantiles: tuple[float, ...] = (0.5, 0.99, 0.999),
    jobs: int | str | None = None,
    cache_dir=None,
    engine: AnalysisEngine | None = None,
    checkpoint=None,
    checkpoint_chunk: int = 1,
) -> dict[str, dict]:
    """Tail-vs-queue-sizing curves over a set of systems (the
    ``bench_tail_curves`` deliverable).

    ``systems`` maps name -> LIS (default: fig15, the COFDM
    transmitter, and a 4x4 mesh NoC); ``specs`` is a list of
    :meth:`~repro.stochastic.StochasticSpec.as_dict` dicts (default: a
    10% global Bernoulli service modulation).  Each (system, sizing
    ladder) pair runs as one ``tail_curves`` engine task -- one kernel
    batch of ``(max_extra + 1) * trials`` configurations -- and the
    returned ``{name: TailCurve.as_dict()}`` is deterministic in the
    spec seeds.  ``checkpoint`` journals completed systems for crash
    resume.
    """
    if systems is None:
        from ..gen.examples import fig15_lis
        from ..gen.generator import mesh_lis
        from ..soc import cofdm_transmitter

        systems = {
            "fig15": fig15_lis(),
            "cofdm": cofdm_transmitter(),
            "mesh4x4": mesh_lis(4, 4),
        }
    if specs is None:
        from ..stochastic import bernoulli_stalls

        specs = [bernoulli_stalls(rate=0.1, scope="global").as_dict()]
    names = list(systems)
    options = {
        "specs": specs,
        "clocks": clocks,
        "trials": trials,
        "max_extra": max_extra,
        "quantiles": list(quantiles),
    }
    tasks = [("tail_curves", systems[name], options) for name in names]
    with _engine_for(engine, jobs, cache_dir) as eng:
        curves = _run_tasks(eng, tasks, checkpoint, checkpoint_chunk)
    return dict(zip(names, curves))


@dataclass
class Table4Row:
    """One aggregated row of the paper's Table IV."""

    v: int
    s: int
    c: int
    rs: int
    trials: int = 0
    avg_edges: float = 0.0
    avg_inter_scc_edges: float = 0.0
    avg_inter_scc_cycles: float = 0.0
    exact_solutions: list[int] = field(default_factory=list)
    heuristic_solutions_finished: list[int] = field(default_factory=list)
    unfinished_cycles: list[float] = field(default_factory=list)
    heuristic_solutions_unfinished: list[int] = field(default_factory=list)
    exact_ms: list[float] = field(default_factory=list)
    heuristic_ms: list[float] = field(default_factory=list)
    solver_stats: dict[str, int] = field(default_factory=dict)

    @property
    def percent_exact_finished(self) -> float:
        total = len(self.exact_solutions) + len(
            self.heuristic_solutions_unfinished
        )
        return len(self.exact_solutions) / total if total else 1.0

    def as_table_row(self) -> list:
        mean = lambda xs: statistics.fmean(xs) if xs else None  # noqa: E731
        return [
            f"({self.v},{self.avg_edges:.2f})",
            self.s,
            f"{self.avg_inter_scc_edges:.2f}",
            f"{self.avg_inter_scc_cycles:.2f}",
            self.rs,
            mean(self.exact_solutions),
            mean(self.heuristic_solutions_finished),
            f"{self.percent_exact_finished:.2f}",
            mean(self.unfinished_cycles),
            mean(self.heuristic_solutions_unfinished),
            f"{statistics.fmean(self.exact_ms):.2f}" if self.exact_ms else None,
            f"{statistics.fmean(self.heuristic_ms):.2f}"
            if self.heuristic_ms
            else None,
        ]

    HEADERS = [
        "(V,E)",
        "#SCC",
        "Edges(inter)",
        "Cycles(inter)",
        "RS",
        "Exact",
        "Heuristic",
        "%ExactFin",
        "CyclesUnfin",
        "HeurNoExact",
        "Exact ms",
        "Heur ms",
    ]


def table4_exact_vs_heuristic(
    configs: list[tuple[int, int, int]] | None = None,
    trials: int = 10,
    rs: int = 10,
    exact_timeout: float = 20.0,
    seed_base: int = 3000,
    jobs: int | str | None = None,
    cache_dir=None,
    engine: AnalysisEngine | None = None,
    checkpoint=None,
    checkpoint_chunk: int = 16,
) -> list[Table4Row]:
    """Table IV: exact vs heuristic queue sizing on DAG-of-SCC systems
    with inter-SCC relay stations, solved after the SCC collapse.

    ``configs`` is a list of ``(v, s, c)`` tuples; the defaults mirror
    the paper's four rows (chord counts chosen so that average edge
    counts match the published (V, E) pairs).
    """
    if configs is None:
        configs = [(50, 10, 2), (100, 10, 1), (100, 20, 1), (200, 10, 1)]
    grid = [
        (row_idx, v, s, c, trial)
        for row_idx, (v, s, c) in enumerate(configs)
        for trial in range(trials)
    ]
    tasks = []
    for row_idx, v, s, c, trial in grid:
        cfg = GeneratorConfig(
            v=v, s=s, c=c, rs=rs, rp=True, policy="scc",
            seed=seed_base + 15485863 * row_idx + 6151 * trial,
        )
        tasks.append(
            (
                "table4_trial",
                generate_lis(cfg),
                {"exact_timeout": exact_timeout},
            )
        )
    with _engine_for(engine, jobs, cache_dir) as eng:
        outcomes = _run_tasks(eng, tasks, checkpoint, checkpoint_chunk)

    rows = [
        Table4Row(v=v, s=s, c=c, rs=rs, trials=trials)
        for v, s, c in configs
    ]
    sums = [[0.0, 0.0, 0.0] for _ in configs]
    for (row_idx, *_cfg), outcome in zip(grid, outcomes):
        row = rows[row_idx]
        sums[row_idx][0] += outcome["edges"]
        sums[row_idx][1] += outcome["inter_scc_edges"]
        sums[row_idx][2] += outcome["inter_scc_cycles"]
        row.exact_ms.append(outcome.get("exact_ms", 0.0))
        row.heuristic_ms.append(outcome.get("heuristic_ms", 0.0))
        for stats in (
            outcome.get("exact_stats") or {},
            outcome.get("heuristic_stats") or {},
        ):
            for key, value in stats.items():
                if isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    row.solver_stats[key] = row.solver_stats.get(
                        key, 0
                    ) + int(value)
        if outcome["exact_cost"] is not None:
            row.exact_solutions.append(outcome["exact_cost"])
            row.heuristic_solutions_finished.append(
                outcome["heuristic_cost"]
            )
        else:
            row.unfinished_cycles.append(outcome["inter_scc_cycles"])
            row.heuristic_solutions_unfinished.append(
                outcome["heuristic_cost"]
            )
    for row, (edges, inter, cycles) in zip(rows, sums):
        row.avg_edges = edges / trials
        row.avg_inter_scc_edges = inter / trials
        row.avg_inter_scc_cycles = cycles / trials
    return rows
