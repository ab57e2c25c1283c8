"""The operations an :class:`~repro.engine.AnalysisEngine` can run.

An *op* is a named pure function over a shared analysis context::

    fn(ctx: repro.analysis.Context, options: dict) -> (result, meta)

where ``meta`` carries observability counters (``solver_calls``, plus
the op's per-artifact ``context`` hit/miss counts added by
:func:`run_op`).
Ops receive the :class:`~repro.analysis.Context` for the serialized
system's fingerprint -- the same SHA-256 the cache key is built from --
so a result is valid for exactly the content that keyed it, worker
processes never unpickle arbitrary objects, and **two ops on the same
serialized system share one set of lowerings and one cycle
enumeration** through the context registry.

:func:`run_op` is the process-pool entrypoint (module-level, hence
picklable); :func:`register_op` admits project-specific operations,
which then work from every engine, including cached and parallel runs.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable

from ..analysis import Context, context_from_json, get_context, global_stats
from ..core.throughput import actual_mst, ideal_mst

__all__ = ["available_ops", "get_op", "register_op", "run_op"]

OpFn = Callable[[Context, dict], "tuple[object, dict]"]

_OPS: dict[str, OpFn] = {}


def register_op(name: str, fn: OpFn, overwrite: bool = False) -> None:
    """Register ``fn`` as an engine operation under ``name``."""
    if name in _OPS and not overwrite:
        raise ValueError(f"op {name!r} already registered")
    _OPS[name] = fn


def get_op(name: str) -> OpFn:
    try:
        return _OPS[name]
    except KeyError:
        known = ", ".join(sorted(_OPS))
        raise ValueError(f"unknown op {name!r} (available: {known})") from None


def available_ops() -> tuple[str, ...]:
    return tuple(sorted(_OPS))


def run_op(op: str, lis_json: str, options: dict | None) -> tuple:
    """Execute one op; the ``(result, meta)`` pair comes back with the
    compute wall-clock and the op's own context counts added to
    ``meta``.  The counts come from a :meth:`~repro.obs.Counters.scope`,
    so ops running at the same time on other threads are not charged
    for each other's work.  This is the function worker processes
    run."""
    fn = get_op(op)
    ctx = context_from_json(lis_json)
    with global_stats().scope() as counts:
        t0 = time.perf_counter()
        result, meta = fn(ctx, options or {})
        meta = dict(meta)
        meta["elapsed"] = time.perf_counter() - t0
    meta["context"] = counts.snapshot()
    return result, meta


def _coerce_target(value) -> Fraction | None:
    if value is None or isinstance(value, Fraction):
        return value
    return Fraction(value)


#: The uniform per-solver counters threaded through op meta into
#: ``EngineStats.solver`` and the ``repro stats`` solver table.
SOLVER_COUNTER_KEYS = (
    "nodes_explored",
    "table_hits",
    "bound_cuts",
    "batch_checks",
)


def _solver_counters(*stats_dicts: dict) -> dict[str, int]:
    """Merge solver stats dicts into the uniform numeric counters the
    engine aggregates (``EngineStats.solver``); solver-specific extras
    such as ``backend`` labels or ``lp_bound`` are dropped."""
    out: dict[str, int] = {}
    for stats in stats_dicts:
        for key in SOLVER_COUNTER_KEYS:
            value = (stats or {}).get(key)
            if isinstance(value, (int, float)):
                out[key] = out.get(key, 0) + int(value)
    return out


def _op_ideal_mst(ctx: Context, options: dict):
    return ideal_mst(ctx), {"solver_calls": 0}


def _op_actual_mst(ctx: Context, options: dict):
    extra = options.get("extra_tokens")
    if extra is not None:
        extra = {int(cid): int(tokens) for cid, tokens in extra.items()}
    return actual_mst(ctx, extra), {"solver_calls": 0}


def _sweep_rate(trial, method: str) -> Fraction:
    """The practical rate of one sweep point under the chosen method:
    ``"analytic"`` (the exact minimum cycle mean) or ``"schedule"``
    (the analytic schedule oracle's common shell rate, falling back to
    the minimum cycle mean on systems it does not support)."""
    if method == "schedule":
        from ..lis.backends import get_backend

        tctx = get_context(trial)
        if get_backend("schedule").supports(tctx):
            return tctx.schedule_oracle().min_rate()
        return actual_mst(tctx).mst
    if method != "analytic":
        raise ValueError(f"unknown sweep method {method!r}")
    return actual_mst(trial).mst


def _op_mst_sweep(ctx: Context, options: dict):
    """Ideal MST plus the practical MST at each uniform queue size.

    Options: ``queues`` (list of ints), ``include_ideal`` (default
    True), ``method`` (``"analytic"`` -- the minimum cycle mean, the
    default -- or ``"schedule"`` for the eventually-periodic oracle;
    the two are provably equal on strongly connected systems, so
    ``"schedule"`` here is the cross-checking mode of the Fig. 16/17
    sweeps, with ``"inf"`` always analytic because the ideal system
    may accumulate tokens unboundedly).  Returns ``{"inf": Fraction, "<q>":
    Fraction, ...}`` -- the per-trial unit of the Fig. 16 / Fig. 17
    sweeps, batched so one task amortizes one system's generation and
    transfer.
    """
    method = options.get("method", "analytic")
    out: dict[str, Fraction] = {}
    if options.get("include_ideal", True):
        out["inf"] = ideal_mst(ctx).mst
    for q in options.get("queues", ()):
        # Each queue size is a different content; mutate a plain clone
        # rather than building (and registering) a context per point.
        trial = ctx.copy()
        trial.set_all_queues(int(q))
        out[str(q)] = _sweep_rate(trial, method)
    return out, {"solver_calls": 0}


def _op_measure(ctx: Context, options: dict):
    """Throughput of one shell through a named measurement backend
    (:mod:`repro.lis.backends`), with automatic fallback.

    Options: ``backend`` (default ``"schedule"``), ``shell`` (default:
    the limiting-cycle probe of :func:`repro.lis.select_probe_shell`),
    ``clocks`` / ``warmup`` (simulation horizon; ignored by exact
    backends), ``extra_tokens``.  Returns ``{"shell", "backend"
    (the backend that actually ran, after fallback), "throughput"}``.
    """
    from ..lis.backends import resolve_backend
    from ..lis.measurement import select_probe_shell

    extra = options.get("extra_tokens")
    if extra is not None:
        extra = {int(cid): int(tokens) for cid, tokens in extra.items()}
    shell = options.get("shell")
    if shell is None:
        shell = select_probe_shell(ctx, extra_tokens=extra)
    clocks = int(options.get("clocks", 400))
    warmup = int(options.get("warmup", 100))
    backend = resolve_backend(options.get("backend", "schedule"), ctx)
    rate = backend.measure(
        ctx, shell, clocks=clocks, warmup=warmup, extra_tokens=extra
    )
    meta = {
        "solver_calls": 0,
        "simulated_cycles": 0 if backend.exact else warmup + clocks,
    }
    return {
        "shell": shell,
        "backend": backend.name,
        "throughput": rate,
    }, meta


def _op_size_queues(ctx: Context, options: dict):
    from ..core.solvers import size_queues

    solution = size_queues(
        ctx,
        method=options.get("method", "heuristic"),
        target=_coerce_target(options.get("target")),
        collapse=options.get("collapse", "auto"),
        timeout=options.get("timeout"),
        max_cycles=options.get("max_cycles"),
        verify=options.get("verify", True),
    )
    return solution, {
        "solver_calls": 1,
        "solver": _solver_counters(solution.stats),
    }


def _op_analyze(ctx: Context, options: dict):
    from ..core.report import analyze

    report = analyze(
        ctx,
        method=options.get("method", "heuristic"),
        max_cycles=options.get("max_cycles"),
    )
    meta: dict = {"solver_calls": 1 if report.fix is not None else 0}
    if report.fix is not None:
        meta["solver"] = _solver_counters(report.fix.stats)
    return report, meta


def _op_table4_trial(ctx: Context, options: dict):
    """One Table IV trial: structure counts, the heuristic cost, and
    the exact cost (None on timeout) after the SCC collapse.

    The collapsed system's *single* cycle enumeration (cached on its
    context) serves the cycle count, the deficient filter, and both
    solvers' TD instance -- previously this op enumerated twice.
    """
    from ..core.solvers import get_solver
    from ..core.solvers.exact import ExactTimeout

    mapping = ctx.scc_map()
    inter_scc_edges = sum(
        1 for e in ctx.channels() if mapping[e.src] != mapping[e.dst]
    )
    collapsed, _ = ctx.collapsed()
    inter_scc_cycles = len(collapsed.cycle_records())
    instance = collapsed.td_instance(target=Fraction(1), simplify=True)
    t0 = time.perf_counter()
    heuristic_weights, heur_stats = get_solver("heuristic").solve_instance(
        instance
    )
    heuristic_ms = (time.perf_counter() - t0) * 1e3
    heuristic_cost = instance.solution_cost(heuristic_weights)
    exact_cost: int | None = None
    exact_stats: dict = {}
    t0 = time.perf_counter()
    try:
        weights, exact_stats = get_solver("exact").solve_instance(
            instance, timeout=options.get("exact_timeout")
        )
        exact_cost = sum(weights.values()) + sum(instance.forced.values())
    except ExactTimeout:
        pass
    exact_ms = (time.perf_counter() - t0) * 1e3
    result = {
        "edges": len(ctx.channels()),
        "inter_scc_edges": inter_scc_edges,
        "inter_scc_cycles": inter_scc_cycles,
        "heuristic_cost": heuristic_cost,
        "heuristic_ms": heuristic_ms,
        "heuristic_stats": heur_stats,
        "exact_cost": exact_cost,
        "exact_ms": exact_ms,
        "exact_stats": exact_stats,
    }
    meta = {"solver_calls": 2, "solver": _solver_counters(heur_stats, exact_stats)}
    return result, meta


def _op_exhaustive_placement(ctx: Context, options: dict):
    """One Table V placement: insert relay stations on the listed
    channels of the (serialized) base system, then run the heuristic
    and optionally the exact solver on both TD variants."""
    from ..soc.exhaustive import solve_placement

    channels = tuple(int(c) for c in options["channels"])
    lis = ctx.copy()
    for cid in channels:
        lis.insert_relay(cid)
    placed = get_context(lis)
    placement = solve_placement(
        placed,
        channels,
        target=ideal_mst(placed).mst,
        run_exact=options.get("run_exact", True),
        exact_timeout=options.get("exact_timeout"),
    )
    calls = 0
    if placement.degraded:
        calls = 2 + (2 if options.get("run_exact", True) else 0)
    return placement, {"solver_calls": calls}


def _op_simulate_batch(ctx: Context, options: dict):
    """Batch simulation of one topology under many queue-sizing
    assignments (:mod:`repro.sim`).

    Options: ``assignments`` (list of ``{channel id: extra tokens}``;
    default ``[{}]``), ``clocks`` (measured cycles, default 400),
    ``warmup`` (discarded leading cycles, default 100),
    ``check_feasible`` (default False: also validate every assignment
    against the *unsimplified* token-deficit kernel in one batch
    matrix check, reported as a ``feasible`` flag per assignment),
    ``backend`` (``"fast"``, the default, or ``"schedule"``: exact
    asymptotic rates and infinite-horizon peak occupancies instead of
    the window's, falling back to ``fast`` when the oracle does not
    support the system).  Returns one dict per assignment:
    ``throughput`` ({shell: Fraction} over the measurement window) and
    ``max_occupancy`` ({channel id: peak items on the consumer shell's
    queue}).

    Both backends walk each assignment's eventually-periodic schedule
    afresh (:func:`repro.schedule.derive_schedule`) and keep nothing
    per assignment.  ``fast`` answers from the walks when the whole
    batch's transients and periods fit one budget of a quarter of
    ``warmup + clocks`` steps, so each of them lies inside the
    horizon: window counts are prefix/period arithmetic and the peak
    over one orbit is the simulator's peak.  Otherwise it steps the
    batch with :class:`~repro.sim.BatchSimulator`.  Either way the
    answers are the simulator's; meta ``simulated_cycles`` is 0 when
    nothing was stepped.
    """
    from ..schedule.oracle import derive_schedule
    from ..sim.batch import check_window

    assignments = [
        {int(c): int(x) for c, x in a.items()}
        for a in (options.get("assignments") or [{}])
    ]
    clocks = int(options.get("clocks", 400))
    warmup = int(options.get("warmup", 100))
    backend = options.get("backend", "fast")
    if backend not in ("fast", "schedule"):
        raise ValueError(
            f"simulate_batch backend must be 'fast' or 'schedule', "
            f"got {backend!r}"
        )
    flags = None
    solver_meta: dict = {}
    if options.get("check_feasible"):
        kern = ctx.td_kernel(simplify=False)
        flags = [bool(f) for f in kern.check_batch(assignments)]
        solver_meta = _solver_counters({"batch_checks": len(assignments)})

    if backend == "schedule":
        from ..lis.backends import get_backend

        if not get_backend("schedule").supports(ctx):
            backend = "fast"

    simulated = 0
    if backend == "schedule":
        answers = []
        for extra in assignments:
            oracle = derive_schedule(ctx, extra)
            answers.append(
                (oracle.shell_throughputs(), oracle.max_queue_occupancy())
            )
    else:
        horizon = warmup + clocks
        check_window(horizon, warmup)
        ctx.compiled().initial_tokens(assignments)  # refuse before walking
        answers = _derived_windows(ctx, assignments, horizon, warmup)
        if answers is None:
            simulated = horizon
            answers = _stepped_windows(ctx, assignments, horizon, warmup)
    out = []
    for b, (throughput, occupancy) in enumerate(answers):
        entry = {"throughput": throughput, "max_occupancy": occupancy}
        if flags is not None:
            entry["feasible"] = flags[b]
        out.append(entry)
    meta = {"solver_calls": 0, "simulated_cycles": simulated}
    if solver_meta:
        meta["solver"] = solver_meta
    return out, meta


def _derived_windows(
    ctx: Context, assignments: list[dict], horizon: int, warmup: int
) -> list[tuple[dict, dict]] | None:
    """Each assignment's shell rates over clocks ``[warmup, horizon)``
    and its peak occupancies, from its schedule; ``None`` when the
    walks exhaust their shared budget of ``horizon // 4`` steps
    (THEORY.md section 6 bounds what that costs a batch that then
    steps)."""
    from ..core.scheduling import ScheduleError
    from ..schedule.oracle import derive_schedule

    clocks = horizon - warmup
    remaining = horizon // 4
    answers = []
    for extra in assignments:
        try:
            oracle = derive_schedule(ctx, extra, max_steps=remaining)
        except ScheduleError:
            return None
        remaining -= oracle.transient + oracle.hyperperiod
        counts = oracle.window_firings(horizon, warmup)
        shells = {
            name: Fraction(int(counts[i]), clocks)
            for i, name in enumerate(oracle.node_names)
            if oracle.is_shell[i]
        }
        answers.append((shells, oracle.max_queue_occupancy()))
    return answers


def _stepped_windows(
    ctx: Context, assignments: list[dict], horizon: int, warmup: int
) -> list[tuple[dict, dict]]:
    """The same answers by stepping the batch ``horizon`` clocks."""
    from ..sim import BatchSimulator

    result = BatchSimulator(ctx, assignments).run(horizon, warmup=warmup)
    compiled = result.compiled
    answers = []
    for b in range(result.width):
        rates = result.throughput(b)
        shells = {
            name: rates[name]
            for i, name in enumerate(compiled.node_names)
            if compiled.is_shell[i]
        }
        answers.append((shells, result.max_queue_occupancy(b)))
    return answers


def _op_fault_trial(ctx: Context, options: dict):
    """One fault-injection trial: build the schedule from serialized
    specs, run the invariant harness on the requested backend, and
    return the JSON-able report (:mod:`repro.faults`).

    Options: ``specs`` (list of :meth:`FaultSpec.as_dict` dicts,
    required), ``backend`` (default ``"trace"``), ``seed`` (behavior
    seed, default 0), ``extra_tokens`` ({channel id: extra}),
    ``measure``, ``settle``, ``epsilon`` (Fraction string),
    ``min_items``.
    """
    from ..faults import FaultSpec, check_invariants

    specs = [FaultSpec.from_dict(d) for d in options["specs"]]
    kwargs: dict = {
        "backend": options.get("backend", "trace"),
        "seed": int(options.get("seed", 0)),
    }
    if options.get("extra_tokens") is not None:
        kwargs["extra_tokens"] = {
            int(c): int(x) for c, x in options["extra_tokens"].items()
        }
    if options.get("measure") is not None:
        kwargs["measure"] = int(options["measure"])
    if options.get("settle") is not None:
        kwargs["settle"] = int(options["settle"])
    if options.get("epsilon") is not None:
        kwargs["epsilon"] = Fraction(options["epsilon"])
    if options.get("min_items") is not None:
        kwargs["min_items"] = int(options["min_items"])
    report = check_invariants(ctx, specs, **kwargs)
    return report.as_dict(), {
        "solver_calls": 0,
        "simulated_cycles": 2 * report.clocks,
    }


def _parse_stochastic_options(options: dict):
    """Shared option parsing of the two stochastic ops: specs, horizon
    and quantile levels (all JSON-able, per the op contract)."""
    from ..stochastic import StochasticSpec

    specs = [StochasticSpec.from_dict(d) for d in options["specs"]]
    clocks = int(options.get("clocks", 600))
    trials = int(options.get("trials", 200))
    quantiles = tuple(
        float(q) for q in options.get("quantiles", (0.5, 0.99, 0.999))
    )
    return specs, clocks, trials, quantiles


def _op_tail_point(ctx: Context, options: dict):
    """One Monte-Carlo + analytic tail estimate at a single queue
    sizing (:mod:`repro.stochastic`).

    Options: ``specs`` (list of :meth:`StochasticSpec.as_dict` dicts,
    required), ``clocks`` (default 600), ``trials`` (default 200),
    ``warmup``, ``extra_tokens``, ``node`` (shell name; default the
    slowest shell), ``work`` (completion firing target),
    ``quantiles`` (default p50/p99/p999), ``analytic`` (default True).
    Returns the Monte-Carlo summary plus, when requested, the analytic
    estimate and the :func:`repro.stochastic.agreement` cross-check.
    """
    from ..stochastic import agreement, estimate_tails, run_monte_carlo

    specs, clocks, trials, quantiles = _parse_stochastic_options(options)
    extra = {
        int(c): int(x)
        for c, x in (options.get("extra_tokens") or {}).items()
    }
    node = options.get("node")
    work = options.get("work")
    mc = run_monte_carlo(
        ctx,
        specs,
        clocks=clocks,
        trials=trials,
        warmup=int(options.get("warmup", 0)),
        extra_tokens=extra,
        node=node,
        work=None if work is None else int(work),
    )
    result = mc.summary(quantiles)
    if options.get("analytic", True):
        estimate = estimate_tails(
            ctx,
            specs,
            clocks=clocks,
            node=mc.node,
            work=mc.work,
            quantiles=quantiles,
            extra_tokens=extra,
        )
        result["analytic"] = estimate.as_dict()
        result["agreement"] = agreement(mc, estimate, quantiles)
    return result, {
        "solver_calls": 0,
        "simulated_cycles": clocks * trials,
    }


def _op_tail_curves(ctx: Context, options: dict):
    """A full p50/p99/p999-vs-queue-sizing curve
    (:func:`repro.stochastic.tail_curve`).

    Options as :func:`tail_point` plus ``sizings`` (list of
    ``{channel id: extra}``; default the uniform ladder of
    :func:`~repro.stochastic.uniform_sizings` up to ``max_extra``,
    default 3).  Returns :meth:`TailCurve.as_dict`.
    """
    from ..stochastic import tail_curve, uniform_sizings

    specs, clocks, trials, quantiles = _parse_stochastic_options(options)
    sizings = options.get("sizings")
    if sizings is None:
        sizings = uniform_sizings(ctx, int(options.get("max_extra", 3)))
    else:
        sizings = [
            {int(c): int(x) for c, x in s.items()} for s in sizings
        ]
    work = options.get("work")
    curve = tail_curve(
        ctx,
        specs,
        clocks=clocks,
        trials=trials,
        sizings=sizings,
        quantiles=quantiles,
        node=options.get("node"),
        work=None if work is None else int(work),
        warmup=int(options.get("warmup", 0)),
        analytic=options.get("analytic", True),
    )
    return curve.as_dict(), {
        "solver_calls": 0,
        "simulated_cycles": clocks * trials * len(sizings),
    }


def _op_chaos_probe(ctx: Context, options: dict):
    """Engine-level chaos: deliberately misbehave inside a worker.

    First run with a given ``sentinel`` path: create the sentinel and
    SIGKILL our own process (or sleep past the op timeout when
    ``mode="hang"``), so the pool breaks mid-result.  The engine's
    replay then re-runs the op, finds the sentinel, and returns
    normally -- proving the rebuild + retry path end to end.  The
    ``salt`` option only differentiates cache keys between drills.
    """
    import os
    import signal

    sentinel = options.get("sentinel")
    mode = options.get("mode", "kill")
    if sentinel and not os.path.exists(sentinel):
        fd = os.open(sentinel, os.O_CREAT | os.O_WRONLY, 0o644)
        os.close(fd)
        if mode == "hang":
            time.sleep(float(options.get("sleep", 3600.0)))
        else:
            os.kill(os.getpid(), signal.SIGKILL)
    return {
        "survived": True,
        "pid": os.getpid(),
        "salt": options.get("salt"),
        "fingerprint": ctx.fingerprint,
    }, {"solver_calls": 0}


register_op("ideal_mst", _op_ideal_mst)
register_op("actual_mst", _op_actual_mst)
register_op("mst_sweep", _op_mst_sweep)
register_op("measure", _op_measure)
register_op("size_queues", _op_size_queues)
register_op("analyze", _op_analyze)
register_op("table4_trial", _op_table4_trial)
register_op("exhaustive_placement", _op_exhaustive_placement)
register_op("simulate_batch", _op_simulate_batch)
register_op("fault_trial", _op_fault_trial)
register_op("tail_point", _op_tail_point)
register_op("tail_curves", _op_tail_curves)
register_op("chaos_probe", _op_chaos_probe)
