"""Per-layer self-time tracing, installed from outside the program.

:class:`Tracer` replaces the public functions of each layer (see
:data:`LAYERS`) with timing wrappers.  A wrapper pushes a frame on a
per-thread stack, so a layer's *self* time is its calls' wall time
minus the time spent in nested wrapped calls of any layer.  Self times
of all layers plus the unwrapped remainder add up to the request time.

Module-level functions are replaced in every loaded ``repro`` module
that holds a reference to them (``from x import f`` copies the name),
methods on their class.  A name that no longer exists is skipped and
listed in :attr:`Tracer.missing`, so a refactor turns its time into
``unattributed_ms`` instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

#: (layer, module, attribute, scope).  ``scope`` is ``"all"`` (the
#: defining module and every importer) or ``"importers"`` (only the
#: modules that imported the name -- for recursive functions, so the
#: recursion itself stays unwrapped).
LAYERS: tuple[tuple[str, str, str, str], ...] = (
    ("serialize", "repro.core.serialize", "lis_to_json", "all"),
    ("serialize", "repro.core.serialize", "lis_from_json", "all"),
    ("serialize", "repro.core.serialize", "lis_fingerprint", "all"),
    ("serialize", "repro.engine.cache", "content_key", "all"),
    ("serialize", "repro.engine.cache", "canonical_options", "all"),
    ("analysis.lower", "repro.core.lis_graph", "LisGraph.ideal_marked_graph", "all"),
    ("analysis.lower", "repro.core.lis_graph", "LisGraph.doubled_marked_graph", "all"),
    ("analysis.context", "repro.analysis.context", "Context.__init__", "all"),
    ("analysis.context", "repro.analysis.context", "context_from_json", "all"),
    ("analysis.context", "repro.analysis.context", "get_context", "all"),
    ("analysis.context", "repro.core.marked_graph", "MarkedGraph.copy", "all"),
    ("mcm", "repro.graphs.mcm", "karp_minimum_cycle_mean", "all"),
    ("mcm", "repro.graphs.mcm", "howard_minimum_cycle_mean", "all"),
    ("mcm", "repro.graphs.mcm", "minimum_cycle_ratio", "all"),
    ("mcm", "repro.graphs.mcm", "minimum_cycle_mean", "all"),
    ("mcm", "repro.graphs.mcm", "critical_cycle", "all"),
    ("mcm", "repro.graphs.mcm", "critical_edges", "all"),
    ("cycles", "repro.core.cycles", "cycle_records", "all"),
    ("cycles", "repro.graphs.cycles", "count_edge_cycles", "all"),
    ("collapse", "repro.core.cycles", "collapse_sccs", "all"),
    ("collapse", "repro.core.cycles", "is_collapsible", "all"),
    ("td_compile", "repro.core.token_deficit", "build_td_instance", "all"),
    ("td_compile", "repro.core.token_deficit", "td_instance_from_records", "all"),
    ("td_compile", "repro.core.solvers.kernel", "compile_td", "all"),
    ("solver", "repro.core.solvers.registry", "Solver.solve_instance", "all"),
    ("throughput", "repro.core.throughput", "mst", "all"),
    ("throughput", "repro.core.throughput", "ideal_mst", "all"),
    ("throughput", "repro.core.throughput", "actual_mst", "all"),
    ("bottleneck", "repro.core.throughput", "bottleneck_channels", "all"),
    ("slack", "repro.core.slack", "pipelining_slack", "all"),
    ("slack", "repro.core.slack", "channel_slack", "all"),
    ("sim.compile", "repro.sim.compile", "compile_lis", "all"),
    ("sim.run", "repro.sim.batch", "BatchSimulator.run", "all"),
    ("schedule", "repro.schedule.oracle", "derive_schedule", "all"),
    ("stochastic.mc", "repro.stochastic.montecarlo", "run_monte_carlo", "all"),
    ("stochastic.mc", "repro.stochastic.montecarlo", "run_monte_carlo_batch", "all"),
    ("stochastic.mc", "repro.stochastic.spec", "compile_stochastic", "all"),
    ("stochastic.analytic", "repro.stochastic.tails", "estimate_tails", "all"),
    ("stochastic.analytic", "repro.stochastic.tails", "agreement", "all"),
    ("engine", "repro.engine.core", "AnalysisEngine.run", "all"),
    ("engine", "repro.engine.ops", "run_op", "all"),
    ("engine.disk", "repro.engine.cache", "DiskCache.get", "all"),
    ("engine.disk", "repro.engine.cache", "DiskCache.put", "all"),
    ("server.protocol", "repro.server.protocol", "parse_job", "all"),
    ("server.protocol", "repro.server.protocol", "jsonify", "importers"),
)


def _node_clocks(args, kwargs, result) -> float:
    """Node-clock work of one ``BatchSimulator.run`` call."""
    sim, clocks = args[0], (args[1] if len(args) > 1 else kwargs["clocks"])
    return float(sim.compiled.n_nodes * int(clocks) * sim.width)


#: Work counters taken from a wrapped call: (module, attribute) ->
#: (counter name, fn(args, kwargs, result) -> amount).  Counts the
#: program already publishes (solver nodes, memo and context hits) are
#: read from its own statistics instead.
COUNTERS = {
    ("repro.core.cycles", "cycle_records"): ("cycles.count", lambda a, k, r: float(len(r))),
    ("repro.sim.batch", "BatchSimulator.run"): ("sim.node_clocks", _node_clocks),
}


class Tracer:
    """Self-time and call-count accumulator (thread-safe)."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        #: Outermost entries per layer (nested calls of the same layer
        #: are one entry).
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        #: Recording switch: calls made while False pass straight
        #: through (used to keep output checks out of the numbers).
        self.active = True
        self._local = threading.local()
        # Re-entrant: reset() may run in a signal handler on a thread
        # that is inside a wrapper's critical section.
        self._lock = threading.RLock()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            outer = not stack or stack[-1][1] != layer
            frame = [0.0, layer]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with tracer._lock:
                    tracer.self_s[layer] += elapsed - frame[0]
                    if outer:
                        tracer.calls[layer] += 1
            if counter is not None:
                name, amount = counter
                value = amount(args, kwargs, result)
                with tracer._lock:
                    tracer.counters[name] += value
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every :data:`LAYERS` entry that exists."""
        for _, module_name, _, _ in LAYERS:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        for layer, module_name, qualname, scope in LAYERS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            owner = module
            if module is not None and owner_name:
                owner = getattr(module, owner_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}:{qualname}")
                continue
            wrapper = self._wrap(
                layer, original, COUNTERS.get((module_name, qualname))
            )
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                if scope == "importers" and mod is module:
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def _patch(self, target, name: str, wrapper) -> None:
        self._undo.append((target, name, getattr(target, name)))
        setattr(target, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            target, name, original = self._undo.pop()
            setattr(target, name, original)

    def reset(self) -> None:
        with self._lock:
            self.self_s.clear()
            self.calls.clear()
            self.counters.clear()

    def snapshot(self) -> dict:
        """JSON-able totals (seconds, calls, counters)."""
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counters": dict(self.counters),
                "missing": list(self.missing),
            }


#: Per-layer self-time metrics: metric name -> tracer layer.
LAYER_MS = {
    "serialize.ms": "serialize",
    "analysis.lower_ms": "analysis.lower",
    "analysis.context_ms": "analysis.context",
    "mcm.ms": "mcm",
    "cycles.ms": "cycles",
    "collapse.ms": "collapse",
    "td_compile.ms": "td_compile",
    "solver.ms": "solver",
    "throughput.ms": "throughput",
    "bottleneck.ms": "bottleneck",
    "slack.ms": "slack",
    "sim.compile_ms": "sim.compile",
    "sim.run_ms": "sim.run",
    "schedule.derive_ms": "schedule",
    "stochastic.mc_ms": "stochastic.mc",
    "stochastic.analytic_ms": "stochastic.analytic",
    "engine.self_ms": "engine",
    "engine.disk_ms": "engine.disk",
    "server.protocol_ms": "server.protocol",
}

#: Metrics only the server workload measures (0 elsewhere).
SERVER_METRICS = (
    "server.queue_wait_ms",
    "server.service_ms",
    "server.transport_ms",
    "server.cache_hit_rate",
    "server.coalesce_rate",
    "server.shed",
    "serve.hot_share",
    "client.lag_p99_ms",
)


def layer_metrics(
    snap: dict,
    requests: int,
    request_s: float,
    slowdown: float,
    overhead: float,
    extra: dict[str, float],
    waited_s: float = 0.0,
) -> dict[str, float]:
    """Per-request layer self times (reference-host ms, see
    ``common.SpeedGauge``) plus the unattributed remainder.

    ``request_s`` is the summed request wall time, ``waited_s`` the
    part of it spent queued (no layer runs then), ``slowdown`` the
    host's over the traced requests.  ``extra`` values are taken as
    given."""
    per = max(1, requests) * slowdown
    self_s = snap["self_s"]
    counters = snap["counters"]
    out = {"request_ms": request_s / per * 1e3}
    for name, layer in LAYER_MS.items():
        out[name] = self_s.get(layer, 0.0) / per * 1e3
    remainder = request_s - sum(self_s.values()) - waited_s
    out["unattributed_ms"] = remainder / per * 1e3
    out["unattributed.share"] = remainder / request_s if request_s else 0.0
    out["mcm.calls"] = snap["calls"].get("mcm", 0) / max(1, requests)
    out["cycles.count"] = counters.get("cycles.count", 0.0) / max(1, requests)
    node_clocks = counters.get("sim.node_clocks", 0.0)
    out["sim.ns_per_node_clock"] = (
        self_s.get("sim.run", 0.0) * 1e9 / node_clocks / slowdown if node_clocks else 0.0
    )
    out.update(dict.fromkeys(SERVER_METRICS, 0.0))
    out["tracing.overhead"] = overhead
    out.update(extra)
    return out
