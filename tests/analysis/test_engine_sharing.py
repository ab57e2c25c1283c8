"""Engine ops on the same serialized system share one Context."""

import sys
import threading
from collections import Counter
from fractions import Fraction

import repro.core.serialize
import repro.graphs.mcm
from repro.core import LisGraph
from repro.core.serialize import lis_to_json
from repro.engine import AnalysisEngine, register_op
from repro.engine.ops import run_op
from repro.gen import examples


def test_two_ops_on_same_serialized_system_lower_once():
    lis_json = lis_to_json(examples.fig1_lis())
    with AnalysisEngine(jobs=1) as engine:
        base = engine.run([("actual_mst", lis_json, None)])[0]
        # Different options -> different cache key, so this is a second
        # genuine op execution -- but the same fingerprint, so the
        # registry serves the already-lowered context.
        again = engine.run(
            [("actual_mst", lis_json, {"extra_tokens": {}})]
        )[0]
        assert base.mst == again.mst == Fraction(2, 3)
        # One doubled lowering (on the one ideal lowering) and one Karp
        # run total: the second op found the MST already cached on the
        # shared context and never touched the marked graph again.
        assert engine.stats.context == {
            "ideal_mg.miss": 1,
            "doubled_mg.miss": 1,
            "actual_mst.miss": 1,
            "actual_mst.hit": 1,
        }


def test_run_op_meta_carries_context_delta():
    lis_json = lis_to_json(examples.fig15_lis())
    result, meta = run_op("actual_mst", lis_json, None)
    assert result.mst == Fraction(3, 4)
    assert meta["context"]["doubled_mg.miss"] == 1
    # The doubled lowering extends the ideal one, lowered in this op.
    assert meta["context"]["ideal_mg.miss"] == 1
    # A second op run on the same text reuses the registry context.
    _result, meta2 = run_op("ideal_mst", lis_json, None)
    assert "doubled_mg.miss" not in meta2["context"]
    assert "ideal_mg.miss" not in meta2["context"]
    assert meta2["context"]["ideal_mg.hit"] == 1


def test_concurrent_ops_are_not_charged_for_each_other():
    """An op's ``meta["context"]`` counts only its own work, even while
    another op runs on a sibling thread (the server's shard threads)."""
    entered, release = threading.Event(), threading.Event()

    def blocked(ctx, options):
        entered.set()
        assert release.wait(timeout=30)
        return None, {}

    register_op("test_blocked", blocked, overwrite=True)
    metas = []
    waiter = threading.Thread(
        target=lambda: metas.append(
            run_op("test_blocked", lis_to_json(examples.fig1_lis()), None)[1]
        )
    )
    waiter.start()
    try:
        assert entered.wait(timeout=30)
        _, sized = run_op(
            "size_queues", lis_to_json(examples.fig15_lis()), None
        )
    finally:
        release.set()
        waiter.join(timeout=30)
    assert not waiter.is_alive()
    assert sized["context"]["cycles.miss"] == 1
    assert len(metas) == 1
    assert metas[0]["context"] == {}


def test_table4_trial_enumerates_cycles_exactly_once():
    from repro.gen import GeneratorConfig, generate_lis

    lis = generate_lis(
        GeneratorConfig(v=50, s=10, c=2, rs=10, rp=True, policy="scc", seed=3)
    )
    result, meta = run_op(
        "table4_trial", lis_to_json(lis), {"exact_timeout": 30.0}
    )
    assert result["heuristic_cost"] >= (result["exact_cost"] or 0)
    delta = meta["context"]
    # The whole trial -- cycle count, deficient filter, heuristic and
    # exact TD instances -- runs on ONE enumeration of the collapsed
    # system.
    assert delta.get("cycles.miss") == 1
    assert delta.get("cycles.hit", 0) >= 1


def test_engine_stats_render_includes_artifact_table():
    lis_json = lis_to_json(examples.fig1_lis())
    with AnalysisEngine(jobs=1) as engine:
        engine.run([("actual_mst", lis_json, None)])
        text = engine.stats.render()
    assert "artifact" in text
    assert "doubled_mg" in text


def test_stats_json_accumulates_context_counters(tmp_path):
    lis_json = lis_to_json(examples.fig1_lis())
    with AnalysisEngine(jobs=1, cache_dir=tmp_path) as engine:
        engine.run([("actual_mst", lis_json, None)])
    from repro.engine import DiskCache

    stats = DiskCache(tmp_path).read_stats()
    assert stats["context"]["doubled_mg.miss"] == 1


def test_sizing_request_derives_each_artifact_once(monkeypatch):
    """A size_queues op then an analyze op on one fresh Table-IV system
    serialize it once per op, lower each of the base and the collapsed
    system once, and search for a minimum cycle mean twice: the ideal
    MST and the practical MST."""
    from repro.gen import GeneratorConfig, generate_lis

    calls: Counter = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    original = repro.core.serialize.lis_to_json
    wrapped = counted("lis_to_json", original)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, wrapped)
    for method in ("ideal_marked_graph", "doubled_marked_graph"):
        monkeypatch.setattr(
            LisGraph, method, counted(method, getattr(LisGraph, method))
        )
    monkeypatch.setattr(
        repro.graphs.mcm,
        "_parametric_search",
        counted("_parametric_search", repro.graphs.mcm._parametric_search),
    )

    lis = generate_lis(GeneratorConfig(v=100, s=10, c=5, rs=10, seed=1))
    with AnalysisEngine(jobs=1) as engine:
        solution = engine.size_queues(lis)
        report = engine.analyze(lis)
    assert report.fix is not None and report.fix.cost == solution.cost
    assert calls == {
        "lis_to_json": 2,
        "ideal_marked_graph": 2,
        "doubled_marked_graph": 2,
        "_parametric_search": 2,
    }
