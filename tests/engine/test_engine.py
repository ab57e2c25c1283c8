"""The analysis engine: caching, invalidation, parallel determinism."""

import json
from fractions import Fraction

import pytest

from repro.engine import AnalysisEngine, analyze_many
from repro.engine.cache import DiskCache, LruCache, canonical_options, content_key
from repro.gen import GeneratorConfig, fig1_lis, fig15_lis, generate_lis


def systems(n=6):
    return [
        generate_lis(
            GeneratorConfig(
                v=16, s=3, c=2, rs=4, rp=True, policy="scc", seed=7000 + i
            )
        )
        for i in range(n)
    ]


# -- content keys -----------------------------------------------------------


def test_content_key_sensitive_to_op_options_and_system():
    from repro.core import lis_to_json

    lis = lis_to_json(fig1_lis())
    base = content_key("ideal_mst", lis, None)
    assert content_key("actual_mst", lis, None) != base
    assert content_key("ideal_mst", lis, {"x": 1}) != base
    other = fig1_lis()
    other.set_queue(1, 2)
    assert content_key("ideal_mst", lis_to_json(other), None) != base
    # ... and deterministic for equal content.
    assert content_key("ideal_mst", lis_to_json(fig1_lis()), None) == base


def test_canonical_options_orders_keys_and_encodes_fractions():
    a = canonical_options({"target": Fraction(5, 6), "timeout": None})
    b = canonical_options({"timeout": None, "target": Fraction(5, 6)})
    assert a == b
    assert "5/6" in a


def test_lru_cache_evicts_oldest():
    cache = LruCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh "a"
    cache.put("c", 3)
    assert "b" not in cache and "a" in cache and "c" in cache


def test_lru_cache_returns_fresh_copies():
    cache = LruCache(maxsize=2)
    value = {"slack": {1: 2}}
    cache.put("a", value)
    value["slack"].clear()  # the stored entry is already bytes...
    first = cache.get("a")
    assert first == {"slack": {1: 2}}
    first["slack"][3] = 4  # ...and each get is the caller's own
    assert cache.get("a") == {"slack": {1: 2}}


# -- hit/miss accounting ----------------------------------------------------


def test_memory_cache_hit_miss_accounting():
    lis = fig1_lis()
    with AnalysisEngine() as eng:
        first = eng.ideal_mst(lis)
        second = eng.ideal_mst(lis)
        assert first.mst == second.mst == Fraction(1)
        op = eng.stats.ops["ideal_mst"]
        assert op.calls == 2
        assert op.misses == 1
        assert op.hits == 1
        assert eng.stats.hit_rate == 0.5


def test_mutation_invalidates_cached_result():
    """set_queue / insert_relay change the content hash, so the engine
    can never serve a stale analysis for the mutated system."""
    lis = fig1_lis()
    with AnalysisEngine() as eng:
        assert eng.actual_mst(lis).mst == Fraction(2, 3)

        lis.set_queue(1, 2)  # the Fig. 6 repair
        assert eng.actual_mst(lis).mst == Fraction(1)

        lis.insert_relay(0)  # new relay station: degraded again
        third = eng.actual_mst(lis)
        assert third.mst < Fraction(1)

        op = eng.stats.ops["actual_mst"]
        assert op.hits == 0 and op.misses == 3


def test_batch_coalesces_duplicate_tasks():
    lis = fig1_lis()
    with AnalysisEngine() as eng:
        results = eng.map("ideal_mst", [lis, fig1_lis(), lis])
        assert [r.mst for r in results] == [Fraction(1)] * 3
        op = eng.stats.ops["ideal_mst"]
        assert op.misses == 1
        assert op.coalesced == 2


def test_cached_results_are_isolated_copies():
    lis = fig1_lis()
    with AnalysisEngine() as eng:
        first = eng.analyze(lis)
        first.slack.clear()  # caller mangles its copy...
        second = eng.analyze(lis)
        assert second.slack  # ...the cache is unharmed


def test_coalesced_duplicates_are_isolated_copies():
    lis = fig1_lis()
    with AnalysisEngine() as eng:
        first, second = eng.map("analyze", [lis, lis])
        assert eng.stats.ops["analyze"].coalesced == 1
        first.slack.clear()
        assert second.slack


# -- serial == parallel == cached ------------------------------------------


def test_parallel_results_identical_to_serial(tmp_path):
    pool = systems(6)
    with AnalysisEngine() as serial_eng:
        serial = serial_eng.map("analyze", pool)
    with AnalysisEngine(jobs=4) as par_eng:
        parallel = par_eng.map("analyze", pool)
    with AnalysisEngine(cache_dir=tmp_path / "c") as cold_eng:
        cold = cold_eng.map("analyze", pool)
    with AnalysisEngine(cache_dir=tmp_path / "c") as warm_eng:
        warm = warm_eng.map("analyze", pool)
        warm_op = warm_eng.stats.ops["analyze"]

    for a, b, c, d in zip(serial, parallel, cold, warm):
        for report in (b, c, d):
            assert report.topology is a.topology
            assert report.ideal == a.ideal
            assert report.practical == a.practical
            assert (report.fix is None) == (a.fix is None)
            if a.fix is not None:
                assert report.fix.cost == a.fix.cost
                assert report.fix.extra_tokens == a.fix.extra_tokens
    # The warm engine served everything from disk.
    assert warm_op.misses == 0
    assert warm_op.disk_hits == len(pool)


def test_size_queues_through_engine_matches_direct_call():
    from repro.core import size_queues

    lis = fig15_lis()
    direct = size_queues(lis, method="exact")
    with AnalysisEngine(jobs=2) as eng:
        sized = eng.size_queues(lis, method="exact")
    assert sized.cost == direct.cost == 2
    assert sized.extra_tokens == direct.extra_tokens
    assert sized.achieved == direct.achieved


def test_heterogeneous_batch_keeps_order():
    lis = fig1_lis()
    with AnalysisEngine() as eng:
        ideal, actual, fixed = eng.run(
            [
                ("ideal_mst", lis, None),
                ("actual_mst", lis, None),
                ("actual_mst", lis, {"extra_tokens": {1: 1}}),
            ]
        )
    assert ideal.mst == Fraction(1)
    assert actual.mst == Fraction(2, 3)
    assert fixed.mst == Fraction(1)


def test_analyze_many_convenience():
    pool = systems(3)
    reports = analyze_many(pool)
    assert len(reports) == 3
    for lis, report in zip(pool, reports):
        assert report.ideal == Fraction(1)
        assert report.channels == len(lis.channels())


def test_worker_exceptions_propagate():
    from repro.core.npcomplete import reduce_vertex_cover_to_qs
    from repro.core.solvers import ExactTimeout

    red = reduce_vertex_cover_to_qs(
        "abc", [("a", "b"), ("b", "c"), ("a", "c")], 3
    )
    with AnalysisEngine() as eng:
        with pytest.raises(ExactTimeout):
            eng.size_queues(red.lis, method="exact", timeout=1e-9)


def test_unknown_op_rejected():
    with AnalysisEngine() as eng:
        with pytest.raises(ValueError, match="unknown op"):
            eng.run([("transmogrify", fig1_lis(), None)])


# -- observability ----------------------------------------------------------


def test_stats_render_and_persist(tmp_path):
    cache = tmp_path / "cache"
    with AnalysisEngine(cache_dir=cache) as eng:
        eng.map("ideal_mst", systems(3))
        text = eng.stats.render()
    assert "ideal_mst" in text and "hit rate" in text

    stats = json.loads((cache / "stats.json").read_text())
    assert stats["tasks"] == 3
    assert stats["ops"]["ideal_mst"]["misses"] == 3

    # A second engine accumulates into the same counters.
    with AnalysisEngine(cache_dir=cache) as eng2:
        eng2.map("ideal_mst", systems(3))
    stats = json.loads((cache / "stats.json").read_text())
    assert stats["tasks"] == 6
    assert stats["ops"]["ideal_mst"]["disk_hits"] == 3


def test_disk_cache_inventory(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put("ideal_mst", "k" * 64, {"x": 1})
    entries = cache.entries()
    assert entries == {"ideal_mst": 1}
    assert cache.total_bytes() > 0


def test_solver_call_counters(tmp_path):
    lis = fig15_lis()
    with AnalysisEngine() as eng:
        eng.size_queues(lis, method="heuristic")
        assert eng.stats.solver_calls == 1
        eng.analyze(lis)
        assert eng.stats.solver_calls == 2  # analyze sized its fix
