"""EngineStats snapshot/delta: per-interval observability.

A long-lived process (the analysis server) needs to attribute engine
activity to individual requests without resetting the cumulative
counters other readers rely on; snapshot-before / delta-after is that
mechanism.
"""

import pytest

from repro.core.serialize import lis_to_json
from repro.engine import AnalysisEngine
from repro.engine.core import EngineStats
from repro.gen import examples


@pytest.fixture()
def engine():
    with AnalysisEngine(jobs=1) as eng:
        yield eng


def fig1_json():
    return lis_to_json(examples.fig1_lis())


class TestOpStatsDelta:
    def test_fieldwise_subtraction(self):
        """Per-op counters subtract field by field."""
        after = EngineStats(
            {
                "ops/a/calls": 5,
                "ops/a/hits": 3,
                "ops/a/misses": 2,
                "ops/a/seconds": 1.5,
                "ops/a/solver_calls": 4,
            }
        )
        before = EngineStats(
            {
                "ops/a/calls": 2,
                "ops/a/hits": 1,
                "ops/a/misses": 1,
                "ops/a/seconds": 0.5,
                "ops/a/solver_calls": 4,
            }
        )
        diff = after.delta(before).op("a")
        assert diff.calls == 3
        assert diff.hits == 2
        assert diff.misses == 1
        assert diff.seconds == pytest.approx(1.0)
        assert diff.solver_calls == 0


class TestSnapshot:
    def test_snapshot_is_independent(self, engine):
        engine.run([("ideal_mst", fig1_json(), None)])
        snap = engine.stats.snapshot()
        tasks_at_snap = snap.tasks
        engine.run([("actual_mst", fig1_json(), None)])
        # The live stats moved on; the snapshot did not.
        assert engine.stats.tasks == tasks_at_snap + 1
        assert snap.tasks == tasks_at_snap
        assert "actual_mst" not in snap.ops

    def test_snapshot_deep_copies_op_tables(self, engine):
        engine.run([("ideal_mst", fig1_json(), None)])
        snap = engine.stats.snapshot()
        engine.run([("ideal_mst", fig1_json(), None)])  # memo hit
        assert engine.stats.ops["ideal_mst"].hits == 1
        assert snap.ops["ideal_mst"].hits == 0


class TestDelta:
    def test_delta_attributes_exactly_the_interval(self, engine):
        engine.run([("ideal_mst", fig1_json(), None)])
        before = engine.stats.snapshot()
        engine.run([("ideal_mst", fig1_json(), None)])  # hit
        engine.run([("actual_mst", fig1_json(), None)])  # miss
        delta = engine.stats.delta(before)
        assert delta.tasks == 2
        assert delta.ops["ideal_mst"].hits == 1
        assert delta.ops["ideal_mst"].misses == 0
        assert delta.ops["actual_mst"].misses == 1
        # Cumulative view is untouched by taking the delta.
        assert engine.stats.tasks == 3

    def test_delta_drops_idle_ops(self, engine):
        engine.run([("ideal_mst", fig1_json(), None)])
        before = engine.stats.snapshot()
        engine.run([("actual_mst", fig1_json(), None)])
        delta = engine.stats.delta(before)
        assert set(delta.ops) == {"actual_mst"}

    def test_delta_drops_idle_context_counters(self, engine):
        engine.run([("ideal_mst", fig1_json(), None)])
        before = engine.stats.snapshot()
        delta = engine.stats.delta(before)
        assert delta.context == {}
        assert delta.solver == {}
        assert delta.tasks == 0

    def test_cache_served_interval_has_no_misses(self, engine):
        engine.run([("analyze", fig1_json(), None)])
        before = engine.stats.snapshot()
        engine.run([("analyze", fig1_json(), None)])
        delta = engine.stats.delta(before)
        assert delta.misses == 0
        assert delta.hits == 1

    def test_delta_of_empty_interval_renders(self, engine):
        before = engine.stats.snapshot()
        delta = engine.stats.delta(before)
        assert isinstance(delta, EngineStats)
        assert delta.as_dict()["ops"] == {}
        assert delta.hit_rate == 0.0
