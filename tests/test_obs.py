"""repro.obs: the one counter implementation behind every stats block."""

import sys
import threading

import pytest

from repro.obs import Counters, flatten, nest, render


def test_add_snapshot_delta_merge_reset():
    counts = Counters()
    counts.add("a")
    counts.add("b", 2.5)
    before = counts.snapshot()
    counts.add("a", 2)
    counts.add("c", 0)
    assert counts.delta(before) == {"a": 2}
    assert before == {"a": 1, "b": 2.5}  # a snapshot is a copy
    counts.merge({"a": 1, "d": 4})
    assert counts.snapshot() == {"a": 4, "b": 2.5, "c": 0, "d": 4}
    counts.reset()
    assert counts.snapshot() == {}
    assert counts.get("a") == 0


def test_concurrent_adds_are_not_lost_and_each_scope_sees_its_own():
    counts = Counters()
    seen = {}

    def bump(worker):
        with counts.scope() as mine:
            for _ in range(2000):
                counts.add("n")
                counts.merge({f"w{worker}": 1})
        seen[worker] = mine.snapshot()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=bump, args=(w,)) for w in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert counts.get("n") == 12000
    for worker in range(6):
        assert counts.get(f"w{worker}") == 2000
        assert seen[worker] == {"n": 2000, f"w{worker}": 2000}


def test_declared_fields_read_as_attributes_and_default_to_zero():
    counts = Counters(fields=("served", "failed"))
    counts.add("served")
    counts.add("by_method/analyze", 3)
    assert counts.served == 1
    assert counts.failed == 0
    with pytest.raises(AttributeError):
        counts.missing
    assert counts.as_dict() == {
        "served": 1,
        "failed": 0,
        "by_method": {"analyze": 3},
    }


def test_scope_counts_only_its_own_thread():
    counts = Counters()
    entered, release = threading.Event(), threading.Event()
    seen = {}

    def waiting_scope():
        with counts.scope() as mine:
            counts.add("own")
            entered.set()
            assert release.wait(timeout=10)
        seen.update(mine.snapshot())

    thread = threading.Thread(target=waiting_scope)
    thread.start()
    assert entered.wait(timeout=10)
    counts.add("sibling", 5)  # another thread, while the scope is open
    release.set()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen == {"own": 1}
    assert counts.snapshot() == {"own": 1, "sibling": 5}


def test_scopes_nest_and_roll_up():
    counts, other = Counters(), Counters()
    with counts.scope() as outer:
        counts.add("x")
        with counts.scope() as inner:
            counts.add("y")
            other.add("z")  # a different Counters: no scope watches it
            assert outer.snapshot() == {"x": 1}
        assert inner.snapshot() == {"y": 1}
        assert outer.snapshot() == {"x": 1, "y": 1}
    counts.add("after")
    assert outer.snapshot() == {"x": 1, "y": 1}


def test_nest_and_flatten_round_trip():
    flat = {"tasks": 3, "ops/analyze/calls": 2, "context/cycles.miss": 1}
    doc = nest(flat)
    assert doc == {
        "tasks": 3,
        "ops": {"analyze": {"calls": 2}},
        "context": {"cycles.miss": 1},
    }
    assert flatten(doc) == flat
    assert flatten({"label": "x", "flag": True, "n": 1}) == {"n": 1}


def test_render_tables():
    text = render(
        {
            "tasks": 3,
            "retries": 0,
            "ops": {"b": {"hits": 1, "calls": 2}, "a": {"calls": 1}},
            "context": {"cycles.miss": 1, "cycles.hit": 4, "mst.miss": 2},
            "solver": {"nodes": 7},
            "empty": {},
        },
        titles={"context": "artifact"},
    )
    assert text.splitlines() == [
        "tasks: 3",
        "artifact  hit  miss",
        "cycles      4     1",
        "mst         0     2",
        "ops  calls  hits",
        "a        1     0",
        "b        2     1",
        "solver  value",
        "nodes       7",
    ]
