"""Tail-vs-sizing curves and their engine-op surface: the sweep loop,
common-random-number monotonicity, rendering, and parity between
direct calls and the ``tail_point`` / ``tail_curves`` ops."""

import json

import numpy as np
import pytest

from repro.engine import AnalysisEngine
from repro.gen import fig15_lis
from repro.stochastic import (
    bernoulli_stalls,
    run_monte_carlo,
    tail_curve,
    uniform_sizings,
)

SPEC = bernoulli_stalls(rate=0.15, scope="global", seed=13)
CLOCKS = 200
TRIALS = 40


def test_uniform_sizings_ladder():
    lis = fig15_lis()
    ladder = uniform_sizings(lis, max_extra=2)
    channels = set(lis.channel_ids())
    assert ladder[0] == {}
    assert ladder[1] == {cid: 1 for cid in channels}
    assert ladder[2] == {cid: 2 for cid in channels}
    with pytest.raises(ValueError, match="max_extra"):
        uniform_sizings(lis, max_extra=-1)


def test_curve_is_deterministic_and_monotone():
    curve = tail_curve(
        fig15_lis(), SPEC, clocks=CLOCKS, trials=TRIALS, sizings=None
    )
    again = tail_curve(
        fig15_lis(), SPEC, clocks=CLOCKS, trials=TRIALS, sizings=None
    )
    assert curve.as_dict() == again.as_dict()
    assert len(curve.points) == 4  # default max_extra=3 ladder
    # Common random numbers: extra slots can only help, per trial.
    base = curve.points[0].mc
    for point in curve.points[1:]:
        assert (point.mc.counts >= base.counts).all()
    # Every point measures the same quantity.
    assert all(p.mc.node == curve.node for p in curve.points)
    assert all(p.mc.work == curve.work for p in curve.points)


def test_curve_base_point_equals_single_run():
    curve = tail_curve(fig15_lis(), SPEC, clocks=CLOCKS, trials=TRIALS)
    solo = run_monte_carlo(
        fig15_lis(),
        SPEC,
        clocks=CLOCKS,
        trials=TRIALS,
        node=curve.node,
        work=curve.work,
    )
    assert np.array_equal(curve.points[0].mc.counts, solo.counts)
    assert np.array_equal(curve.points[0].mc.completion, solo.completion)


def test_curve_exact_cross_check_passes():
    curve = tail_curve(fig15_lis(), SPEC, clocks=CLOCKS, trials=TRIALS)
    for point in curve.points:
        assert point.check is not None
        assert point.check["exact"]
        assert point.check["ok"], point.check
    # analytic=False suppresses both estimate and check.
    bare = tail_curve(
        fig15_lis(), SPEC, clocks=CLOCKS, trials=TRIALS, analytic=False
    )
    assert all(p.estimate is None and p.check is None for p in bare.points)


def test_render_and_as_dict():
    curve = tail_curve(
        fig15_lis(), SPEC, clocks=CLOCKS, trials=TRIALS, sizings=[{}]
    )
    text = curve.render()
    lines = text.splitlines()
    assert lines[0].split() == [
        "extra", "p50", "p99", "p999", "an.p99", "occ.p99", "rate",
    ]
    assert len(lines) == 2
    d = curve.as_dict()
    json.dumps(d, allow_nan=False)  # strict JSON end to end
    assert d["trials"] == TRIALS
    assert [p["extra_tokens"] for p in d["points"]] == [{}]
    assert "agreement" in d["points"][0]


# ----------------------------------------------------------------------
# Engine-op parity
# ----------------------------------------------------------------------


@pytest.fixture()
def engine():
    return AnalysisEngine(jobs=1)


def test_tail_curves_op_matches_direct_call(engine):
    lis = fig15_lis()
    options = {
        "specs": [SPEC.as_dict()],
        "clocks": CLOCKS,
        "trials": TRIALS,
        "max_extra": 1,
    }
    (op_result,) = engine.run([("tail_curves", lis, options)])
    direct = tail_curve(
        lis,
        SPEC,
        clocks=CLOCKS,
        trials=TRIALS,
        sizings=uniform_sizings(lis, 1),
    ).as_dict()
    assert op_result == direct


def test_tail_point_op_matches_monte_carlo(engine):
    lis = fig15_lis()
    extra = {cid: 1 for cid in lis.channel_ids()}
    options = {
        "specs": [SPEC.as_dict()],
        "clocks": CLOCKS,
        "trials": TRIALS,
        "extra_tokens": {str(c): x for c, x in extra.items()},
    }
    (op_result,) = engine.run([("tail_point", lis, options)])
    mc = run_monte_carlo(
        lis, SPEC, clocks=CLOCKS, trials=TRIALS, extra_tokens=extra
    )
    for key, value in mc.summary().items():
        assert op_result[key] == value
    assert op_result["agreement"]["ok"]


def test_tail_op_rejects_missing_specs(engine):
    with pytest.raises(Exception):
        engine.run([("tail_point", fig15_lis(), {})])
