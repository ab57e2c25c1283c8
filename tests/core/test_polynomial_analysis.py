"""Shortest-path slack and Bellman--Ford sizing verification against
their enumeration / Karp references, and ``analyze`` on NoCs whose
cycles are too many to enumerate."""

import contextlib
import signal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import Context
from repro.core import analyze, ideal_mst, pipelining_slack, size_queues
from repro.core.marked_graph import place_tokens
from repro.gen import GeneratorConfig, fig15_lis, generate_lis, named_system
from repro.graphs import elementary_edge_cycles, karp_minimum_cycle_mean
from tests.strategies import lis_graphs

#: Relay stations anywhere (inside SCCs too) and pipelined cores.
systems = lis_graphs(max_relays=2, max_latency=3)


def enumerated_slack(lis, target):
    """Slack by definition: the least budget over every forward cycle
    through a channel, each cycle enumerated."""
    slack = dict.fromkeys(lis.channel_ids())
    for cycle in elementary_edge_cycles(lis.ideal_marked_graph().graph):
        limit = sum(place_tokens(p) for p in cycle) / target - len(cycle)
        budget = max(0, limit.numerator // limit.denominator)
        for place in cycle:
            if place.data.get("internal"):
                continue
            cid = place.data["channel"]
            if slack[cid] is None or budget < slack[cid]:
                slack[cid] = budget
    return slack


@given(lis=systems, scale=st.sampled_from([Fraction(1), Fraction(3, 4)]))
@settings(max_examples=150, deadline=None)
def test_slack_matches_cycle_enumeration(lis, scale):
    target = ideal_mst(lis).mst * scale
    expected = enumerated_slack(lis, target)
    assert pipelining_slack(lis, target=target) == expected
    assert pipelining_slack(Context(lis), target=target) == expected
    if scale == 1:
        assert pipelining_slack(lis) == expected


@given(lis=systems)
@settings(max_examples=60, deadline=None)
def test_slack_refuses_a_target_above_the_ideal(lis):
    ideal = ideal_mst(lis).mst
    assume(ideal < 1)
    with pytest.raises(ValueError, match="above the ideal MST"):
        pipelining_slack(lis, target=(ideal + 1) / 2)


def fresh_mst(lis, extra_tokens):
    mean = karp_minimum_cycle_mean(
        lis.doubled_marked_graph(extra_tokens).graph, place_tokens
    )
    return Fraction(1) if mean is None else min(Fraction(1), mean)


#: Random multigraphs seldom degrade under backpressure; about half of
#: these small Table-IV systems do.
degrading_systems = st.integers(0, 10_000).map(
    lambda seed: generate_lis(GeneratorConfig(v=16, s=3, c=4, rs=6, seed=seed))
)


@given(
    lis=st.one_of(
        lis_graphs(max_relays=2, max_latency=2, min_channels=1),
        degrading_systems,
    ),
    method=st.sampled_from(["heuristic", "greedy", "exact"]),
    scale=st.sampled_from([Fraction(1), Fraction(2, 3)]),
)
@settings(max_examples=120, deadline=None)
def test_achieved_equals_karp_on_a_fresh_lowering(lis, method, scale):
    target = ideal_mst(lis).mst * scale
    solution = size_queues(lis, method=method, target=target)
    assert solution.achieved == fresh_mst(lis, solution.extra_tokens)
    assert solution.restores_target


def test_target_below_the_ideal_falls_back_to_karp():
    """fig15 already runs at 3/4 < 5/6: nothing to add, and the check
    finds a cycle below the ideal MST, so Karp gives the exact value."""
    solution = size_queues(fig15_lis(), method="exact", target=Fraction(3, 4))
    assert solution.cost == 0
    assert solution.achieved == Fraction(3, 4) == fresh_mst(fig15_lis(), {})


@contextlib.contextmanager
def _deadline(seconds):
    """Fail instead of hanging when the body overruns ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"did not return within {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("name", ["mesh:6x6", "mesh:10x10", "torus:6x6"])
def test_analyze_finishes_on_large_nocs(name):
    lis = named_system(name)
    with _deadline(2.0):
        report = analyze(Context(lis))
    assert report.ideal == report.practical == 1
    # Every channel of a plain mesh lies on a cycle of full rate.
    assert set(report.slack.values()) == {0}
