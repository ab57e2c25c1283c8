"""The simulation-backend registry: lookup, capability flags, fallback
resolution, the removed ``simulator=`` keyword, and probe-shell
selection."""

from fractions import Fraction

import pytest

from repro.core import LisError, LisGraph, actual_mst
from repro.core.throughput import ThroughputResult
from repro.faults import BACKENDS as FAULT_BACKENDS
from repro.faults import build_schedule, random_stalls
from repro.gen import fig15_lis, named_system
from repro.lis import (
    BACKENDS,
    RtlSimulator,
    TraceSimulator,
    available_backends,
    crossvalidate,
    get_backend,
    measured_throughput,
    register_backend,
    resolve_backend,
    select_probe_shell,
)
from repro.lis.backends import simulator_class


def disconnected_lis():
    """Two weakly connected components -- the doubled graph is not
    strongly connected, so the ``schedule`` backend must fall back."""
    lis = LisGraph()
    for shell in ("A", "B", "C", "D"):
        lis.add_shell(shell)
    lis.add_channel("A", "B")
    lis.add_channel("B", "A")
    lis.add_channel("C", "D", relays=1)
    lis.add_channel("D", "C")
    return lis


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------


def test_builtin_backends_registered_in_order():
    assert available_backends() == ("trace", "rtl", "fast", "schedule")
    assert tuple(BACKENDS) == available_backends()


def test_capability_flags():
    for name in ("trace", "rtl", "fast"):
        backend = get_backend(name)
        assert backend.supports_faults
        assert not backend.exact
        assert not backend.requires_scc
        assert backend.fallback is None
    schedule = get_backend("schedule")
    assert schedule.exact
    assert schedule.requires_scc
    assert not schedule.supports_faults
    assert schedule.fallback == "fast"


def test_get_backend_unknown_name():
    with pytest.raises(ValueError, match="unknown backend 'verilog'"):
        get_backend("verilog")


def test_register_duplicate_rejected_without_overwrite():
    with pytest.raises(ValueError, match="already registered"):
        register_backend("trace", lambda *a, **k: Fraction(1))


def test_register_unknown_fallback_rejected():
    with pytest.raises(ValueError, match="fallback backend 'nope'"):
        register_backend(
            "temp-bad", lambda *a, **k: Fraction(1), fallback="nope"
        )
    assert "temp-bad" not in BACKENDS


def test_registered_backend_is_crossvalidated():
    """A new registration is immediately picked up everywhere a backend
    name is accepted -- including crossvalidate's registry sweep."""
    calls = []

    def constant(lis, shell, *, clocks, warmup, extra_tokens, faults):
        calls.append(shell)
        return Fraction(3, 4)  # fig15's actual MST

    backend = register_backend(
        "temp-const", constant, description="test double"
    )
    try:
        assert backend is get_backend("temp-const")
        assert "temp-const" in available_backends()
        lis = fig15_lis()
        rate = measured_throughput(lis, "A", backend="temp-const")
        assert rate == Fraction(3, 4)
        report = crossvalidate(lis, clocks=200, warmup=60)
        assert report["temp-const"] == Fraction(3, 4)
        assert report["agreed"]
        assert calls
    finally:
        del BACKENDS["temp-const"]


def test_register_overwrite():
    register_backend("temp-ow", lambda *a, **k: Fraction(1))
    try:
        with pytest.raises(ValueError, match="already registered"):
            register_backend("temp-ow", lambda *a, **k: Fraction(0))
        replaced = register_backend(
            "temp-ow", lambda *a, **k: Fraction(0), overwrite=True
        )
        assert get_backend("temp-ow") is replaced
    finally:
        del BACKENDS["temp-ow"]


# ----------------------------------------------------------------------
# Capability checks and fallback resolution
# ----------------------------------------------------------------------


def test_schedule_supports_connected_not_disconnected():
    schedule = get_backend("schedule")
    assert schedule.supports(fig15_lis())
    assert not schedule.supports(disconnected_lis())
    assert get_backend("fast").supports(disconnected_lis())


def test_resolve_backend_identity_when_supported():
    assert resolve_backend("schedule", fig15_lis()).name == "schedule"
    assert resolve_backend("trace", disconnected_lis()).name == "trace"


def test_resolve_backend_falls_back_on_disconnected_system():
    assert resolve_backend("schedule", disconnected_lis()).name == "fast"


def test_resolve_backend_falls_back_under_faults():
    lis = fig15_lis()
    faults = build_schedule(lis, random_stalls(seed=3, horizon=16))
    assert resolve_backend("schedule", lis, faults=faults).name == "fast"
    assert resolve_backend("fast", lis, faults=faults).name == "fast"


def test_resolve_backend_accepts_backend_instance():
    chosen = resolve_backend(get_backend("schedule"), fig15_lis())
    assert chosen.name == "schedule"


def test_resolve_backend_without_fallback_raises():
    register_backend(
        "temp-scc", lambda *a, **k: Fraction(1), requires_scc=True
    )
    try:
        with pytest.raises(ValueError, match="no fallback"):
            resolve_backend("temp-scc", disconnected_lis())
    finally:
        del BACKENDS["temp-scc"]


def test_measure_rejects_faults_on_analytic_backend():
    lis = fig15_lis()
    faults = build_schedule(lis, random_stalls(seed=3, horizon=16))
    with pytest.raises(ValueError, match="does not support fault"):
        get_backend("schedule").measure(lis, "A", faults=faults)


def test_faults_backend_tuple_derived_from_registry():
    assert FAULT_BACKENDS == ("trace", "rtl", "fast")
    assert all(BACKENDS[name].supports_faults for name in FAULT_BACKENDS)


# ----------------------------------------------------------------------
# Simulators by name
# ----------------------------------------------------------------------


def test_simulator_class_names_the_three_simulators():
    from repro.sim import FastSimulator

    assert simulator_class("trace") is TraceSimulator
    assert simulator_class("rtl") is RtlSimulator
    assert simulator_class("fast") is FastSimulator
    with pytest.raises(ValueError, match="unknown backend 'schedule'"):
        simulator_class("schedule")


@pytest.mark.parametrize(
    "extra", [{99: 1}, {5: -1}], ids=["unknown-channel", "negative"]
)
def test_bad_extra_tokens_are_refused_everywhere(extra):
    """Every simulator, the RTL export and the ``measure`` op refuse an
    assignment naming an unknown channel or a negative count, instead
    of running the unsized or a shrunken system."""
    from repro.core.serialize import lis_to_json
    from repro.dsl import export_rtl
    from repro.engine.ops import run_op

    lis = fig15_lis()
    for name in ("trace", "rtl", "fast"):
        with pytest.raises(LisError):
            simulator_class(name)(lis, extra_tokens=extra)
        with pytest.raises(LisError):
            run_op(
                "measure",
                lis_to_json(lis),
                {"backend": name, "shell": "A", "extra_tokens": extra},
            )
    with pytest.raises(LisError):
        export_rtl(lis, extra_tokens=extra)


@pytest.mark.parametrize("name", ["fig15", "cofdm"])
def test_fast_rate_under_a_fault_gate_equals_trace(name):
    """The ``fast`` backend counts firings under a stall mask built
    from the gate; its rate equals the reference's, and the stalls do
    move it."""
    lis = named_system(name)
    shell = sorted(lis.shells(), key=repr)[0]
    gate = build_schedule(lis, random_stalls(seed=3, horizon=300)).gate(0)
    window = {"clocks": 200, "warmup": 50}
    fast = measured_throughput(lis, shell, backend="fast", faults=gate, **window)
    trace = measured_throughput(lis, shell, backend="trace", faults=gate, **window)
    assert fast == trace
    assert fast < measured_throughput(lis, shell, backend="fast", **window)


# ----------------------------------------------------------------------
# measured_throughput: backend= (simulator= removed in 1.7)
# ----------------------------------------------------------------------


def test_schedule_backend_measures_exact_mst():
    lis = fig15_lis()
    rate = measured_throughput(lis, "A", backend="schedule")
    assert rate == actual_mst(lis).mst == Fraction(3, 4)


def test_measured_throughput_falls_back_silently():
    lis = disconnected_lis()
    rate = measured_throughput(lis, "C", backend="schedule", clocks=120)
    expected = measured_throughput(lis, "C", backend="fast", clocks=120)
    assert rate == expected


def test_simulator_keyword_removed():
    """The removed simulator= keyword is refused (use backend=)."""
    with pytest.raises(TypeError, match="simulator"):
        measured_throughput(fig15_lis(), "A", simulator="schedule")


def test_simulator_keyword_rejected_even_with_backend():
    with pytest.raises(TypeError, match="simulator"):
        measured_throughput(
            fig15_lis(), "A", backend="fast", simulator="fast"
        )


def test_positional_backend_argument_still_works(recwarn):
    """``backend`` kept the old positional slot through the removal, so
    positional callers are unaffected."""
    lis = fig15_lis()
    rate = measured_throughput(lis, "A", 200, 60, "schedule")
    assert rate == Fraction(3, 4)
    assert not [
        w for w in recwarn if issubclass(w.category, DeprecationWarning)
    ]


# ----------------------------------------------------------------------
# Probe-shell selection
# ----------------------------------------------------------------------


def test_select_probe_shell_prefers_limiting_shell():
    lis = fig15_lis()
    analysis = actual_mst(lis)
    probe = select_probe_shell(lis, analysis)
    assert probe in analysis.limiting_scc
    assert not (isinstance(probe, tuple) and probe and probe[0] == "rs")


def test_select_probe_shell_relay_only_scc_falls_back_to_member():
    """When the limiting SCC holds only relay stations, the first
    member is probed rather than crashing on an empty candidate list."""
    lis = fig15_lis()
    fake = ThroughputResult(
        mst=Fraction(1, 2),
        critical=None,
        limiting_scc=frozenset({("rs", 0, 1)}),
    )
    assert select_probe_shell(lis, fake) == ("rs", 0, 1)


def test_select_probe_shell_without_limiting_scc():
    lis = fig15_lis()
    fake = ThroughputResult(mst=Fraction(1), critical=None, limiting_scc=None)
    assert select_probe_shell(lis, fake) == lis.shells()[0]


def test_select_probe_shell_takes_the_first_shell_in_repr_order():
    """Stages and relays are skipped even when they sort first, and
    the pick does not follow set iteration order."""
    lis = LisGraph()
    lis.add_shell(("zz", 1), latency=2)
    lis.add_shell(("zz", 2))
    lis.add_channel(("zz", 1), ("zz", 2), relays=1)
    lis.add_channel(("zz", 2), ("zz", 1))
    scc = frozenset(
        {("zz", 2), ("zz", 1), ("stage", ("zz", 1), 0), ("rs", 0, 0)}
    )
    fake = ThroughputResult(mst=Fraction(1, 2), critical=None, limiting_scc=scc)
    assert select_probe_shell(lis, fake) == ("zz", 1)


def test_measure_probe_does_not_depend_on_the_hash_seed():
    """``measure`` results are cached by content, so the probe it picks
    on its own must be the same in every process."""
    import os
    import subprocess
    import sys

    code = (
        "from repro.core.serialize import lis_to_json; "
        "from repro.engine.ops import run_op; "
        "from repro.gen import named_system; "
        "result, _ = run_op('measure', lis_to_json(named_system('fig19')), "
        "{'backend': 'trace'}); "
        "print(result['shell'], result['throughput'])"
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("1", "5")
    }
    assert len(outputs) == 1, outputs


def test_crossvalidate_backend_subset_and_skip():
    """crossvalidate honours an explicit subset and silently skips
    backends that do not support the system."""
    report = crossvalidate(
        fig15_lis(), clocks=200, warmup=60, backends=("fast", "schedule")
    )
    assert report["agreed"]
    assert report["schedule"] == report["analytic"] == Fraction(3, 4)
    assert "trace" not in report and "rtl" not in report

    disc = crossvalidate(
        disconnected_lis(), clocks=200, warmup=60, backends=("fast", "schedule")
    )
    assert "schedule" not in disc  # unsupported -> skipped, not failed
    assert "fast" in disc
