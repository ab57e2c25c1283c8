"""Coverage for smaller public-API surfaces and edge paths."""

import pytest

from repro.lis import ShellBehavior
from repro.soc import run_exhaustive_insertion


def test_outputs_for_mapping_and_broadcast():
    behavior = ShellBehavior()
    assert behavior.outputs_for(9, [1, 3]) == {1: 9, 3: 9}
    assert behavior.outputs_for({1: "x", 3: "y"}, [1, 3]) == {1: "x", 3: "y"}
    with pytest.raises(KeyError):
        behavior.outputs_for({1: "x"}, [1, 2])


def test_exhaustive_sweep_counts_exact_timeouts():
    """A microscopic timeout forces the exact solver to give up; the
    report must count it and fall back to heuristic-only data."""
    report = run_exhaustive_insertion(
        limit=25, run_exact=True, exact_timeout=1e-9
    )
    degraded = report.degraded
    assert degraded  # the first placements include degrading ones
    assert sum(report.timeouts.values()) > 0
    summary = report.summary()
    assert summary["timeouts"] == report.timeouts
    for placement in degraded:
        # Heuristic results are always present even when exact timed out.
        assert placement.heuristic_tokens["orig"] >= 1
        for variant in ("orig", "simplified"):
            if placement.optimal_tokens.get(variant) is None:
                assert report.timeouts.get(variant, 0) > 0


def test_cli_size_greedy_method(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "sys.json"
    main(["example", "fig15", "-o", str(path)])
    capsys.readouterr()
    assert main(["size", str(path), "--method", "greedy"]) == 0
    out = capsys.readouterr().out
    assert "total tokens: 2" in out


def test_public_root_api_imports():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name, None) is not None or name == "__version__"


def test_root_exports_match_docs():
    """docs/API.md's package-root export block is repro.__all__, exactly."""
    import re
    from pathlib import Path

    import repro

    api_md = (
        Path(__file__).resolve().parents[1] / "docs" / "API.md"
    ).read_text()
    match = re.search(
        r"<!-- root-exports:begin -->\s*```text\n(.*?)```",
        api_md,
        re.DOTALL,
    )
    assert match, "docs/API.md lost its root-exports block"
    documented = {
        name.strip() for name in match.group(1).replace("\n", " ").split(",")
    }
    assert documented == set(repro.__all__)


def test_analysis_public_api():
    import repro
    import repro.analysis as analysis

    assert set(analysis.__all__) == {
        "Context",
        "ContextStats",
        "clear_registry",
        "context_from_json",
        "get_context",
        "global_stats",
        "reset_global_stats",
    }
    for name in analysis.__all__:
        assert getattr(analysis, name) is not None
    # The everyday names are re-exported at the package root.
    assert repro.Context is analysis.Context
    assert repro.get_context is analysis.get_context


def test_solver_registry_roundtrip():
    from repro import available_solvers, get_solver

    assert {"heuristic", "greedy", "exact"} <= set(available_solvers())
    with pytest.raises(ValueError, match="unknown method"):
        get_solver("simulated-annealing")


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_import_repro_leaves_the_dsl_unloaded():
    """The structural netlist lives in repro.lis; importing the package
    root (or the simulator) must not pull in the declarative frontend.
    Nor does the root load the stochastic layer: the stall schedule
    type it shares with repro.faults lives in repro.faults."""
    import subprocess
    import sys

    code = (
        "import sys, repro, repro.lis.rtl_sim; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('repro.dsl', 'repro.stochastic'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
