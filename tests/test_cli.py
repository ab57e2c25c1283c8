"""End-to-end tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def fig1_file(tmp_path, capsys):
    path = tmp_path / "fig1.json"
    assert main(["example", "fig1", "-o", str(path)]) == 0
    capsys.readouterr()
    return path


def test_example_to_stdout(capsys):
    assert main(["example", "fig15"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["channels"]) == 7


@pytest.mark.parametrize(
    "name",
    [
        "fig1",
        "fig2-right",
        "fig10",
        "fig15",
        "uplink-downlink",
        "cofdm",
        "fig19",
        "mesh:3x4",
        "torus:3x3",
    ],
)
def test_named_system_resolves_alike_in_cli_and_server(name):
    """One name table: the CLI and the server resolve every built-in
    name to the same system."""
    from repro.cli import _resolve_system
    from repro.core.serialize import lis_from_json
    from repro.server.protocol import resolve_named_system

    served = lis_from_json(resolve_named_system(name))
    assert _resolve_system(name).fingerprint() == served.fingerprint()


def test_example_unknown_name_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["example", "figure-does-not-exist"])


def test_analyze(fig1_file, capsys):
    assert main(["analyze", str(fig1_file)]) == 0
    out = capsys.readouterr().out
    assert "practical MST:   2/3" in out
    assert "DEGRADED" in out
    assert "critical cycle" in out


def test_analyze_many_files_with_jobs_and_cache(
    fig1_file, tmp_path, capsys
):
    fig15 = tmp_path / "fig15.json"
    assert main(["example", "fig15", "-o", str(fig15)]) == 0
    capsys.readouterr()
    cache = tmp_path / "cache"
    args = [
        "analyze",
        str(fig1_file),
        str(fig15),
        "--jobs",
        "2",
        "--cache",
        str(cache),
        "--stats",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert f"== {fig1_file}" in out and f"== {fig15}" in out
    assert "practical MST:   2/3" in out  # fig1
    assert "practical MST:   3/4" in out  # fig15
    assert "hit rate" in out  # --stats footer
    assert (cache / "stats.json").exists()

    # A warm re-run serves everything from the cache.
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "hit rate: 100.0%" in out


def test_stats_command(fig1_file, tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["analyze", str(fig1_file), "--cache", str(cache)]) == 0
    capsys.readouterr()
    assert main(["stats", "--cache", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "actual_mst" in out
    assert "entries" in out


def test_stats_command_prints_the_engine_render(tmp_path, capsys):
    """`repro stats` and `engine.stats.render()` are one renderer."""
    from repro.engine import AnalysisEngine
    from repro.gen import examples

    cache = tmp_path / "cache"
    with AnalysisEngine(cache_dir=cache) as engine:
        engine.analyze(examples.fig1_lis())
        engine.analyze(examples.fig1_lis())
        engine.size_queues(examples.fig15_lis(), method="exact")
        text = engine.stats.render()
    assert main(["stats", "--cache", str(cache)]) == 0
    out = capsys.readouterr().out
    assert text in out
    assert "hit rate: 33.3%" in text
    assert "artifact" in text and "solver counter" in text


#: A stats.json written before the counters moved onto repro.obs
#: (fig1 analyze x2 across two engines, fig15 exact sizing, fig1
#: ideal_mst x2).
OLDER_STATS_JSON = {
    "batches": 5,
    "checkpoint_hits": 0,
    "context": {
        "actual_mst.miss": 3,
        "collapsed.miss": 1,
        "cycles.miss": 2,
        "doubled_mg.hit": 1,
        "doubled_mg.miss": 5,
        "ideal_mg.hit": 1,
        "ideal_mg.miss": 2,
        "ideal_mst.hit": 3,
        "ideal_mst.miss": 2,
    },
    "corrupt_entries": 0,
    "failures": 0,
    "op_timeouts": 0,
    "ops": {
        "analyze": {
            "calls": 2, "coalesced": 0, "disk_hits": 1, "failures": 0,
            "hits": 0, "misses": 1, "seconds": 0.002081514998280909,
            "solver_calls": 1,
        },
        "ideal_mst": {
            "calls": 2, "coalesced": 0, "disk_hits": 0, "failures": 0,
            "hits": 1, "misses": 1, "seconds": 2.6420000722282566e-05,
            "solver_calls": 0,
        },
        "size_queues": {
            "calls": 1, "coalesced": 0, "disk_hits": 0, "failures": 0,
            "hits": 0, "misses": 1, "seconds": 0.0035043310017499607,
            "solver_calls": 1,
        },
    },
    "pool_rebuilds": 0,
    "retries": 0,
    "serial_fallbacks": 0,
    "serialize_seconds": 0.00039910999839776196,
    "solver": {
        "batch_checks": 0,
        "bound_cuts": 0,
        "nodes_explored": 0,
        "table_hits": 0,
    },
    "tasks": 5,
    "wall_seconds": 0.008201986000131,
}


def test_stats_command_reads_and_extends_an_older_stats_json(
    tmp_path, capsys
):
    from repro.engine import AnalysisEngine
    from repro.gen import examples

    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "stats.json").write_text(json.dumps(OLDER_STATS_JSON))
    assert main(["stats", "--cache", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "hit rate: 40.0%" in out
    lines = out.splitlines()
    assert any(line.split()[:3] == ["doubled_mg", "1", "5"] for line in lines)
    assert any(line.split()[:2] == ["analyze", "2"] for line in lines)

    with AnalysisEngine(cache_dir=cache) as engine:
        engine.ideal_mst(examples.fig1_lis())
    merged = json.loads((cache / "stats.json").read_text())
    assert merged["tasks"] == 6
    assert merged["ops"]["ideal_mst"]["calls"] == 3
    assert merged["ops"]["ideal_mst"]["misses"] == 2
    assert merged["ops"]["analyze"] == OLDER_STATS_JSON["ops"]["analyze"]
    assert merged["context"]["doubled_mg.miss"] == 5
    assert merged["solver"] == OLDER_STATS_JSON["solver"]
    assert set(merged) == set(OLDER_STATS_JSON)


def test_serve_and_chaos_have_no_engine_pool_options(capsys):
    """Server ops run in the shard thread: the engine-pool knobs are
    gone, and ``serve --prewarm`` still parses (hidden, ignored)."""
    from repro.cli import build_parser

    parser = build_parser()
    assert parser.parse_args(["serve", "--prewarm"]).prewarm
    for argv in (
        ["serve", "--engine-jobs", "2"],
        ["serve", "--op-timeout", "5"],
        ["chaos", "--server", "--engine-jobs", "2"],
        ["chaos", "--server", "--break-pools", "3"],
    ):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
    capsys.readouterr()
    with pytest.raises(SystemExit):
        parser.parse_args(["serve", "--help"])
    assert "--prewarm" not in capsys.readouterr().out


def test_stats_command_missing_cache_dir(tmp_path, capsys):
    assert main(["stats", "--cache", str(tmp_path / "nope")]) == 2
    err = capsys.readouterr().err
    assert "no cache directory" in err


def test_size_heuristic_and_exit_code(fig1_file, capsys):
    assert main(["size", str(fig1_file), "--method", "exact"]) == 0
    out = capsys.readouterr().out
    assert "total tokens: 1" in out
    assert "queue 1 -> 2" in out


def test_size_with_explicit_target(fig1_file, capsys):
    assert main(["size", str(fig1_file), "--target", "2/3"]) == 0
    out = capsys.readouterr().out
    assert "total tokens: 0" in out


def test_size_invalid_target_is_an_error(fig1_file, capsys):
    # Targets above 1 are rejected up front (no LIS can exceed rate 1);
    # targets that are not fractions at all get the same one-line error.
    for target in ("3/2", "abc", "5/0"):
        assert main(["size", str(fig1_file), "--target", target]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:"), target
        assert "Traceback" not in err


def test_size_solver_timeout_is_an_error(tmp_path, capsys):
    """A timed-out search exits 2 with one error line; exit 1 stays
    reserved for a sizing that misses its target."""
    from repro.core.npcomplete import reduce_vertex_cover_to_qs
    from repro.core.serialize import save_lis

    triangle = reduce_vertex_cover_to_qs(
        ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")], 3
    )
    path = tmp_path / "triangle.json"
    save_lis(triangle.lis, path)
    for method in ("exact", "exact-ref"):
        argv = ["size", str(path), "--method", method, "--timeout", "1e-9"]
        assert main(argv) == 2, method
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and "timed out" in err, method


def test_generate_and_analyze(tmp_path, capsys):
    out_file = tmp_path / "gen.json"
    assert (
        main(
            [
                "generate",
                "-o",
                str(out_file),
                "--vertices",
                "12",
                "--sccs",
                "2",
                "--cycles",
                "1",
                "--relays",
                "2",
                "--seed",
                "5",
            ]
        )
        == 0
    )
    assert out_file.exists()
    capsys.readouterr()
    assert main(["analyze", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "shells:          12" in out


def test_simulate(fig1_file, capsys):
    assert (
        main(
            [
                "simulate",
                str(fig1_file),
                "--clocks",
                "150",
                "--warmup",
                "30",
                "--shell",
                "B",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "analytic MST:    2/3" in out


def test_simulate_rtl_autoprobe(fig1_file, capsys):
    assert main(["simulate", str(fig1_file), "--backend", "rtl"]) == 0
    out = capsys.readouterr().out
    assert "simulator:       rtl" in out


def test_simulate_fast_backend(fig1_file, capsys):
    assert main(["simulate", str(fig1_file), "--backend", "fast"]) == 0
    out = capsys.readouterr().out
    assert "simulator:       fast" in out
    assert "analytic MST:    2/3" in out


def test_simulate_removed_simulator_alias_errors(fig1_file, capsys):
    args = ["simulate", str(fig1_file), "--simulator", "rtl"]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "--simulator" in capsys.readouterr().err


def test_simulate_bad_backend_name_rejected(fig1_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", str(fig1_file), "--backend", "verilog"])
    assert exc.value.code == 2


def test_simulate_batch(fig1_file, tmp_path, capsys):
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([{}, {"1": 1}]))
    args = [
        "simulate", str(fig1_file),
        "--batch", str(batch),
        "--clocks", "300", "--warmup", "60",
        "--jobs", "2",
        "--cache", str(tmp_path / "cache"),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "backend:         fast (batched)" in out
    assert "assignments:     2" in out
    assert "measured=2/3" in out  # the as-built system
    assert "measured=1 " in out  # the repaired assignment
    assert "analytic=1 " in out

    # A warm re-run is served from the cache.
    assert main(args) == 0
    assert "measured=2/3" in capsys.readouterr().out


def test_simulate_batch_requires_fast_backend(fig1_file, tmp_path, capsys):
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps([{}]))
    args = [
        "simulate", str(fig1_file),
        "--batch", str(batch), "--backend", "rtl",
    ]
    assert main(args) == 2
    assert "requires the fast backend" in capsys.readouterr().err


def test_simulate_batch_bad_file(fig1_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", str(fig1_file), "--batch", str(bad)]) == 2
    assert "bad --batch file" in capsys.readouterr().err
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    assert main(["simulate", str(fig1_file), "--batch", str(empty)]) == 2
    assert "no assignments" in capsys.readouterr().err


def test_dot_views(fig1_file, capsys):
    for view in ("system", "ideal", "doubled"):
        assert main(["dot", str(fig1_file), "--view", view]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        if view == "doubled":
            assert "style=dashed" in out
            assert "shape=box" in out  # relay stations


def test_chaos_smoke(capsys):
    args = [
        "chaos", "--system", "fig15",
        "--schedules", "2", "--seed", "7", "--backends", "trace",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "2 schedules" in out
    assert "injected stalls:" in out


def test_chaos_json_output(capsys):
    args = [
        "chaos", "--system", "fig1",
        "--schedules", "2", "--seed", "3", "--backends", "trace", "--json",
    ]
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["violations"] == 0
    assert doc["summary"]["ok"] is True
    assert len(doc["trials"]) == 2


def test_chaos_rejects_unknown_backend(capsys):
    args = ["chaos", "--backends", "warp", "--schedules", "1"]
    assert main(args) == 2
    assert "unknown backend" in capsys.readouterr().err


def test_chaos_on_a_system_file(fig1_file, capsys):
    args = [
        "chaos", "--system", str(fig1_file),
        "--schedules", "1", "--backends", "trace",
    ]
    assert main(args) == 0
    assert "PASS" in capsys.readouterr().out


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_tail_smoke(capsys):
    args = [
        "tail", "--system", "fig15",
        "--rate", "0.1", "--seed", "3",
        "--clocks", "200", "--trials", "40", "--max-extra", "1",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "extra" in out and "an.p99" in out
    assert "ok" in out
    assert "cross-check" in out


def test_tail_json_output(capsys):
    args = [
        "tail", "--system", "fig15", "--kind", "burst",
        "--burst", "3", "--gap", "9", "--seed", "1",
        "--clocks", "150", "--trials", "30", "--max-extra", "1", "--json",
    ]
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["system"] == "fig15"
    assert len(doc["points"]) == 2
    assert all(p["agreement"]["exact"] for p in doc["points"])


def test_tail_approximate_path_reports_bounds(capsys):
    """Per-node scopes have no exact analytic path; the CLI must show
    'bound' verdicts and still exit 0."""
    args = [
        "tail", "--system", "fig15", "--kind", "arrival",
        "--rho", "0.8", "--sigma", "4", "--seed", "2",
        "--clocks", "150", "--trials", "20", "--max-extra", "0",
    ]
    assert main(args) == 0
    assert "bound" in capsys.readouterr().out


def test_tail_no_analytic(capsys):
    args = [
        "tail", "--system", "fig15", "--no-analytic",
        "--clocks", "100", "--trials", "10", "--max-extra", "0",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    # No estimate: placeholder cells and no cross-check verdict line.
    assert "cross-check" not in out
    assert " - " in out or out.rstrip().endswith("-")


def test_tail_mesh_shorthand(capsys):
    args = [
        "tail", "--system", "mesh:2x2",
        "--clocks", "100", "--trials", "10", "--max-extra", "0",
    ]
    assert main(args) == 0
    capsys.readouterr()
    assert main(["tail", "--system", "mesh:bogus"]) == 2
    assert "bad NoC spec" in capsys.readouterr().err


def test_tail_rejects_bad_spec(capsys):
    args = ["tail", "--system", "fig15", "--rate", "1.5"]
    assert main(args) == 2
    assert "rate" in capsys.readouterr().err


def test_generate_mesh_and_torus(tmp_path, capsys):
    out_file = tmp_path / "mesh.json"
    args = [
        "generate", "--topology", "mesh", "--rows", "3", "--cols", "3",
        "-o", str(out_file),
    ]
    assert main(args) == 0
    capsys.readouterr()
    assert main(["analyze", str(out_file)]) == 0
    assert "shells:          9" in capsys.readouterr().out
    torus_file = tmp_path / "torus.json"
    args = [
        "generate", "--topology", "torus", "--rows", "2", "--cols", "3",
        "-o", str(torus_file),
    ]
    assert main(args) == 0
    capsys.readouterr()
    assert main(["analyze", str(torus_file)]) == 0
    assert "shells:          6" in capsys.readouterr().out
