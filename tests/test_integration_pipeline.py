"""End-to-end integration tests: the full workflow, one scenario each.

These tests intentionally chain many subsystems -- generation,
analysis, all four solvers, both simulators, scheduling, serialization
and the CLI -- the way a real user session would, catching interface
drift that unit tests cannot see.
"""

from repro.core import (
    actual_mst,
    analyze,
    bottleneck_channels,
    ideal_mst,
    schedule_lis,
    size_queues,
)
from repro.core.serialize import lis_from_json, lis_to_json
from repro.gen import GeneratorConfig, generate_lis
from repro.lis import crossvalidate
from repro.soc import run_exhaustive_insertion


def test_full_pipeline_on_generated_system():
    # 1. Generate a degraded system.
    lis = generate_lis(
        GeneratorConfig(v=30, s=4, c=2, rs=6, rp=True, policy="scc", seed=2)
    )
    ideal = ideal_mst(lis).mst
    practical = actual_mst(lis).mst
    assert practical < ideal == 1

    # 2. Full analysis report agrees with the raw calls.
    report = analyze(lis, method="heuristic")
    assert report.ideal == ideal and report.practical == practical
    assert report.bottlenecks == bottleneck_channels(lis)
    assert report.fix is not None and report.fix.restores_target

    # 3. All four solvers restore the target; exact is the cheapest.
    solutions = {
        method: size_queues(lis, method=method, timeout=60)
        for method in ("heuristic", "greedy", "exact", "exact-ref")
    }
    for solution in solutions.values():
        assert solution.restores_target
    exact_cost = solutions["exact"].cost
    assert solutions["exact-ref"].cost == exact_cost
    assert solutions["heuristic"].cost >= exact_cost
    assert solutions["greedy"].cost >= exact_cost

    # 4. Both simulators confirm the repaired throughput.
    fix = solutions["exact"].extra_tokens
    sim_report = crossvalidate(lis, clocks=300, warmup=100, extra_tokens=fix)
    assert sim_report["agreed"]
    assert sim_report["analytic"] == 1

    # 5. The repaired system has a periodic schedule at full rate.
    repaired = lis.copy()
    for cid, tokens in fix.items():
        repaired.set_queue(cid, repaired.queue(cid) + tokens)
    schedule = schedule_lis(repaired, practical=True)
    probe = repaired.shells()[0]
    assert schedule.throughput(probe) == 1

    # 6. Serialization round-trips the repaired system faithfully.
    clone = lis_from_json(lis_to_json(repaired))
    assert actual_mst(clone).mst == 1


def test_full_pipeline_through_cli(tmp_path, capsys):
    from repro.cli import main

    system = tmp_path / "system.json"
    assert (
        main(
            [
                "generate",
                "-o",
                str(system),
                "--vertices",
                "20",
                "--sccs",
                "3",
                "--cycles",
                "1",
                "--relays",
                "4",
                "--seed",
                "2",
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["analyze", str(system), "--full"]) == 0
    full = capsys.readouterr().out
    assert "Throughput" in full and "Channels" in full
    assert main(["size", str(system), "--method", "exact"]) == 0
    sized = capsys.readouterr().out
    assert "achieved MST: 1" in sized
    assert main(["simulate", str(system), "--clocks", "250"]) == 0
    sim_out = capsys.readouterr().out
    assert "measured rate" in sim_out


def test_cofdm_csv_export():
    report = run_exhaustive_insertion(limit=8, run_exact=False)
    csv_text = report.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("channel_a,channel_b,ideal,actual")
    assert len(lines) == 1 + 8
    # Degraded rows carry heuristic numbers; clean rows leave them empty.
    for line, placement in zip(lines[1:], report.placements):
        cells = line.split(",")
        assert abs(float(cells[2]) - float(placement.ideal)) < 1e-5
        if placement.degraded:
            assert cells[4] != ""
        else:
            assert cells[4] == ""
