"""Checkpoint/resume protocol: journal integrity, crash tolerance, and
byte-for-byte identical resumed sweeps."""

import json

from repro.engine import AnalysisEngine, Checkpoint, run_checkpointed, task_key
from repro.gen.examples import fig15_lis, ring_lis


def _tasks(n=8):
    return [
        ("actual_mst", ring_lis(3, relays=1), {"extra_tokens": {"0": i}})
        for i in range(n)
    ]


def test_task_key_matches_engine_content_hash():
    lis = fig15_lis()
    a = task_key(("ideal_mst", lis, None))
    b = task_key(("ideal_mst", lis, None))
    assert a == b and len(a) == 64
    assert task_key(("actual_mst", lis, None)) != a
    assert task_key(("ideal_mst", lis, {"x": 1})) != a


def test_round_trip_and_resume_serves_from_journal(tmp_path):
    journal = tmp_path / "run.ckpt"
    tasks = _tasks()
    with AnalysisEngine() as eng:
        first = run_checkpointed(eng, tasks, journal)
        assert eng.stats.checkpoint_hits == 0
    with AnalysisEngine() as eng:
        second = run_checkpointed(eng, tasks, journal)
        assert eng.stats.checkpoint_hits == len(tasks)
        assert eng.stats.tasks == 0  # nothing recomputed
    assert [r.mst for r in first] == [r.mst for r in second]


def test_interrupted_sweep_resumes_byte_for_byte(tmp_path):
    """The acceptance criterion: kill a sweep partway, resume it with
    the same checkpoint file, and the final output must equal the
    uninterrupted run's output byte for byte."""
    import pickle

    # mst_sweep returns plain {label: Fraction} dicts, so equal results
    # pickle to equal bytes (no identity-dependent containers).  The
    # results are compared element-wise: pickling the whole list would
    # drag cross-element object sharing (pickle's memo) into the bytes.
    tasks = [
        ("mst_sweep", ring_lis(3, relays=1), {"queues": [1, 1 + i]})
        for i in range(10)
    ]
    with AnalysisEngine() as eng:
        uninterrupted = eng.run(tasks)

    journal = tmp_path / "interrupted.ckpt"
    # "Crash" after the first 4 tasks: only they reach the journal.
    with AnalysisEngine() as eng:
        run_checkpointed(eng, tasks[:4], journal, chunk=2)
    torn = journal.read_bytes()
    assert len(Checkpoint(journal)) == 4

    with AnalysisEngine() as eng:
        resumed = run_checkpointed(eng, tasks, journal, chunk=2)
        assert eng.stats.checkpoint_hits == 4
        assert eng.stats.tasks == 6
    assert [pickle.dumps(r) for r in resumed] == [
        pickle.dumps(r) for r in uninterrupted
    ]
    # The journal grew strictly by appending: resume never rewrites
    # history (torn-tail crashes stay recoverable).
    assert journal.read_bytes().startswith(torn)


def test_torn_final_line_is_skipped_and_recovered(tmp_path):
    journal = tmp_path / "torn.ckpt"
    tasks = _tasks(4)
    with AnalysisEngine() as eng:
        complete = run_checkpointed(eng, tasks, journal)
    blob = journal.read_bytes()
    journal.write_bytes(blob[: len(blob) - 40])  # SIGKILL mid-append

    ckpt = Checkpoint(journal)
    assert ckpt.corrupt_lines == 1
    assert len(ckpt) == 3
    with AnalysisEngine() as eng:
        resumed = run_checkpointed(eng, tasks, ckpt)
        assert eng.stats.checkpoint_hits == 3
        assert eng.stats.tasks == 1
    assert [r.mst for r in resumed] == [r.mst for r in complete]


def test_tampered_record_fails_its_digest_and_is_skipped(tmp_path):
    journal = tmp_path / "tampered.ckpt"
    tasks = _tasks(2)
    with AnalysisEngine() as eng:
        run_checkpointed(eng, tasks, journal)
    lines = journal.read_text().splitlines()
    record = json.loads(lines[0])
    record["data"] = record["data"][:-8] + "AAAAAAA="  # flip payload bits
    lines[0] = json.dumps(record, separators=(",", ":"))
    journal.write_text("\n".join(lines) + "\n")

    ckpt = Checkpoint(journal)
    assert ckpt.corrupt_lines == 1
    assert len(ckpt) == 1


def test_duplicate_tasks_share_one_journal_record(tmp_path):
    journal = tmp_path / "dupes.ckpt"
    lis = fig15_lis()
    tasks = [("ideal_mst", lis, None)] * 3
    with AnalysisEngine() as eng:
        results = run_checkpointed(eng, tasks, journal)
    assert len({r.mst for r in results}) == 1
    assert len(Checkpoint(journal)) == 1


def test_checkpoint_accepts_path_or_instance(tmp_path):
    journal = tmp_path / "forms.ckpt"
    tasks = _tasks(2)
    with AnalysisEngine() as eng:
        a = run_checkpointed(eng, tasks, str(journal))
    with AnalysisEngine() as eng:
        b = run_checkpointed(eng, tasks, Checkpoint(journal))
        assert eng.stats.checkpoint_hits == 2
    assert [r.mst for r in a] == [r.mst for r in b]


def test_exhaustive_sweep_checkpoint_resume(tmp_path):
    """End-to-end through the Table V runner: an interrupted exhaustive
    sweep resumed from its checkpoint equals the uninterrupted sweep."""
    from repro.soc import run_exhaustive_insertion

    clean = run_exhaustive_insertion(run_exact=False, limit=6)
    journal = tmp_path / "table5.ckpt"
    # Interrupted attempt: only the first 3 placements complete.
    run_exhaustive_insertion(run_exact=False, limit=3, checkpoint=journal)
    with_resume = run_exhaustive_insertion(
        run_exact=False, limit=6, checkpoint=journal
    )
    assert with_resume.to_csv() == clean.to_csv()

    def stable(summary):  # wall-clock timings legitimately differ
        return {k: v for k, v in summary.items() if "cpu" not in k}

    assert stable(with_resume.summary()) == stable(clean.summary())


def test_fig17_runner_checkpoint_resume(tmp_path):
    from repro.experiments import fig17_fixed_queue_recovery

    kwargs = dict(q_values=[1, 2], trials=2, rs=2, v=8, s=2, c=1)
    clean = fig17_fixed_queue_recovery(**kwargs)
    journal = tmp_path / "fig17.ckpt"
    first = fig17_fixed_queue_recovery(**kwargs, checkpoint=journal)
    resumed = fig17_fixed_queue_recovery(**kwargs, checkpoint=journal)
    assert first == clean
    assert resumed == clean
