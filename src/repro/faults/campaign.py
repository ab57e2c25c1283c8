"""Seeded fault campaigns and the engine chaos drill.

A *campaign* is a reproducible fleet of fault schedules -- every kind
in :data:`~repro.faults.models.FAULT_KINDS`, parameters drawn from one
seeded RNG -- each run through the invariant harness on each simulator
backend, fanned out through the analysis engine's ``fault_trial`` op
(so campaigns parallelize, cache, and checkpoint like any other
sweep).  ``repro chaos`` is a thin CLI shell around
:func:`run_campaign`.

The *engine chaos drill* attacks the executor itself: a
``chaos_probe`` op SIGKILLs (or hangs) its own worker process on first
execution and succeeds on replay, proving the self-healing path --
broken-pool detection, pool rebuild, bounded retry -- end to end with
no result lost.
"""

from __future__ import annotations

import os
import random
import tempfile
from dataclasses import dataclass
from typing import Sequence

from .harness import BACKENDS
from .models import FAULT_KINDS, FaultSpec

__all__ = [
    "CampaignReport",
    "campaign_specs",
    "run_campaign",
    "engine_chaos_drill",
]


def campaign_specs(
    schedules: int,
    seed: int = 0,
    kinds: Sequence[str] = FAULT_KINDS,
    horizon: int = 48,
) -> list[list[FaultSpec]]:
    """``schedules`` seeded spec lists cycling through ``kinds``.

    Parameters (density, burst, gap) are drawn from one RNG seeded by
    ``seed``, so a campaign is reproducible from ``(schedules, seed)``
    alone.  Every sixth schedule composes two different kinds, because
    faults do not queue politely one at a time.
    """
    if schedules < 0:
        raise ValueError("schedules must be >= 0")
    kinds = tuple(kinds)
    if not kinds:
        raise ValueError("kinds must be non-empty")
    rng = random.Random(f"repro-faults:campaign:{seed}")

    def draw(kind: str) -> FaultSpec:
        return FaultSpec(
            kind=kind,
            seed=rng.randrange(2**32),
            horizon=horizon,
            density=round(rng.uniform(0.05, 0.35), 3),
            burst=rng.randint(2, 8),
            gap=rng.randint(4, 12),
        )

    out: list[list[FaultSpec]] = []
    for i in range(schedules):
        specs = [draw(kinds[i % len(kinds)])]
        if i % 6 == 5 and len(kinds) > 1:
            specs.append(draw(kinds[(i + 1 + i // 6) % len(kinds)]))
        out.append(specs)
    return out


@dataclass
class CampaignReport:
    """Every trial of one campaign (``trials`` are
    :meth:`~repro.faults.harness.FaultRunReport.as_dict` dicts plus the
    schedule index)."""

    trials: list[dict]
    schedules: int
    backends: tuple[str, ...]
    seed: int

    @property
    def violations(self) -> list[dict]:
        out = []
        for trial in self.trials:
            for violation in trial.get("violations", ()):
                out.append(
                    {
                        "schedule": trial.get("schedule"),
                        "backend": trial.get("backend"),
                        **violation,
                    }
                )
        return out

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> dict:
        per_backend = {b: 0 for b in self.backends}
        per_kind: dict[str, int] = {}
        for trial in self.trials:
            per_backend[trial["backend"]] = (
                per_backend.get(trial["backend"], 0) + 1
            )
            for spec in trial.get("specs", ()):
                kind = spec.get("kind", "?")
                per_kind[kind] = per_kind.get(kind, 0) + 1
        return {
            "schedules": self.schedules,
            "backends": list(self.backends),
            "seed": self.seed,
            "trials": len(self.trials),
            "trials_per_backend": per_backend,
            "specs_per_kind": dict(sorted(per_kind.items())),
            "total_stalls": sum(t.get("total_stalls", 0) for t in self.trials),
            "violations": len(self.violations),
            "ok": self.ok,
        }

    def as_dict(self) -> dict:
        return {
            "summary": self.summary(),
            "violations": self.violations,
            "trials": self.trials,
        }

    def render(self) -> str:
        s = self.summary()
        lines = [
            f"fault campaign: {s['trials']} trials "
            f"({s['schedules']} schedules x {len(self.backends)} backends, "
            f"seed {self.seed})",
            f"  injected stalls: {s['total_stalls']}",
            "  kinds: "
            + ", ".join(f"{k} x{n}" for k, n in s["specs_per_kind"].items()),
        ]
        if self.ok:
            lines.append("  all invariants held: PASS")
        else:
            lines.append(f"  INVARIANT VIOLATIONS: {len(self.violations)}")
            for v in self.violations[:20]:
                lines.append(
                    f"    [{v['backend']}/schedule {v['schedule']}] "
                    f"{v['invariant']} @ {v['subject']}: {v['detail']}"
                )
        return "\n".join(lines)


def run_campaign(
    lis,
    schedules: int = 40,
    backends: Sequence[str] = BACKENDS,
    seed: int = 0,
    horizon: int = 48,
    measure: int = 240,
    extra_tokens: dict[int, int] | None = None,
    engine=None,
    jobs: int | str | None = None,
    cache_dir=None,
    checkpoint=None,
    checkpoint_chunk: int = 16,
) -> CampaignReport:
    """Run a seeded fault campaign against one system.

    ``schedules`` spec lists (from :func:`campaign_specs`) are each
    checked on every backend in ``backends`` -- so the trial count is
    ``schedules * len(backends)`` -- through the engine's
    ``fault_trial`` op.  ``checkpoint`` gives crash-resumable
    campaigns, same protocol as the exhaustive sweeps.
    """
    from ..core.serialize import lis_to_json
    from ..engine import AnalysisEngine, run_checkpointed

    for backend in backends:
        if backend not in BACKENDS:
            known = ", ".join(BACKENDS)
            raise ValueError(
                f"unknown backend {backend!r} (available: {known})"
            )
    lis_json = getattr(lis, "lis_json", None) or lis_to_json(lis)
    spec_lists = campaign_specs(schedules, seed=seed, horizon=horizon)
    tasks = []
    labels = []
    for index, specs in enumerate(spec_lists):
        for backend in backends:
            options = {
                "specs": [spec.as_dict() for spec in specs],
                "backend": backend,
                "seed": seed,
                "measure": measure,
            }
            if extra_tokens:
                options["extra_tokens"] = {
                    str(c): int(x) for c, x in extra_tokens.items()
                }
            tasks.append(("fault_trial", lis_json, options))
            labels.append(index)

    def _run(eng) -> list:
        if checkpoint is not None:
            return run_checkpointed(
                eng, tasks, checkpoint, chunk=checkpoint_chunk
            )
        return eng.run(tasks)

    if engine is not None:
        results = _run(engine)
    else:
        with AnalysisEngine(jobs=jobs, cache_dir=cache_dir) as local:
            results = _run(local)
    trials = []
    for index, result in zip(labels, results):
        trial = dict(result)
        trial["schedule"] = index
        trials.append(trial)
    return CampaignReport(
        trials=trials,
        schedules=schedules,
        backends=tuple(backends),
        seed=seed,
    )


def engine_chaos_drill(
    engine=None,
    *,
    mode: str = "kill",
    jobs: int = 2,
    op_timeout: float | None = None,
    work_dir: str | os.PathLike | None = None,
) -> dict:
    """Prove the engine survives a worker dying (or hanging) mid-op.

    Submits a batch in which one ``chaos_probe`` op SIGKILLs its own
    worker (``mode="kill"``) or sleeps past the op timeout
    (``mode="hang"``) on first execution; the sentinel file it drops
    first makes the engine's replay succeed.  Returns the evidence:
    the probe's result, sibling-task health, and the self-healing
    counters.  With ``mode="hang"`` the engine must have (or is given)
    a finite ``op_timeout``.
    """
    from ..core.serialize import lis_to_json
    from ..engine import AnalysisEngine
    from ..gen.examples import ring_lis

    if mode not in ("kill", "hang"):
        raise ValueError(f"unknown chaos mode {mode!r} (kill or hang)")
    lis_json = lis_to_json(ring_lis(3, relays=1))
    made_dir = None
    if work_dir is None:
        made_dir = tempfile.mkdtemp(prefix="repro-chaos-")
        work_dir = made_dir
    sentinel = os.path.join(str(work_dir), f"probe-{mode}.sentinel")
    if os.path.exists(sentinel):
        os.unlink(sentinel)
    tasks = [
        (
            "chaos_probe",
            lis_json,
            {
                "sentinel": sentinel,
                "mode": mode,
                "salt": sentinel,
                "sleep": 3600.0,
            },
        )
    ]
    tasks += [
        ("actual_mst", lis_json, {"extra_tokens": {"0": pad}})
        for pad in range(3)
    ]

    def _drill(eng) -> dict:
        before = eng.stats.snapshot()
        results = eng.run(tasks, return_exceptions=True)
        healing = eng.stats.delta(before)
        probe = results[0]
        siblings_ok = all(
            not isinstance(r, BaseException) for r in results[1:]
        )
        return {
            "mode": mode,
            "survived": isinstance(probe, dict)
            and bool(probe.get("survived")),
            "siblings_ok": siblings_ok,
            "pool_rebuilds": healing.pool_rebuilds,
            "retries": healing.retries,
            "op_timeouts": healing.op_timeouts,
            "serial_fallbacks": healing.serial_fallbacks,
        }

    try:
        if engine is not None:
            outcome = _drill(engine)
        else:
            timeout = op_timeout if op_timeout is not None else (
                10.0 if mode == "hang" else None
            )
            with AnalysisEngine(jobs=jobs, op_timeout=timeout) as local:
                outcome = _drill(local)
    finally:
        if os.path.exists(sentinel):
            os.unlink(sentinel)
        if made_dir is not None:
            try:
                os.rmdir(made_dir)
            except OSError:
                pass
    outcome["ok"] = bool(
        outcome["survived"]
        and outcome["siblings_ok"]
        and outcome["pool_rebuilds"] >= 1
    )
    return outcome
