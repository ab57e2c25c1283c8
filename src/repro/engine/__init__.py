"""Parallel cached analysis engine (the batch substrate).

Everything that runs *many* independent LIS analyses -- experiment
runners, the exhaustive SoC sweeps, the benchmarks, the CLI's
``--jobs``/``--cache`` surface -- submits work here instead of looping:

    from repro.engine import AnalysisEngine

    with AnalysisEngine(jobs=4, cache_dir=".repro-cache") as engine:
        reports = engine.map("analyze", systems)
        print(engine.stats.render())

See :mod:`repro.engine.core` for the engine, :mod:`repro.engine.ops`
for the operation registry, and :mod:`repro.engine.cache` for the
content-hash cache layers.
"""

from .cache import DiskCache, LruCache, canonical_options, content_key
from .checkpoint import Checkpoint, run_checkpointed, task_key
from .core import AnalysisEngine, EngineStats, analyze_many
from .ops import get_op, register_op, run_op

__all__ = [
    "AnalysisEngine",
    "EngineStats",
    "analyze_many",
    "get_op",
    "register_op",
    "run_op",
    "Checkpoint",
    "run_checkpointed",
    "task_key",
    "DiskCache",
    "LruCache",
    "canonical_options",
    "content_key",
]
