"""Server observability: request counters + engine-stat aggregation.

Bridges the three observability layers into one ``/stats`` document:

* request-level counters (received/completed/failed/shed/deadline),
* the engine's own per-request :class:`~repro.engine.EngineStats`
  *deltas* (snapshot/delta, so a long-lived server can attribute
  hits/misses per request instead of only cumulatively), and
* the :class:`~repro.server.qmodel.QueueModel` self-model.

Every counter lives on a :class:`repro.obs.Counters`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..engine.core import EngineStats
from ..obs import Counters
from .qmodel import QueueModel

if TYPE_CHECKING:  # pragma: no cover
    from .pool import ExecutionOutcome

__all__ = ["ServerMetrics"]

#: Request outcomes (``/stats`` -> ``requests``); ``per_method/<method>``
#: keys tally received requests by method.
REQUEST_FIELDS = (
    "received",
    "completed",
    "failed",
    "invalid",
    "shed",
    "deadline_exceeded",
)


class ServerMetrics:
    """The server's counter blocks (owned by the event loop)."""

    def __init__(self, qmodel: QueueModel) -> None:
        self.qmodel = qmodel
        self.requests = Counters(fields=REQUEST_FIELDS)
        #: Executions actually run on a shard (coalescing leaders), and
        #: those whose engine delta was pure cache (no misses).
        self.executions = Counters(fields=("executed", "cache_served"))
        #: Sum of every per-request engine-stats delta.
        self.engine = EngineStats()

    def record_request(self, method: str) -> None:
        self.requests.merge({"received": 1, f"per_method/{method}": 1})

    def record_execution(self, outcome: "ExecutionOutcome") -> None:
        self.executions.merge(
            {"executed": 1, "cache_served": int(outcome.cache_served)}
        )
        self.engine.counters.merge(outcome.delta.counters.snapshot())

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of executed jobs answered entirely from the
        engine's memo/disk cache."""
        executed = self.executions.executed
        return self.executions.cache_served / executed if executed else 0.0

    def as_dict(
        self,
        coalescer=None,
        queue_depth: int | None = None,
        resilience: dict | None = None,
    ) -> dict:
        out: dict = {
            "requests": {"per_method": {}, **self.requests.as_dict()},
            "cache": {
                **self.executions.as_dict(),
                "hit_rate": self.cache_hit_rate,
                "engine_hits": self.engine.hits,
                "engine_disk_hits": self.engine.disk_hits,
                "engine_misses": self.engine.misses,
            },
            "engine": self.engine.as_dict(),
            "queueing": self.qmodel.as_dict(),
        }
        if coalescer is not None:
            out["coalescing"] = {
                "enabled": coalescer.enabled,
                "leaders": coalescer.leaders,
                "followers": coalescer.followers,
                "rate": coalescer.coalesce_rate,
                "inflight": len(coalescer),
            }
        if queue_depth is not None:
            out["queue_depth"] = queue_depth
        if resilience is not None:
            out["resilience"] = resilience
        return out
