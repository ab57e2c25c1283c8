"""Request validation: JSON-RPC methods -> engine operations.

The server speaks JSON-RPC 2.0 over HTTP.  Each exposed *method* maps
onto one registered engine op with a whitelist of option keys; the
request's LIS payload is canonicalized through
:func:`repro.core.serialize` so that every spelling of the same system
-- a dict, pre-serialized JSON text, or a named example -- produces the
identical canonical text, the identical
:func:`~repro.engine.cache.content_key`, and therefore lands in the
same coalescing slot and cache entry.  The SHA-256 digests the engine
already uses as memo keys double as the dedup keys: request coalescing
costs nothing beyond the hash the cache needed anyway.

Security note: the server never touches the filesystem on behalf of a
request -- ``system`` names resolve against the built-in example/NoC
registry only, and LIS payloads must be inline.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from fractions import Fraction
from typing import Any, Mapping

from ..core.serialize import lis_from_json, lis_to_json
from ..engine.cache import canonical_options, content_key
from ..gen.examples import NAMED_SYSTEMS, named_system

__all__ = [
    "METHODS",
    "MethodSpec",
    "RpcError",
    "Job",
    "parse_job",
    "jsonify",
    "resolve_named_system",
    "PARSE_ERROR",
    "INVALID_REQUEST",
    "METHOD_NOT_FOUND",
    "INVALID_PARAMS",
    "INTERNAL_ERROR",
    "OP_FAILED",
    "OVERLOADED",
    "DEADLINE_EXCEEDED",
    "SHUTTING_DOWN",
    "WORKER_CRASHED",
    "WATCHDOG_TIMEOUT",
    "ALL_SHARDS_DOWN",
]

# JSON-RPC 2.0 pre-defined error codes...
PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603
# ...and the server-defined range.
OP_FAILED = -32000
OVERLOADED = -32001
DEADLINE_EXCEEDED = -32002
SHUTTING_DOWN = -32003
#: The shard worker running the job died before finishing it; the job
#: produced no result and is safe to retry (content ops are pure).
WORKER_CRASHED = -32004
#: The hung-op watchdog killed the job's worker; safe to retry.
WATCHDOG_TIMEOUT = -32005
#: Every shard breaker is open and the disk cache had no answer.
ALL_SHARDS_DOWN = -32006


class RpcError(Exception):
    """A JSON-RPC error response carried as an exception.

    ``data`` rides in the error object's ``data`` member;
    ``retry_after`` (seconds) additionally surfaces as an HTTP
    ``Retry-After`` header on overload responses.
    """

    def __init__(
        self,
        code: int,
        message: str,
        data: object = None,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.data = data
        self.retry_after = retry_after

    def as_dict(self) -> dict:
        error: dict = {"code": self.code, "message": self.message}
        if self.data is not None:
            error["data"] = self.data
        return error


@dataclass(frozen=True)
class MethodSpec:
    """One exposed JSON-RPC method and the engine op behind it."""

    name: str
    op: str
    description: str
    #: Option keys forwarded verbatim into the engine op's options.
    allowed: frozenset[str] = field(default_factory=frozenset)
    #: Option keys that must be present.
    required: frozenset[str] = field(default_factory=frozenset)


METHODS: dict[str, MethodSpec] = {
    spec.name: spec
    for spec in (
        MethodSpec(
            "analyze",
            "analyze",
            "full analysis report (MST, bottlenecks, recommended fix)",
            allowed=frozenset({"method", "max_cycles"}),
        ),
        MethodSpec(
            "size_queues",
            "size_queues",
            "queue sizing through any solver",
            allowed=frozenset({"method", "target", "timeout", "max_cycles"}),
        ),
        MethodSpec(
            "simulate",
            "simulate_batch",
            "batched simulation (fast kernel or schedule oracle)",
            allowed=frozenset(
                {
                    "assignments",
                    "clocks",
                    "warmup",
                    "check_feasible",
                    "backend",
                }
            ),
        ),
        MethodSpec(
            "measure",
            "measure",
            "single-shell throughput via a measurement backend",
            allowed=frozenset(
                {"backend", "shell", "clocks", "warmup", "extra_tokens"}
            ),
        ),
        MethodSpec(
            "tail",
            "tail_point",
            "Monte-Carlo + analytic tail-latency estimate",
            allowed=frozenset(
                {
                    "specs",
                    "clocks",
                    "trials",
                    "warmup",
                    "extra_tokens",
                    "node",
                    "work",
                    "quantiles",
                    "analytic",
                }
            ),
            required=frozenset({"specs"}),
        ),
    )
}


@dataclass(frozen=True)
class Job:
    """A validated request, normalized to its engine task.

    ``key`` is the engine's own content hash of ``(op, lis_json,
    options)`` -- the memo/disk-cache key -- so two jobs with equal
    keys are *provably* the same computation: they coalesce onto one
    in-flight future and one cache entry.
    """

    method: str
    op: str
    lis_json: str
    options: dict | None
    key: str
    deadline_s: float | None = None
    stream: bool = False

    @property
    def fingerprint(self) -> str:
        """The content key (used for shard routing)."""
        return self.key


def resolve_named_system(name: str) -> str:
    """Canonical LIS JSON for a built-in system name.

    Accepts every name of :func:`repro.gen.named_system`: the paper
    examples (``fig1``, ``fig15``, ...), the SoC case studies
    (``cofdm``, ``fig19``), and NoC shorthands (``mesh:RxC`` /
    ``torus:RxC``).  File paths are deliberately rejected -- the server
    must not read local files on behalf of a network peer.
    """
    try:
        lis = named_system(name)
    except ValueError as exc:
        raise RpcError(INVALID_PARAMS, str(exc)) from None
    if lis is None:
        raise RpcError(
            INVALID_PARAMS,
            f"unknown system {name!r} (named systems: "
            f"{', '.join(NAMED_SYSTEMS)}; or pass the LIS inline via 'lis')",
        )
    return lis_to_json(lis)


def _canonical_lis(params: Mapping) -> str:
    """The canonical serialized system named by ``params``: either an
    inline ``lis`` (dict or JSON text) or a built-in ``system`` name.
    Round-trips through :class:`~repro.core.lis_graph.LisGraph` so any
    spelling of the same content hashes identically."""
    lis = params.get("lis")
    system = params.get("system")
    if (lis is None) == (system is None):
        raise RpcError(
            INVALID_PARAMS,
            "params must carry exactly one of 'lis' "
            "(inline description) or 'system' (built-in name)",
        )
    if system is not None:
        if not isinstance(system, str):
            raise RpcError(INVALID_PARAMS, "'system' must be a string")
        return resolve_named_system(system)
    if isinstance(lis, Mapping):
        text = json.dumps(lis)
    elif isinstance(lis, str):
        text = lis
    else:
        raise RpcError(
            INVALID_PARAMS,
            "'lis' must be a serialized LIS object or its JSON text",
        )
    try:
        return lis_to_json(lis_from_json(text))
    except Exception as exc:
        raise RpcError(
            INVALID_PARAMS, f"invalid LIS description: {exc}"
        ) from None


def parse_job(method: str, params: object) -> Job:
    """Validate one JSON-RPC call into a :class:`Job` (or raise
    :class:`RpcError`)."""
    spec = METHODS.get(method)
    if spec is None:
        raise RpcError(
            METHOD_NOT_FOUND,
            f"unknown method {method!r} "
            f"(available: {', '.join(sorted(METHODS))})",
        )
    if params is None:
        params = {}
    if not isinstance(params, Mapping):
        raise RpcError(INVALID_PARAMS, "params must be an object")
    lis_json = _canonical_lis(params)

    options = params.get("options") or {}
    if not isinstance(options, Mapping):
        raise RpcError(INVALID_PARAMS, "'options' must be an object")
    unknown = set(options) - set(spec.allowed)
    if unknown:
        raise RpcError(
            INVALID_PARAMS,
            f"unknown option(s) for {method!r}: "
            f"{', '.join(sorted(unknown))} "
            f"(allowed: {', '.join(sorted(spec.allowed)) or 'none'})",
        )
    missing = set(spec.required) - set(options)
    if missing:
        raise RpcError(
            INVALID_PARAMS,
            f"{method!r} requires option(s): "
            f"{', '.join(sorted(missing))}",
        )
    # Round-trip the options through their canonical JSON so logically
    # equal spellings ({"clocks": 400} vs {"clocks": 400.0} stay
    # distinct, but key order never matters) hash identically.
    try:
        options = json.loads(canonical_options(dict(options)))
    except (TypeError, ValueError) as exc:
        raise RpcError(
            INVALID_PARAMS, f"options are not JSON-able: {exc}"
        ) from None

    deadline = params.get("deadline_ms")
    deadline_s: float | None = None
    if deadline is not None:
        if (
            isinstance(deadline, bool)
            or not isinstance(deadline, (int, float))
            or not 0 < deadline <= sys.float_info.max
        ):
            raise RpcError(
                INVALID_PARAMS,
                "'deadline_ms' must be a finite positive number",
            )
        deadline_s = deadline / 1e3
    stream = params.get("stream", False)
    if not isinstance(stream, bool):
        raise RpcError(INVALID_PARAMS, "'stream' must be a boolean")

    options_or_none = options or None
    return Job(
        method=method,
        op=spec.op,
        lis_json=lis_json,
        options=options_or_none,
        key=content_key(spec.op, lis_json, options_or_none),
        deadline_s=deadline_s,
        stream=stream,
    )


def jsonify(value: Any) -> Any:
    """Engine results -> JSON-able structures.

    Fractions render as ``"p/q"`` strings (matching the benchmark
    JSONs and :func:`~repro.engine.cache.canonical_options`), enums as
    their values, dataclasses as field dicts, sets as sorted lists;
    anything else unrecognized falls back to ``str``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Mapping):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(jsonify(v) for v in value)
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonify(getattr(value, f.name))
            for f in fields(value)
        }
    return str(value)
