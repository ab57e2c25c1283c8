"""Checkpoint/resume protocol for long engine runs.

An hour-scale sweep (the Table V exhaustive insertion, the Fig. 16/17
queue sweeps) that dies at 90% used to restart from zero.  A
:class:`Checkpoint` is an append-only JSONL journal of completed
tasks, keyed by the same content hash the engine caches under
(:func:`repro.engine.cache.content_key`), so a resumed run serves
every journaled task without recomputing it and continues with the
rest -- producing output byte-for-byte identical to an uninterrupted
run.

Journal format (one JSON object per line)::

    {"v": "repro-checkpoint-v1", "key": "<sha256 content key>",
     "sha256": "<sha256 of the pickle payload>", "data": "<base64>"}

Each record is self-verifying: the payload digest is checked on load
and any line that fails to parse or verify -- typically the torn final
line of a killed run -- is skipped (counted in ``corrupt_lines``), so
a checkpoint file is usable after any crash.  Records are flushed and
fsynced as they are written.

Like the disk cache, the payload is :mod:`pickle`: treat checkpoint
files as local build artifacts and do not load untrusted ones.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Sequence

from ..analysis import Context
from ..core.serialize import lis_to_json
from .cache import content_key

__all__ = ["Checkpoint", "run_checkpointed", "task_key"]

_VERSION = "repro-checkpoint-v1"


def task_key(task: tuple) -> str:
    """The journal key of one ``(op, lis, options)`` engine task -- the
    same content hash the engine's caches use."""
    op, lis, options = (*task, None)[:3]
    if isinstance(lis, str):
        lis_json = lis
    elif isinstance(lis, Context):
        lis_json = lis.lis_json
    else:
        lis_json = lis_to_json(lis)
    return content_key(op, lis_json, options)


class Checkpoint:
    """Append-only journal of completed engine tasks (see module doc).

    Attributes:
        corrupt_lines: Journal lines skipped on load (unparseable or
            failing their digest) -- 0 or 1 after a typical kill.
        served: Tasks answered from the journal by
            :func:`run_checkpointed` against this instance.
        stored: Tasks appended by :func:`run_checkpointed`.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._payloads: dict[str, bytes] = {}
        self.corrupt_lines = 0
        self.served = 0
        self.stored = 0
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        with self.path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    key = entry["key"]
                    payload = base64.b64decode(
                        entry["data"], validate=True
                    )
                    if (
                        entry.get("v") != _VERSION
                        or not isinstance(key, str)
                        or hashlib.sha256(payload).hexdigest()
                        != entry["sha256"]
                    ):
                        raise ValueError("bad checkpoint record")
                except (
                    ValueError,
                    KeyError,
                    TypeError,
                    binascii.Error,
                    json.JSONDecodeError,
                ):
                    self.corrupt_lines += 1
                    continue
                self._payloads[key] = payload

    def __contains__(self, key: str) -> bool:
        return key in self._payloads

    def __len__(self) -> int:
        return len(self._payloads)

    def keys(self):
        return self._payloads.keys()

    def get(self, key: str):
        """The journaled result for ``key`` (KeyError when absent)."""
        return pickle.loads(self._payloads[key])

    def put(self, key: str, value) -> None:
        """Append one completed task; flushed + fsynced immediately so
        the record survives a SIGKILL right after it."""
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        record = {
            "v": _VERSION,
            "key": key,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "data": base64.b64encode(payload).decode("ascii"),
        }
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._payloads[key] = payload


def run_checkpointed(
    engine,
    tasks: Sequence[tuple],
    checkpoint: Checkpoint | str | os.PathLike,
    chunk: int = 16,
) -> list:
    """:meth:`AnalysisEngine.run` with a completion journal.

    Tasks already recorded in ``checkpoint`` are served from it
    (counted as ``checkpoint_hits`` in the engine stats); the rest run
    through the engine in task order, ``chunk`` at a time, each chunk
    journaled as it completes.  Results come back in task order, so an
    interrupted sweep re-run with the same checkpoint file yields
    exactly what the uninterrupted run would have.
    """
    ckpt = (
        checkpoint
        if isinstance(checkpoint, Checkpoint)
        else Checkpoint(checkpoint)
    )
    keys = [task_key(task) for task in tasks]
    results: list = [None] * len(tasks)
    missing: list[int] = []
    for i, key in enumerate(keys):
        if key in ckpt:
            results[i] = ckpt.get(key)
            ckpt.served += 1
            engine.stats.counters.add("checkpoint_hits")
        else:
            missing.append(i)
    step = max(1, int(chunk))
    for start in range(0, len(missing), step):
        group = missing[start : start + step]
        values = engine.run([tasks[i] for i in group])
        for i, value in zip(group, values):
            if keys[i] not in ckpt:  # duplicates resolve to one record
                ckpt.put(keys[i], value)
                ckpt.stored += 1
            results[i] = value
    return results
