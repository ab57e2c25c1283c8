"""Content-addressed result caching for the analysis engine.

Keys are SHA-256 hashes over the *serialized* LIS (the canonical JSON
of :mod:`repro.core.serialize`), the operation name, and the
canonicalized option set.  Because the key is derived from content,
mutating a system (``set_queue``, ``insert_relay``) changes its
serialization and therefore never aliases a stale entry -- there is no
explicit invalidation protocol to get wrong.

Two layers:

* :class:`LruCache` -- in-memory, bounded, per-engine;
* :class:`DiskCache` -- optional pickle files under a cache directory,
  shared between runs and processes (written atomically via rename).

Disk entries are *checksummed*: each file carries a format magic and
the SHA-256 of its pickle payload, so a torn write, bit rot, or a
stray truncation is detected on read.  A corrupt file is never
silently re-read forever -- it is moved into a ``quarantine/`` subdir
(for post-mortems) and counted in ``corrupt_entries``, which flows
into ``stats.json`` and the ``repro stats`` report.

The disk layer uses :mod:`pickle`: treat a cache directory like any
other local build artifact and do not point the engine at an
untrusted one.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import tempfile
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterator

from ..obs import Counters, flatten, nest

try:  # advisory locking: POSIX only, degrade gracefully elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

__all__ = ["DiskCache", "LruCache", "canonical_options", "content_key"]

_KEY_VERSION = "repro-engine-v1"


def _json_default(value: Any) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def canonical_options(options: dict | None) -> str:
    """Deterministic JSON text for an option dict (Fractions included)."""
    return json.dumps(
        options or {},
        sort_keys=True,
        separators=(",", ":"),
        default=_json_default,
    )


def content_key(op: str, lis_json: str, options: dict | None) -> str:
    """The cache key: hash of (engine version, op, options, system)."""
    digest = hashlib.sha256()
    for part in (_KEY_VERSION, op, canonical_options(options), lis_json):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


class LruCache:
    """A small LRU mapping key -> result, with hit/miss counts kept by
    the owning engine (this class only stores)."""

    def __init__(self, maxsize: int = 4096) -> None:
        self.maxsize = max(0, maxsize)
        self._data: OrderedDict[str, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: str) -> Any:
        """The stored value, promoted to most-recent; KeyError on miss."""
        value = self._data[key]
        self._data.move_to_end(key)
        return value

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def put(self, key: str, value: Any) -> None:
        if self.maxsize == 0:
            return
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()


class DiskCache:
    """Pickle-per-entry cache directory; file names carry the op name
    so ``python -m repro stats`` can break usage down per operation.

    Entries are framed as ``MAGIC + sha256-hex + "\\n" + payload``;
    :meth:`get` verifies the digest before unpickling and quarantines
    anything that fails (see :meth:`_quarantine`).  Files written by
    older versions (no magic) are still read as plain pickles.
    """

    STATS_FILE = "stats.json"
    QUARANTINE_DIR = "quarantine"
    LOCK_FILE = ".lock"
    MAGIC = b"%REPRO-CACHE-1%\n"

    def __init__(
        self,
        directory: str | os.PathLike,
        max_bytes: int | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Corrupt entries detected (and quarantined) by this instance.
        self.corrupt_entries = 0
        #: Optional size cap: after a put pushes the directory past
        #: this many bytes, the oldest entries are evicted (under the
        #: advisory lock) until the cache fits again.  ``None`` (the
        #: default) never evicts.
        self.max_bytes = max_bytes
        #: Entries this instance evicted to stay under ``max_bytes``.
        self.evicted_entries = 0
        # Approximate bytes written since the last full-size check, so
        # a busy writer doesn't stat the whole directory on every put.
        self._bytes_since_check = 0

    def _path(self, op: str, key: str) -> Path:
        return self.directory / f"{op}--{key}.pkl"

    @contextlib.contextmanager
    def _lock(self) -> Iterator[None]:
        """Advisory, cross-process exclusive lock on the cache dir.

        Serializes the read-modify-write of ``stats.json``, eviction
        scans, and quarantine moves across *processes* sharing one
        cache directory (many server shards, parallel pytest workers,
        concurrent CLI runs).  Entry reads/writes themselves don't need
        it: puts are atomic rename-into-place and content-addressed,
        so the worst cross-process race is both writers storing the
        same bytes.  On platforms without :mod:`fcntl` the lock
        degrades to a no-op (single-process use stays correct).
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        lock_path = self.directory / self.LOCK_FILE
        with lock_path.open("a") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry out of the lookup path so it is never
        re-read (and re-failed) again, keeping the bytes for diagnosis.
        Taken under the advisory lock so two processes detecting the
        same corrupt file don't race the move (the loser would
        otherwise unlink a healthy rewrite that landed in between)."""
        self.corrupt_entries += 1
        target_dir = self.directory / self.QUARANTINE_DIR
        with self._lock():
            try:
                target_dir.mkdir(exist_ok=True)
                os.replace(path, target_dir / path.name)
            except OSError:
                # Already quarantined by a sibling process, cross-device
                # or permission trouble: fall back to removal; leaving
                # the corrupt file in place would mask every future
                # lookup of this key as a disk hit that always fails.
                try:
                    os.unlink(path)
                except OSError:
                    pass

    def get(self, op: str, key: str) -> Any:
        """Unpickled entry; KeyError when absent.  A present-but-corrupt
        file (bad frame, digest mismatch, truncated pickle) is counted
        in ``corrupt_entries``, moved to ``quarantine/``, and reported
        as a KeyError so the engine recomputes it."""
        path = self._path(op, key)
        try:
            with path.open("rb") as fh:
                blob = fh.read()
        except OSError:
            raise KeyError(key) from None
        payload = blob
        if blob.startswith(self.MAGIC):
            head = len(self.MAGIC)
            digest_end = head + 64
            stored = blob[head:digest_end]
            payload = blob[digest_end + 1 :]
            if (
                blob[digest_end : digest_end + 1] != b"\n"
                or hashlib.sha256(payload).hexdigest().encode() != stored
            ):
                self._quarantine(path)
                raise KeyError(key) from None
        try:
            return pickle.loads(payload)
        except Exception:
            # Unpicklable payload: checksum mismatch already quarantined
            # above; this path covers legacy (unframed) corruption and
            # payloads whose classes no longer import.
            self._quarantine(path)
            raise KeyError(key) from None

    def put(self, op: str, key: str, value: Any) -> None:
        path = self._path(op, key)
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest().encode()
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp-", suffix=".pkl"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(self.MAGIC)
                fh.write(digest)
                fh.write(b"\n")
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        if self.max_bytes is not None:
            self._bytes_since_check += len(payload) + len(self.MAGIC) + 65
            if self._bytes_since_check >= max(self.max_bytes // 8, 1):
                self._bytes_since_check = 0
                self.evict()

    def evict(self) -> int:
        """Drop the oldest entries until the directory fits in
        ``max_bytes``; returns the number of entries removed.

        Runs under the advisory lock so concurrent writers sharing the
        cache directory never double-evict or race a put's rename: a
        file that vanishes mid-scan (evicted by a sibling, quarantined)
        is simply skipped.  No-op when ``max_bytes`` is ``None``.
        """
        if self.max_bytes is None:
            return 0
        removed = 0
        with self._lock():
            entries = []
            for path in self.directory.glob("*--*.pkl"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
            total = sum(size for _, size, _ in entries)
            entries.sort()
            for _, size, path in entries:
                if total <= self.max_bytes:
                    break
                try:
                    os.unlink(path)
                except OSError:
                    continue
                total -= size
                removed += 1
        self.evicted_entries += removed
        return removed

    def quarantined(self) -> int:
        """Number of corrupt entries parked under ``quarantine/``."""
        target_dir = self.directory / self.QUARANTINE_DIR
        if not target_dir.is_dir():
            return 0
        return sum(1 for _ in target_dir.glob("*.pkl"))

    def entries(self) -> dict[str, int]:
        """Entry counts per op name."""
        counts: dict[str, int] = {}
        for path in self.directory.glob("*--*.pkl"):
            op = path.name.rsplit("--", 1)[0]
            counts[op] = counts.get(op, 0) + 1
        return counts

    def total_bytes(self) -> int:
        return sum(
            path.stat().st_size for path in self.directory.glob("*--*.pkl")
        )

    def read_stats(self) -> dict:
        """Cumulative engine counters persisted beside the entries."""
        path = self.directory / self.STATS_FILE
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return {}

    def merge_stats(self, update: dict) -> None:
        """Accumulate ``update`` (nested dicts of numbers) into
        ``stats.json`` so observability survives across runs.

        The read-modify-write runs under the advisory lock: without
        it, two processes flushing stats concurrently (server shards,
        parallel benchmark runs) would each read the same baseline and
        the slower writer would silently drop the faster one's counts.
        """
        with self._lock():
            counts = Counters(flatten(self.read_stats()))
            counts.merge(flatten(update))
            # Sections with no counts yet (``"solver": {}``) keep their key.
            merged = {
                **{k: {} for k, v in update.items() if isinstance(v, dict)},
                **nest(counts.snapshot()),
            }
            path = self.directory / self.STATS_FILE
            text = json.dumps(merged, indent=2, sort_keys=True) + "\n"
            # Atomic (write-temp-then-rename): a crash mid-write must
            # not leave a truncated stats.json that read_stats then
            # discards.
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(text)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
