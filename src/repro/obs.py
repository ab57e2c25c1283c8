"""One counter spine: thread-safe counters, per-context scopes, one renderer.

The analysis Context's per-artifact hit/miss counts, the engine's
per-op and self-healing counts, and the server's request and
resilience counts are each a :class:`Counters`: they add, snapshot,
diff and merge the same way, and render through :func:`render`.

Keys are ``/``-separated paths into the JSON document the counters are
published as (``"ops/analyze/calls"``, ``"context/cycles.miss"``,
``"tasks"``): :func:`nest` turns a flat snapshot into that document
(``/stats``, ``stats.json``) and :func:`flatten` turns one back.

:meth:`Counters.scope` attributes counts to the work that produced
them.  Inside ``with counters.scope() as mine:``, every add the current
thread (or asyncio task) makes to ``counters`` is also added to
``mine``; adds from sibling threads are not.  Scopes nest: an add goes
to the innermost scope on the same counters, and an inner scope's
counts roll up into its parent when it closes.

Stdlib only.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Mapping, Union

__all__ = ["Counters", "flatten", "nest", "render"]

Number = Union[int, float]

#: Separator of the path segments in a counter key.
SEP = "/"

#: The active scopes of the current context, outermost first, as
#: ``(watched counters, the scope's own counters)`` pairs.
_SCOPES: ContextVar[tuple[tuple["Counters", "Counters"], ...]] = ContextVar(
    "repro_obs_scopes", default=()
)


class Counters:
    """Named numeric counters, safe to add to from many threads.

    ``fields`` declares keys that always exist: they read as
    attributes (``resilience.failovers``) and appear, zero until added,
    in :meth:`as_dict`.
    """

    #: Class default, so :meth:`__getattr__` works on an instance that
    #: ``__init__`` has not run on (``copy``, unpickling).
    _fields: tuple[str, ...] = ()

    def __init__(
        self,
        values: Mapping[str, Number] | None = None,
        fields: tuple[str, ...] = (),
    ) -> None:
        self._lock = threading.Lock()
        self._values: dict[str, Number] = dict(values or {})
        self._fields = fields

    def __getattr__(self, name: str) -> Number:
        if name in self._fields:
            return self.get(name)
        raise AttributeError(name)

    def add(self, key: str, n: Number = 1) -> None:
        """Add ``n`` to ``key``."""
        with self._lock:
            self._values[key] = self._values.get(key, 0) + n
        scopes = _SCOPES.get()
        if scopes:
            self._credit(scopes, {key: n})

    def merge(self, counts: Mapping[str, Number]) -> None:
        """Add every ``key: n`` of ``counts`` (a snapshot or delta)."""
        with self._lock:
            for key, n in counts.items():
                self._values[key] = self._values.get(key, 0) + n
        scopes = _SCOPES.get()
        if scopes:
            self._credit(scopes, counts)

    def _credit(
        self,
        scopes: tuple[tuple[Counters, Counters], ...],
        counts: Mapping[str, Number],
    ) -> None:
        """Add ``counts`` to the innermost scope watching these counters."""
        for source, sink in reversed(scopes):
            if source is self:
                sink.merge(counts)
                return

    def get(self, key: str, default: Number = 0) -> Number:
        return self._values.get(key, default)

    def snapshot(self) -> dict[str, Number]:
        """An independent copy of the current counts."""
        with self._lock:
            return dict(self._values)

    def delta(self, before: Mapping[str, Number]) -> dict[str, Number]:
        """The non-zero increments since the ``before`` snapshot."""
        out: dict[str, Number] = {}
        for key, value in self.snapshot().items():
            diff = value - before.get(key, 0)
            if diff:
                out[key] = diff
        return out

    def reset(self) -> None:
        with self._lock:
            self._values.clear()

    def as_dict(self) -> dict:
        """The nested document, declared fields included."""
        return nest({**dict.fromkeys(self._fields, 0), **self.snapshot()})

    @contextmanager
    def scope(self) -> Iterator["Counters"]:
        """Also count, in the yielded :class:`Counters`, the adds this
        context makes here until the block exits (see the module
        notes)."""
        sink = Counters()
        token = _SCOPES.set(_SCOPES.get() + ((self, sink),))
        try:
            yield sink
        finally:
            _SCOPES.reset(token)
            self._credit(_SCOPES.get(), sink.snapshot())


def nest(flat: Mapping[str, Number]) -> dict:
    """``{"a/b": 1}`` -> ``{"a": {"b": 1}}``."""
    out: dict = {}
    for key, value in flat.items():
        *path, leaf = key.split(SEP)
        node = out
        for part in path:
            node = node.setdefault(part, {})
        node[leaf] = value
    return out


def flatten(doc: Mapping, prefix: str = "") -> dict[str, Number]:
    """The inverse of :func:`nest`; non-numeric leaves are dropped."""
    out: dict[str, Number] = {}
    for key, value in doc.items():
        if isinstance(value, Mapping):
            out.update(flatten(value, f"{prefix}{key}{SEP}"))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[f"{prefix}{key}"] = value
    return out


def render(doc: Mapping, titles: Mapping[str, str] | None = None) -> str:
    """The text view of a counter document.

    Non-zero top-level numbers share one line.  Every section becomes
    a table with sorted rows and columns: a section of per-name
    counter dicts (``ops``) has one column per counter; a section of
    ``"<row>.<column>"`` keys (``context``'s ``"cycles.miss"``) is
    pivoted into that shape; any other section is one ``value``
    column.  ``titles`` heads a section's name column (default: the
    section's key).
    """
    titles = titles or {}
    lines: list[str] = []
    head = [
        f"{key}: {_fmt(value)}"
        for key, value in sorted(doc.items())
        if not isinstance(value, Mapping) and value
    ]
    if head:
        lines.append("   ".join(head))
    for name, section in sorted(doc.items()):
        if isinstance(section, Mapping) and section:
            lines += _table(titles.get(name, name), _rows(section))
    return "\n".join(lines)


def _rows(section: Mapping) -> Mapping[str, Mapping[str, Number]]:
    if all(isinstance(value, Mapping) for value in section.values()):
        return section
    rows: dict[str, dict[str, Number]] = {}
    if all("." in key for key in section):
        for key, value in section.items():
            row, column = key.rsplit(".", 1)
            rows.setdefault(row, {})[column] = value
    else:
        for key, value in section.items():
            rows[key] = {"value": value}
    return rows


def _table(title: str, rows: Mapping[str, Mapping[str, Number]]) -> list[str]:
    names = sorted(rows)
    columns = sorted({column for row in rows.values() for column in row})
    cells = [[_fmt(rows[name].get(column, 0)) for column in columns] for name in names]
    first = max(len(title), *(len(name) for name in names))
    widths = [
        max(len(column), *(len(row[i]) for row in cells))
        for i, column in enumerate(columns)
    ]
    return [
        name.ljust(first) + "".join(f"  {v:>{w}}" for v, w in zip(row, widths))
        for name, row in [(title, columns), *zip(names, cells)]
    ]


def _fmt(value: Number) -> str:
    return f"{value:.3f}" if isinstance(value, float) else str(value)
