"""JSON (de)serialization of LIS descriptions.

The on-disk format is a small, hand-editable JSON document::

    {
      "default_queue": 1,
      "shells": {"A": {"latency": 1}, "B": {}},
      "channels": [
        {"src": "A", "dst": "B", "queue": 1, "relays": 1},
        {"src": "A", "dst": "B"}
      ]
    }

Channel order is preserved, so channel ids of a loaded system are the
indices into the ``channels`` array -- which makes queue-sizing
solutions stable across save/load round trips.  Shell names are
strings in this format.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path

from .lis_graph import LisGraph

__all__ = [
    "lis_to_json",
    "lis_from_json",
    "lis_fingerprint",
    "save_lis",
    "load_lis",
]


def lis_fingerprint(text: str) -> str:
    """SHA-256 hex digest of a canonical-JSON LIS document.

    ``LisGraph.fingerprint()`` and the analysis-engine cache key both
    hash the output of :func:`lis_to_json` through this function, so a
    Context fingerprint and the engine's content key agree on identity.
    """
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _number(value) -> str:
    """JSON text of a count, as :func:`json.dumps` writes it."""
    return str(value) if type(value) is int else json.dumps(value)


def _write(lis: LisGraph) -> str:
    """The ``json.dumps(doc, indent=2)`` text of ``lis``'s document,
    written directly: the standard library's C encoder only serves
    compact output, and its indenting encoder runs in pure Python.
    Strings go through the encoder ``json.dumps`` applies to them."""
    # Shell entries are keyed by the encoded name, as json.dumps keys
    # the document's dict: names that stringify alike keep the first
    # position and the last entry.
    names: dict = {}
    shells: dict[str, str] = {}
    for shell in lis.shells():
        name = names[shell] = _string(str(shell))
        latency = lis.latency(shell)
        shells[name] = (
            "{}"
            if latency == 1
            else f'{{\n      "latency": {_number(latency)}\n    }}'
        )
    default = lis.default_queue
    channels = []
    for channel in lis.channels():
        data = channel.data
        entry = (
            f'    {{\n      "src": {names[channel.src]},'
            f'\n      "dst": {names[channel.dst]}'
        )
        if data["queue"] != default:
            entry += f',\n      "queue": {_number(data["queue"])}'
        if data["relays"]:
            entry += f',\n      "relays": {_number(data["relays"])}'
        channels.append(entry + "\n    }")
    shell_text = (
        "{\n"
        + ",\n".join(f"    {name}: {entry}" for name, entry in shells.items())
        + "\n  }"
        if shells
        else "{}"
    )
    channel_text = "[\n" + ",\n".join(channels) + "\n  ]" if channels else "[]"
    return (
        f'{{\n  "default_queue": {_number(default)},'
        f'\n  "shells": {shell_text},'
        f'\n  "channels": {channel_text}\n}}'
    )


def lis_to_json(lis: LisGraph) -> str:
    """Serialize ``lis`` to the JSON document format (stable order).

    The text is byte for byte what ``json.dumps(doc, indent=2)`` makes
    of the document in the module docstring (omitting latency 1, the
    default queue and zero relays), so fingerprints and engine cache
    keys are stable.  A frozen graph computes it once.
    """
    if isinstance(lis, LisGraph):
        return lis.memo("json", lambda: _write(lis))
    return _write(lis)


def lis_from_json(text: str) -> LisGraph:
    """Parse the document format produced by :func:`lis_to_json`.

    Shells mentioned only in ``channels`` are created implicitly with
    latency 1.  Channel ids are assigned in array order starting at 0.
    """
    doc = json.loads(text)
    lis = LisGraph(default_queue=int(doc.get("default_queue", 1)))
    for name, attrs in doc.get("shells", {}).items():
        lis.add_shell(name, latency=int(attrs.get("latency", 1)))
    for entry in doc.get("channels", []):
        lis.add_channel(
            entry["src"],
            entry["dst"],
            queue=entry.get("queue"),
            relays=int(entry.get("relays", 0)),
        )
    return lis


def save_lis(lis: LisGraph, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(lis_to_json(lis) + "\n")
    return path


def load_lis(path: str | Path) -> LisGraph:
    return lis_from_json(Path(path).read_text())
