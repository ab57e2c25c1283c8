"""Pinned answers of the engine ops that choose a measurement backend
or a sizing path.

Each answer is rendered the way the server sends it
(:func:`repro.server.protocol.jsonify`), with its wall-clock
``*elapsed`` fields dropped, as sorted-key JSON; the test holds the
first 16 hex digits of its sha256.  The systems are serve-mix's hot
ones (fig15, cofdm, ``mesh:3x3``) and a two-component LIS, on which
``schedule`` falls back to ``fast``.  A changed digest is a changed
answer, not a test to update.
"""

import hashlib
import json

import pytest

from repro.core.serialize import lis_to_json
from repro.engine.ops import run_op
from repro.gen import named_system
from repro.server.protocol import jsonify
from tests.lis.test_backends import disconnected_lis

SYSTEMS = {
    "fig15": lambda: named_system("fig15"),
    "cofdm": lambda: named_system("cofdm"),
    "mesh:3x3": lambda: named_system("mesh:3x3"),
    "two-components": disconnected_lis,
}

ASSIGNMENTS = [{}, {"1": 1}]

#: label -> (op, options)
OPS = {
    "analyze": ("analyze", {}),
    "size_queues-heuristic": ("size_queues", {"method": "heuristic"}),
    "size_queues-exact": ("size_queues", {"method": "exact"}),
    "measure-default": ("measure", {}),
    "measure-fast": ("measure", {"backend": "fast"}),
    "measure-trace": ("measure", {"backend": "trace"}),
    "simulate_batch-fast": (
        "simulate_batch",
        {"assignments": ASSIGNMENTS, "clocks": 300, "backend": "fast"},
    ),
    "simulate_batch-schedule": (
        "simulate_batch",
        {"assignments": ASSIGNMENTS, "backend": "schedule"},
    ),
    "mst_sweep-schedule": (
        "mst_sweep",
        {"method": "schedule", "queues": [1, 2]},
    ),
}

DIGESTS = {
    "cofdm/analyze": "da86c14136578d30",
    "cofdm/measure-default": "ab05c26646e8aba0",
    "cofdm/measure-fast": "cda5b39a0c6b976d",
    "cofdm/measure-trace": "599a29ba571014ef",
    "cofdm/mst_sweep-schedule": "ac88871808895fd0",
    "cofdm/simulate_batch-fast": "e9697d06c86ffc06",
    "cofdm/simulate_batch-schedule": "e9697d06c86ffc06",
    "cofdm/size_queues-exact": "81609b40b20c41b5",
    "cofdm/size_queues-heuristic": "072bd3d541c90b36",
    "fig15/analyze": "a1cd5eb8f99ae9ef",
    "fig15/measure-default": "60d6cd97bcf2d951",
    "fig15/measure-fast": "dcea3106623245a5",
    "fig15/measure-trace": "9fe500877f5b8f23",
    "fig15/mst_sweep-schedule": "2f53595db19d27d0",
    "fig15/simulate_batch-fast": "42f49f91ab781886",
    "fig15/simulate_batch-schedule": "42f49f91ab781886",
    "fig15/size_queues-exact": "bcf1ed1acf85c66e",
    "fig15/size_queues-heuristic": "d46f96195ca4daea",
    "mesh:3x3/analyze": "bb0c0ee8e3711c99",
    "mesh:3x3/measure-default": "16909127f5a448a1",
    "mesh:3x3/measure-fast": "c438e466e220bd06",
    "mesh:3x3/measure-trace": "a11a3e72ecf9746c",
    "mesh:3x3/mst_sweep-schedule": "ac88871808895fd0",
    "mesh:3x3/simulate_batch-fast": "dc795107d162b93c",
    "mesh:3x3/simulate_batch-schedule": "dc795107d162b93c",
    "mesh:3x3/size_queues-exact": "81609b40b20c41b5",
    "mesh:3x3/size_queues-heuristic": "072bd3d541c90b36",
    "two-components/analyze": "42f8513284b4e1d4",
    "two-components/measure-default": "756e4a410f310a1c",
    "two-components/measure-fast": "756e4a410f310a1c",
    "two-components/measure-trace": "2363daca4774b0c6",
    "two-components/mst_sweep-schedule": "d66edea49ed1e1cf",
    "two-components/simulate_batch-fast": "d831c3b0af79be61",
    "two-components/simulate_batch-schedule": "f14f0cebbbaad34b",
    "two-components/size_queues-exact": "649e5f6bfcbe86f2",
    "two-components/size_queues-heuristic": "48d3c8db7738cad2",
}


def drop_elapsed(value):
    if isinstance(value, dict):
        return {
            k: drop_elapsed(v)
            for k, v in value.items()
            if not k.endswith("elapsed")
        }
    if isinstance(value, list):
        return [drop_elapsed(v) for v in value]
    return value


def answer_digest(system: str, label: str) -> str:
    op, options = OPS[label]
    result, _meta = run_op(op, lis_to_json(SYSTEMS[system]()), options)
    text = json.dumps(drop_elapsed(jsonify(result)), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_every_system_and_op_is_pinned():
    assert set(DIGESTS) == {f"{s}/{o}" for s in SYSTEMS for o in OPS}


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_op_answer_is_unchanged(key):
    system, label = key.split("/")
    assert answer_digest(system, label) == DIGESTS[key]
