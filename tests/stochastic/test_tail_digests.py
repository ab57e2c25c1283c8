"""Golden digests of what the tail path answers.

``tests/faults/test_stall_digests.py`` pins the stall draws.  These
digests pin what the Monte-Carlo kernel and the analytic estimator
make of them: the ``tail_point`` answer (Monte-Carlo summary, analytic
estimate and their agreement) at the shape of a ``serve-mix`` tail
miss, 128 trials of 600 clocks under 5% Bernoulli stalls on every
node.  The values are stable across ``PYTHONHASHSEED``.
"""

import hashlib
import json

import pytest

from repro.engine.ops import run_op
from repro.server.protocol import resolve_named_system

#: System -> sha256[:16] of the sorted-key JSON answer, per stall seed.
TAIL_DIGESTS = {
    "fig15": ("4cac526042a86568", "3e3990f44ee169c9"),
    "cofdm": ("6c8de7719980be1a", "7edd7d3c6830656f"),
    "mesh:4x4": ("478959a17a01bcf8", "b0ffa5e01853e4e5"),
    "torus:3x3": ("0967bc740631a7e3", "4bfa5088fd896706"),
}
SEEDS = (1, 2)


@pytest.mark.parametrize("name", sorted(TAIL_DIGESTS))
def test_tail_point_answers_are_pinned(name):
    text = resolve_named_system(name)
    got = []
    for seed in SEEDS:
        spec = {"kind": "bernoulli", "scope": "all", "rate": 0.05, "seed": seed}
        result, _meta = run_op(
            "tail_point", text, {"specs": [spec], "trials": 128, "clocks": 600}
        )
        assert "analytic" in result and "agreement" in result
        raw = json.dumps(result, sort_keys=True).encode()
        got.append(hashlib.sha256(raw).hexdigest()[:16])
    assert tuple(got) == TAIL_DIGESTS[name]
