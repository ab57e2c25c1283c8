"""Golden digests of three whole CLI runs: two chaos campaigns and one
tail sweep.

The chaos campaigns run every fault-capable simulator against the
invariant harness, the ``fast`` one replaying its kernel's firings
through ``TraceSimulator.fire``; the tail run covers the Monte-Carlo
kernel and the analytic estimator.  A change anywhere on those paths
moves the sha256 of the ``--json`` output.  The digests are stable
across ``PYTHONHASHSEED``.
"""

import hashlib

import pytest

from repro.cli import main

#: CLI arguments -> sha256[:16] of everything the run prints.
DIGESTS = {
    "chaos --system fig15 --schedules 30 --seed 1 --json": "1724297b61bdf3aa",
    "chaos --system cofdm --schedules 10 --seed 3 --json": "a613c2c93abf985c",
    "tail --system fig15 --trials 64 --clocks 300 --kind burst "
    "--scope all --json": "08459e50586ac6bd",
}


@pytest.mark.parametrize("argv", sorted(DIGESTS))
def test_cli_output_is_pinned(argv, capsys):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == DIGESTS[argv]
