"""Run ``repro serve`` with the per-layer tracer installed.

Usage (arguments after the spans file go to ``repro serve``)::

    python3 perfbench/serve_traced.py SPANS.json --port 0 ...

``SIGUSR1`` zeroes the counters (sent after warm-up); on shutdown
(``SIGINT``) the totals are written to ``SPANS.json``.
"""

from __future__ import annotations

import json
import signal
import sys

from spans import Tracer


def main(argv: list[str]) -> int:
    out, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.reset())
    from repro.cli import main as repro_main

    try:
        code = repro_main(["serve", *serve_args])
    finally:
        tracer.uninstall()
        with open(out, "w") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
