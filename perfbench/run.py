"""The repository benchmark: one command, three seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload sizing-dag --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/METRICS.md`` for why each was chosen):

* ``sizing-dag`` -- in-process ``size_queues`` + ``analyze`` on fresh
  Table-IV DAG-of-SCC systems (closed loop, one caller);
* ``sizing-noc`` -- in-process ``size_queues`` on fresh mesh/torus NoCs
  with relay stations (closed loop, one caller);
* ``serve-mix`` -- a ``repro serve`` process under Poisson load at
  fixed rates and a closed-loop capacity phase: four in five requests
  memo hits, the fifth a unique simulate/tail miss.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones.  The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  The program is run
from ``src/`` of the directory the command starts in; without it the
command fails before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

WORKLOADS = ("sizing-dag", "sizing-noc", "serve-mix")


def _metric_names(root: Path, trace: bool) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from the repository root",
              file=sys.stderr)
        return 2
    # Hash-seed-dependent iteration order must not change any answer
    # the digests compare, so the measuring process pins it.
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, __file__, *argv], env)
    sys.path.insert(0, str(root / "src"))

    import common

    trace = bool(args.trace)
    names = _metric_names(root, trace)
    # The host-speed probes must share the CPU with the measured work
    # (see common.SpeedGauge); launched processes, the server among
    # them, inherit it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload == "serve-mix":
        import serving

        outcome = (serving.run_traced if trace else serving.run)(
            args.seed, args.seconds, root
        )
    else:
        import sizing

        if trace:
            outcome = sizing.run_traced(args.workload, args.seed, args.seconds, root)
        else:
            setup_s = common.in_process_setup_s(root)
            outcome = sizing.run(args.workload, args.seed, args.seconds, root, setup_s)
    common.report(args.workload, outcome, names)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
