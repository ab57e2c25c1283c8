"""Sample the speed of the CPU this process runs on, until terminated.

Usage::

    python3 perfbench/prober.py

Every :data:`INTERVAL_S` seconds it times ``common.probe`` by this
thread's CPU time and prints ``<perf_counter> <slowdown>``, the
slowdown being the probe's time over the reference host's.  CPU time
grows with the CPU's speed state as wall time does, but not with the
time this process waits for the CPU, so the samples stay true while
the server shares the CPU.
"""

from __future__ import annotations

import time

from common import REFERENCE_PROBE_S, probe

INTERVAL_S = 0.1


def main() -> None:
    while True:
        t0 = time.perf_counter()
        seconds = probe(time.thread_time)
        print(f"{t0:.6f} {seconds / REFERENCE_PROBE_S:.5f}", flush=True)
        time.sleep(INTERVAL_S)


if __name__ == "__main__":
    main()
