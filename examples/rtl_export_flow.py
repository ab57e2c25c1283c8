"""From declaration to SystemVerilog: the repro.dsl.rtl export flow.

Takes a corpus system, pins its RTL model cycle-exactly against the
whole simulator stack (the differential harness: the structural RTL
simulator, which runs the very netlist the exporter emits, against
the trace simulator, the vectorized kernel and the analytic schedule
oracle), then emits synthesizable SystemVerilog plus a self-checking
testbench whose golden firing counts come from that cross-validated
model.

Equivalent CLI::

    repro export-rtl elastic_pipeline -o build/rtl --check --clocks 120

Run directly: ``PYTHONPATH=src python examples/rtl_export_flow.py``
"""

import tempfile
from pathlib import Path

from repro.dsl import corpus_system, crosscheck_rtl, export_rtl


def main() -> None:
    system = corpus_system("elastic_pipeline")
    print(f"system: {system.name} "
          f"({len(system.shells)} shells, {len(system.channels)} channels)")

    # 1. Cycle-exact cross-check: the structural model of the emitted
    #    RTL must agree with every other voice on firing patterns,
    #    throughput, and peak queue occupancy.
    report = crosscheck_rtl(system, clocks=120)
    assert report.agreed, report.failures
    print(f"crosscheck: PASS, throughput at {report.probe!r}:")
    for backend, rate in sorted(report.throughput.items()):
        print(f"  {backend:10} {rate}")

    # 2. Emit the SystemVerilog and its testbench.
    export = export_rtl(system, clocks=120)
    with tempfile.TemporaryDirectory() as tmp:
        for path in export.write(Path(tmp) / "rtl"):
            print(f"wrote {path.name}: {len(path.read_text())} bytes")
    print(f"top module: {export.top}")
    print("golden firing counts (testbench asserts these):")
    for shell_name, count in export.golden.items():
        print(f"  {shell_name:10} {count:4} / {export.clocks} clocks")


if __name__ == "__main__":
    main()
