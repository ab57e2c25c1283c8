"""SystemVerilog export of a declared latency-insensitive system.

:func:`export_rtl` turns any DSL root (an ``@system`` class, a
:class:`~repro.dsl.decl.SystemDecl`, a ``SystemBuilder``, a plain
:class:`~repro.core.lis_graph.LisGraph`, or an analysis ``Context``)
into synthesizable SystemVerilog implementing the paper's protocol
hardware:

* ``lis_channel_queue`` -- the parameterized receive queue
  (``DEPTH``, ``RESET_TOKENS``, ``WIDTH``): valid when non-empty,
  stop when full, occupancy registered on the clock edge.
* ``lis_relay_station`` -- the twofold buffer (main + auxiliary
  register) as a two-deep queue that forwards while the downstream
  accepts and asserts ``stop`` upstream when both slots are occupied.
* One module per shell: a bypassable input queue per channel
  (depth ``queue + extra + 1`` -- the marked graph's initial token
  occupies the extra slot at reset), AND-firing
  (``fire = &valids & ~|stops``), and a chain of two-slot elastic
  stage queues for multi-cycle cores.  The core datapath is a
  placeholder (inputs XOR-combined; sources count) -- the protocol
  logic, not the pearl, is what the export models.
* A top module wiring shells through their relay-station chains, with
  a per-shell ``firing`` observability bus.
* A self-checking testbench asserting each shell's firing count over
  a finite horizon against golden counts from the cross-validated
  Python model.

Everything is generated from the same :class:`~repro.lis.rtl_sim.Netlist`
the structural :class:`~repro.lis.rtl_sim.RtlSimulator` executes, and
that simulator is pinned cycle-exactly against the trace simulator,
the vectorized kernel, and the analytic schedule oracle through the
differential harness -- so the emitted RTL's fire/stall schedule is
the simulators' schedule by construction, and the testbench's golden
counts are the simulator's counts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Hashable, Mapping

from ..core.lis_graph import LisGraph
from ..lis.rtl_sim import Netlist, NetQueue, RtlSimulator
from .decl import DslError, to_system_decl

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.differential import DifferentialReport

__all__ = [
    "RtlExport",
    "export_rtl",
    "crosscheck_rtl",
    "sv_identifier",
]

#: SystemVerilog keywords that shell names must not collide with
#: (the common subset; sanitized names get a ``u_`` prefix on hit).
_SV_KEYWORDS = frozenset(
    """
    always assign begin case default else end endcase endmodule enum for
    function if initial input inout int integer localparam logic module
    output parameter reg repeat string typedef while wire
    """.split()
)


def sv_identifier(name: Hashable, used: set[str] | None = None) -> str:
    """A legal, unique SystemVerilog identifier for ``name``.

    Non-identifier characters (the DSL's hierarchy dots, tuple node
    names) map to ``_``; a leading digit gets an ``n`` prefix; keyword
    collisions get a ``u_`` prefix; duplicates after sanitization get
    ``_2``, ``_3``, ... suffixes when a ``used`` set is threaded
    through.
    """
    text = re.sub(r"[^A-Za-z0-9_]+", "_", str(name)).strip("_")
    if not text:
        text = "n"
    if text[0].isdigit():
        text = f"n{text}"
    if text.lower() in _SV_KEYWORDS:
        text = f"u_{text}"
    if used is not None:
        candidate, counter = text, 1
        while candidate in used:
            counter += 1
            candidate = f"{text}_{counter}"
        used.add(candidate)
        text = candidate
    return text


@dataclass
class RtlExport:
    """The result of one SystemVerilog export.

    ``files`` maps file names to complete source texts; ``modules``
    maps each shell to its module name; ``golden`` holds the expected
    firing count per shell over ``clocks`` cycles (what the generated
    testbench asserts).
    """

    name: str
    files: dict[str, str]
    modules: dict[Hashable, str]
    golden: dict[Hashable, int]
    clocks: int
    fingerprint: str
    netlist: Netlist = field(repr=False)

    @property
    def top(self) -> str:
        """The top module name."""
        return self.name

    @property
    def testbench(self) -> str:
        """The testbench module name."""
        return f"{self.name}_tb"

    def source(self) -> str:
        """All generated files concatenated (single-file consumption)."""
        return "\n".join(self.files[name] for name in sorted(self.files))

    def write(self, directory: str | Path) -> list[Path]:
        """Write every generated file under ``directory``."""
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        paths = []
        for file_name in sorted(self.files):
            path = root / file_name
            path.write_text(self.files[file_name])
            paths.append(path)
        return paths


def _as_lis(system: object) -> LisGraph:
    """Coerce any supported root to its (frozen) :class:`LisGraph`."""
    if isinstance(system, LisGraph):
        return system.freeze() if not system.frozen else system
    inner = getattr(system, "lis", None)
    if isinstance(inner, LisGraph):  # an analysis Context
        return inner
    return to_system_decl(system).lower()


def _system_name(system: object, lis: LisGraph) -> str:
    for attribute in ("name", "__name__"):
        name = getattr(system, attribute, None)
        if isinstance(name, str) and name:
            return name
    return f"lis_{lis.fingerprint()[:8]}"


def export_rtl(
    system: object,
    name: str | None = None,
    clocks: int = 60,
    extra_tokens: dict[int, int] | None = None,
    width: int = 32,
) -> RtlExport:
    """Emit synthesizable SystemVerilog plus a self-checking testbench.

    Args:
        system: Any DSL root -- an ``@system`` class, a
            :class:`SystemDecl`, a ``SystemBuilder``, a ``LisGraph``,
            or an analysis ``Context``.
        name: Top module name (default: the system's declared name,
            sanitized).
        clocks: Finite horizon of the generated testbench; the golden
            firing counts cover exactly this many clock periods after
            reset.
        extra_tokens: Optional queue-sizing solution; deepens the
            consumer shells' input queues, exactly as in the
            simulators.
        width: Data-path width in bits of every channel.
    """
    if clocks < 1:
        raise DslError(f"testbench horizon must be >= 1 clock, got {clocks}")
    if width < 1:
        raise DslError(f"channel width must be >= 1 bit, got {width}")
    lis = _as_lis(system)
    top = sv_identifier(name if name is not None else _system_name(system, lis))
    reference = RtlSimulator(lis, extra_tokens=extra_tokens)
    reference.run(clocks)
    netlist = reference.netlist

    shells = lis.shells()
    used: set[str] = {top, f"{top}_tb", "lis_channel_queue", "lis_relay_station"}
    shell_ids = {shell: sv_identifier(shell, used) for shell in shells}
    modules = {shell: f"{top}_{shell_ids[shell]}" for shell in shells}

    counts = reference.firing_counts()
    golden = {shell: counts[shell] for shell in shells}

    emitter = _Emitter(
        lis=lis,
        netlist=netlist,
        top=top,
        shell_ids=shell_ids,
        modules=modules,
        golden=golden,
        clocks=clocks,
        width=width,
    )
    files = {
        f"{top}.sv": emitter.design(),
        f"{top}_tb.sv": emitter.testbench(),
    }
    return RtlExport(
        name=top,
        files=files,
        modules=modules,
        golden=golden,
        clocks=clocks,
        fingerprint=lis.fingerprint(),
        netlist=netlist,
    )


def crosscheck_rtl(
    system: object,
    clocks: int = 60,
    extra_tokens: dict[int, int] | None = None,
    probe: Hashable | None = None,
    check_schedule: bool = True,
) -> "DifferentialReport":
    """Pin the RTL model cycle-exactly against the simulator stack.

    Runs the differential harness: ``RtlSimulator`` -- the executable
    model of the emitted SystemVerilog, over the same netlist -- must
    agree with ``TraceSimulator``, the vectorized kernel, and (by
    default) the analytic schedule oracle on firing patterns,
    throughput, and peak queue occupancy.
    """
    from ..sim.differential import differential_check

    return differential_check(
        _as_lis(system),
        clocks=clocks,
        extra_tokens=extra_tokens,
        probe=probe,
        check_schedule=check_schedule,
    )


# ----------------------------------------------------------------------
# Emission
# ----------------------------------------------------------------------

_QUEUE_MODULE = """\
// One LIS receive queue: valid when non-empty, stop when full.
// RESET_TOKENS pre-loads the queue at reset -- a shell's input queue
// holds the marked graph's initial token (the data the shell
// transfers in the first clock period is already latched).
module lis_channel_queue #(
  parameter int DEPTH = 2,
  parameter int RESET_TOKENS = 0,
  parameter int WIDTH = 32
) (
  input  logic             clk,
  input  logic             rst,
  input  logic             push,
  input  logic [WIDTH-1:0] din,
  input  logic             pop,
  output logic [WIDTH-1:0] dout,
  output logic             valid,
  output logic             stop
);
  localparam int PTR = (DEPTH <= 1) ? 1 : $clog2(DEPTH);
  localparam int CNT = $clog2(DEPTH + 1);
  logic [WIDTH-1:0] mem [0:DEPTH-1];
  logic [PTR-1:0] rd_ptr, wr_ptr;
  logic [CNT-1:0] count;

  assign valid = (count != '0);
  assign stop  = (count == CNT'(DEPTH));
  assign dout  = mem[rd_ptr];

  always_ff @(posedge clk) begin
    if (rst) begin
      rd_ptr <= '0;
      wr_ptr <= PTR'(RESET_TOKENS % DEPTH);
      count  <= CNT'(RESET_TOKENS);
      for (int i = 0; i < DEPTH; i++) mem[i] <= '0;
    end else begin
      if (push) begin
        mem[wr_ptr] <= din;
        wr_ptr <= (wr_ptr == PTR'(DEPTH - 1)) ? '0 : wr_ptr + 1'b1;
      end
      if (pop) begin
        rd_ptr <= (rd_ptr == PTR'(DEPTH - 1)) ? '0 : rd_ptr + 1'b1;
      end
      count <= count + (push ? CNT'(1) : '0) - (pop ? CNT'(1) : '0);
    end
  end

  // synthesis translate_off
  always_ff @(posedge clk) begin
    if (!rst) begin
      assert (!(push && stop))
        else $fatal(1, "lis_channel_queue: push while full");
      assert (!(pop && !valid))
        else $fatal(1, "lis_channel_queue: pop while empty");
    end
  end
  // synthesis translate_on
endmodule
"""

_RELAY_MODULE = """\
// The relay station: main + auxiliary register on a wire segment.
// Forwards one item per cycle while the downstream accepts, absorbs
// one extra in-flight item when stopped, asserts stop upstream when
// both registers are occupied.  Resets to void (empty).
module lis_relay_station #(
  parameter int WIDTH = 32
) (
  input  logic             clk,
  input  logic             rst,
  input  logic             in_valid,
  output logic             in_stop,
  input  logic [WIDTH-1:0] in_data,
  output logic             out_valid,
  input  logic             out_stop,
  output logic [WIDTH-1:0] out_data,
  output logic             firing
);
  logic buf_valid;
  lis_channel_queue #(
    .DEPTH(2), .RESET_TOKENS(0), .WIDTH(WIDTH)
  ) buf_q (
    .clk(clk), .rst(rst),
    .push(in_valid), .din(in_data),
    .pop(firing), .dout(out_data),
    .valid(buf_valid), .stop(in_stop)
  );
  assign firing    = buf_valid & ~out_stop;
  assign out_valid = firing;
endmodule
"""


def _reduce(op: str, terms: list[str], empty: str) -> str:
    """``a & b & c`` / ``a | b | c`` with a literal for the empty case."""
    if not terms:
        return empty
    if len(terms) == 1:
        return terms[0]
    return " ".join(f"{op} {t}" if i else t for i, t in enumerate(terms))


@dataclass
class _Emitter:
    """Stateful SystemVerilog text generation for one export."""

    lis: LisGraph
    netlist: Netlist
    top: str
    shell_ids: Mapping[Hashable, str]
    modules: Mapping[Hashable, str]
    golden: Mapping[Hashable, int]
    clocks: int
    width: int

    def _in_queues(self, shell: Hashable) -> list[NetQueue]:
        """The receive queue of each input channel of ``shell``, in
        channel-id order (the netlist's order); its depth includes
        extra tokens and the reset slot."""
        return [
            q for q in self.netlist.queues if q.final and q.consumer == shell
        ]

    def _stage_queues(self, shell: Hashable) -> list[NetQueue]:
        """The elastic stage queues inside ``shell``'s core, in
        pipeline order (none for a single-cycle core)."""
        chain: list[NetQueue] = []
        node = self.netlist.node(shell)
        while node.outputs:
            queue = self.netlist.queues[node.outputs[0]]
            if queue.channel is not None:
                break  # the core's output channels
            chain.append(queue)
            node = self.netlist.node(queue.consumer)
        return chain

    def _out_channels(self, shell: Hashable) -> list[int]:
        return sorted(e.key for e in self.lis.system.out_edges(shell))

    # ------------------------------------------------------------------
    def design(self) -> str:
        parts = [self._header(), _QUEUE_MODULE, _RELAY_MODULE]
        for shell in self.lis.shells():
            parts.append(self._shell_module(shell))
        parts.append(self._top_module())
        return "\n".join(parts)

    def _header(self) -> str:
        lines = [
            f"// {self.top}.sv -- generated by repro.dsl.rtl",
            f"// system fingerprint: {self.lis.fingerprint()}",
            "// shell -> module map:",
        ]
        for shell in self.lis.shells():
            lines.append(f"//   {shell!r} -> {self.modules[shell]}")
        lines.append("")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def _shell_module(self, shell: Hashable) -> str:
        ins = self._in_queues(shell)
        outs = self._out_channels(shell)
        stages = self._stage_queues(shell)
        w = "WIDTH-1:0"

        ports = ["  input  logic clk,", "  input  logic rst,",
                 "  output logic firing,"]
        for q in ins:
            cid = q.channel
            ports += [
                f"  input  logic in{cid}_valid,",
                f"  output logic in{cid}_stop,",
                f"  input  logic [{w}] in{cid}_data,",
            ]
        for cid in outs:
            ports += [
                f"  output logic out{cid}_valid,",
                f"  input  logic out{cid}_stop,",
                f"  output logic [{w}] out{cid}_data,",
            ]
        ports[-1] = ports[-1].rstrip(",")

        body: list[str] = []
        # Input queues (the shell's bypassable receive queues).
        for q in ins:
            cid = q.channel
            body += [
                f"  logic in{cid}_q_valid;",
                f"  logic [{w}] in{cid}_q_data;",
                "  lis_channel_queue #(",
                f"    .DEPTH({q.capacity}), .RESET_TOKENS({q.reset_tokens}), "
                ".WIDTH(WIDTH)",
                f"  ) in{cid}_q (",
                "    .clk(clk), .rst(rst),",
                f"    .push(in{cid}_valid), .din(in{cid}_data),",
                f"    .pop(firing), .dout(in{cid}_q_data),",
                f"    .valid(in{cid}_q_valid), .stop(in{cid}_stop)",
                "  );",
            ]

        valids = _reduce("&", [f"in{q.channel}_q_valid" for q in ins], "1'b1")
        out_free = _reduce(
            "&", [f"~out{cid}_stop" for cid in outs], "1'b1"
        )

        # Placeholder core datapath: XOR-combine inputs; sources count.
        if ins:
            data = _reduce("^", [f"in{q.channel}_q_data" for q in ins], "'0")
            body += [f"  logic [{w}] core_data;",
                     f"  assign core_data = {data};"]
        else:
            body += [
                f"  logic [{w}] core_data;",
                "  always_ff @(posedge clk) begin",
                "    if (rst) core_data <= '0;",
                "    else if (firing) core_data <= core_data + 1'b1;",
                "  end",
            ]

        if not stages:
            # Single-cycle core: AND-firing straight to the outputs.
            body += [f"  assign firing = {valids} & ({out_free});"]
            tail_fire, tail_data = "firing", "core_data"
        else:
            # Multi-cycle core: a chain of two-slot elastic stage
            # queues, one per internal pipeline stage.  All stage
            # signals are declared up front so every assign only
            # references already-declared names.
            for i in range(len(stages)):
                body += [
                    f"  logic s{i}_valid, s{i}_stop, s{i}_fire;",
                    f"  logic [{w}] s{i}_dout;",
                ]
            body += [f"  assign firing = {valids} & ~s0_stop;"]
            for i, q in enumerate(stages):
                push = "firing" if i == 0 else f"s{i - 1}_fire"
                din = "core_data" if i == 0 else f"s{i - 1}_dout"
                last = i == len(stages) - 1
                ready = out_free if last else f"~s{i + 1}_stop"
                body += [
                    "  lis_channel_queue #(",
                    f"    .DEPTH({q.capacity}), .RESET_TOKENS({q.reset_tokens}), "
                    ".WIDTH(WIDTH)",
                    f"  ) s{i}_q (",
                    "    .clk(clk), .rst(rst),",
                    f"    .push({push}), .din({din}),",
                    f"    .pop(s{i}_fire), .dout(s{i}_dout),",
                    f"    .valid(s{i}_valid), .stop(s{i}_stop)",
                    "  );",
                    f"  assign s{i}_fire = s{i}_valid & ({ready});",
                ]
            tail_fire, tail_data = (
                f"s{len(stages) - 1}_fire",
                f"s{len(stages) - 1}_dout",
            )

        for cid in outs:
            body += [
                f"  assign out{cid}_valid = {tail_fire};",
                f"  assign out{cid}_data  = {tail_data};",
            ]

        return "\n".join(
            [
                f"// shell {shell!r}: latency {len(stages) + 1}, "
                f"inputs {[q.channel for q in ins]}, outputs {outs}",
                f"module {self.modules[shell]} #(",
                "  parameter int WIDTH = 32",
                ") (",
                *ports,
                ");",
                *body,
                "endmodule",
                "",
            ]
        )

    # ------------------------------------------------------------------
    def _top_module(self) -> str:
        shells = self.lis.shells()
        ns = len(shells)
        w = f"{self.width - 1}:0"

        lines = [
            f"// top: {ns} shells, {len(list(self.lis.channels()))} channels",
            f"module {self.top} (",
            "  input  logic clk,",
            "  input  logic rst,",
            f"  output logic [{ns - 1}:0] firing",
            ");",
        ]
        for index, shell in enumerate(shells):
            lines.append(f"  // firing[{index}] = shell {shell!r}")

        # One wire bundle per channel hop.
        queues = self.netlist.queues
        for q in queues:
            if q.channel is None:
                continue  # stage queues live inside the shell modules
            cid, hop = q.channel, q.hop
            lines += [
                f"  logic ch{cid}_h{hop}_valid, ch{cid}_h{hop}_stop;",
                f"  logic [{w}] ch{cid}_h{hop}_data;",
            ]

        # Relay stations along each channel.
        for node in self.netlist.nodes:
            if node.kind == "relay":
                into = queues[node.inputs[0]]
                cid, i = into.channel, into.hop
                lines += [
                    f"  lis_relay_station #(.WIDTH({self.width})) "
                    f"rs_{cid}_{i} (",
                    "    .clk(clk), .rst(rst),",
                    f"    .in_valid(ch{cid}_h{i}_valid), "
                    f".in_stop(ch{cid}_h{i}_stop), "
                    f".in_data(ch{cid}_h{i}_data),",
                    f"    .out_valid(ch{cid}_h{i + 1}_valid), "
                    f".out_stop(ch{cid}_h{i + 1}_stop), "
                    f".out_data(ch{cid}_h{i + 1}_data),",
                    "    .firing()",
                    "  );",
                ]

        # Shell instances: outputs drive hop 0, inputs read the last hop.
        for index, shell in enumerate(shells):
            conns = [".clk(clk)", ".rst(rst)", f".firing(firing[{index}])"]
            for q in self._in_queues(shell):
                cid, last = q.channel, q.hop
                conns += [
                    f".in{cid}_valid(ch{cid}_h{last}_valid)",
                    f".in{cid}_stop(ch{cid}_h{last}_stop)",
                    f".in{cid}_data(ch{cid}_h{last}_data)",
                ]
            for cid in self._out_channels(shell):
                conns += [
                    f".out{cid}_valid(ch{cid}_h0_valid)",
                    f".out{cid}_stop(ch{cid}_h0_stop)",
                    f".out{cid}_data(ch{cid}_h0_data)",
                ]
            lines += [
                f"  {self.modules[shell]} #(.WIDTH({self.width})) "
                f"u_{self.shell_ids[shell]} (",
                "    " + ",\n    ".join(conns),
                "  );",
            ]

        lines += ["endmodule", ""]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def testbench(self) -> str:
        shells = self.lis.shells()
        ns = len(shells)
        golden = ", ".join(str(self.golden[s]) for s in shells)
        names = ", ".join(f'"{self.shell_ids[s]}"' for s in shells)
        return "\n".join(
            [
                f"// {self.top}_tb.sv -- generated by repro.dsl.rtl",
                "// Self-checking finite-horizon testbench: per-shell",
                "// firing counts must equal the golden counts from the",
                "// cross-validated Python model (simulators + analytic",
                "// schedule oracle agree on these cycle-exactly).",
                "`timescale 1ns/1ps",
                f"module {self.top}_tb;",
                f"  localparam int CLOCKS = {self.clocks};",
                f"  localparam int NS = {ns};",
                f"  localparam int GOLDEN [0:NS-1] = '{{{golden}}};",
                f"  localparam string NAMES [0:NS-1] = '{{{names}}};",
                "  logic clk = 1'b0;",
                "  logic rst = 1'b1;",
                "  logic [NS-1:0] firing;",
                "  int counts [0:NS-1];",
                "  int errors;",
                "",
                f"  {self.top} dut (.clk(clk), .rst(rst), .firing(firing));",
                "",
                "  always #5 clk = ~clk;",
                "",
                "  initial begin",
                "    errors = 0;",
                "    for (int i = 0; i < NS; i++) counts[i] = 0;",
                "    @(posedge clk);  // registers load their reset state",
                "    @(negedge clk);",
                "    rst = 1'b0;",
                "    // Sample the combinational firing vector once per",
                "    // clock period, mid-cycle (registered-stop protocol:",
                "    // all fire decisions are functions of start-of-cycle",
                "    // state, so the vector is stable by the negedge).",
                "    repeat (CLOCKS) begin",
                "      #1;",
                "      for (int i = 0; i < NS; i++)",
                "        if (firing[i]) counts[i]++;",
                "      @(negedge clk);",
                "    end",
                "    for (int i = 0; i < NS; i++) begin",
                "      if (counts[i] !== GOLDEN[i]) begin",
                "        errors++;",
                '        $display("FAIL shell %s: %0d firings in %0d'
                ' clocks, expected %0d",',
                "                 NAMES[i], counts[i], CLOCKS, GOLDEN[i]);",
                "      end",
                "    end",
                "    if (errors == 0)",
                '      $display("PASS: all %0d shells match golden firing'
                ' counts over %0d clocks", NS, CLOCKS);',
                "    else",
                '      $fatal(1, "%0d shells diverged from the golden'
                ' firing counts", errors);',
                "    $finish;",
                "  end",
                "endmodule",
                "",
            ]
        )
