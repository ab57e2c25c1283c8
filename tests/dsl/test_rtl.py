"""The SystemVerilog exporter: identifier sanitization, export
structure, golden firing counts, and the cycle-exact cross-check."""

import hashlib

import pytest

from repro.core import LisGraph
from repro.dsl import (
    CORPUS,
    DslError,
    corpus_system,
    crosscheck_rtl,
    export_rtl,
    sv_identifier,
)


class TestSvIdentifier:
    def test_plain_names_pass_through(self):
        assert sv_identifier("fft_in") == "fft_in"

    def test_dots_and_dashes_become_underscores(self):
        assert sv_identifier("mem.ctrl") == "mem_ctrl"
        assert sv_identifier("tx-filter") == "tx_filter"

    def test_leading_digit_is_prefixed(self):
        assert sv_identifier("3stage").startswith("n")

    def test_keywords_are_prefixed(self):
        assert sv_identifier("module") == "u_module"
        assert sv_identifier("always") == "u_always"

    def test_collisions_are_deduped(self):
        used = set()
        first = sv_identifier("a.b", used)
        second = sv_identifier("a_b", used)
        assert first != second
        assert len({first, second}) == 2


class TestExportRtl:
    def test_export_structure(self):
        export = export_rtl(corpus_system("fig15"), clocks=80)
        assert set(export.files) == {"Fig15.sv", "Fig15_tb.sv"}
        assert export.top == "Fig15"
        assert export.clocks == 80
        assert len(export.fingerprint) == 64
        assert set(export.modules) == {"A", "B", "C", "D", "E"}

    def test_golden_counts_come_from_the_netlist_model(self):
        export = export_rtl(corpus_system("fig15"), clocks=80)
        # fig15 sustains 3/4 after warmup; exact counts are pinned.
        assert export.golden["A"] == 60

    def test_design_contains_all_modules(self):
        export = export_rtl(corpus_system("fig15"), clocks=80)
        design = export.files["Fig15.sv"]
        assert "module lis_channel_queue" in design
        assert "module lis_relay_station" in design
        for module in export.modules.values():
            assert f"module {module}" in design
        assert "module Fig15" in design

    def test_testbench_embeds_golden_counts(self):
        export = export_rtl(corpus_system("fig1"), clocks=40)
        assert export.testbench == "Fig1_tb"
        tb = export.files["Fig1_tb.sv"]
        assert "$fatal" in tb and "GOLDEN" in tb
        for count in export.golden.values():
            assert str(count) in tb

    def test_dotted_names_are_sanitized(self):
        from repro.dsl import Channel, Port, shell, system

        @shell
        class Core:
            din = Port.input()
            dout = Port.output()

        @system
        class Pair:
            left = Core()
            right = Core()
            ch = Channel(left, right)

        @system
        class Nested:
            p = Pair()
            q = Pair()
            link = Channel(p.right, q.left)
            back = Channel(q.right, p.left)

        export = export_rtl(Nested, clocks=40)
        assert "p.left" in export.golden  # dotted in the model...
        code = "\n".join(  # ...sanitized in the SV (comments may map them)
            line.split("//", 1)[0] for line in export.source().splitlines()
        )
        assert "p.left" not in code
        assert "p_left" in code

    def test_write_creates_files(self, tmp_path):
        export = export_rtl(corpus_system("fig1"), clocks=40)
        paths = export.write(tmp_path / "rtl")
        assert sorted(p.name for p in paths) == ["Fig1.sv", "Fig1_tb.sv"]
        for path in paths:
            assert path.read_text() == export.files[path.name]

    def test_accepts_raw_lis_graphs(self):
        lis = LisGraph()
        lis.add_channel("A", "B")
        export = export_rtl(lis, name="AB", clocks=20)
        assert export.top == "AB"

    def test_invalid_parameters_rejected(self):
        with pytest.raises((DslError, ValueError)):
            export_rtl(corpus_system("fig1"), clocks=0)
        with pytest.raises((DslError, ValueError)):
            export_rtl(corpus_system("fig1"), width=0)


#: sha256 prefix of ``export_rtl(corpus_system(name), clocks=120).source()``
#: and the sum of its golden firing counts, per corpus system.  Pinned
#: so that any change to the structural model, its simulator, or the
#: emitter shows up as a digest or count difference.
EXPORT_GOLDEN = {
    "cofdm": ("b42c0fa7d534bf5f", 1440),
    "cofdm_fig19": ("30ae78cfcf00f90a", 960),
    "elastic_pipeline": ("7542b1e15e5066f8", 360),
    "fig1": ("00b59263ccbd1133", 160),
    "fig15": ("c6690a8881d6f9be", 450),
    "fig2_right": ("4b78a83fab40dc83", 239),
    "mesh3x3": ("9e3a93734aab50b7", 1080),
    "ring8": ("9124b42a65158ea2", 768),
    "torus4x4": ("e91d29eabe253c8f", 1920),
    "uplink_downlink": ("1a85f54a47b7e5b6", 402),
}


def test_export_golden_covers_the_corpus():
    assert set(EXPORT_GOLDEN) == set(CORPUS)


@pytest.mark.parametrize("name", sorted(EXPORT_GOLDEN))
def test_export_is_pinned(name):
    export = export_rtl(corpus_system(name), clocks=120)
    digest = hashlib.sha256(export.source().encode()).hexdigest()[:16]
    assert (digest, sum(export.golden.values())) == EXPORT_GOLDEN[name]


class TestCrosscheck:
    @pytest.mark.parametrize("name", ["fig1", "fig15", "elastic_pipeline"])
    def test_corpus_systems_crosscheck_clean(self, name):
        report = crosscheck_rtl(corpus_system(name), clocks=100)
        assert report.agreed, report.failures
        assert set(report.throughput) == {"fast", "rtl", "schedule", "trace"}

    def test_extra_tokens_flow_through(self):
        base = crosscheck_rtl(corpus_system("fig15"), clocks=100)
        fixed = crosscheck_rtl(
            corpus_system("fig15"), clocks=100, extra_tokens={5: 1, 6: 1}
        )
        assert base.agreed and fixed.agreed
        # The queue fix strictly improves measured throughput.
        assert fixed.throughput["rtl"] > base.throughput["rtl"]
