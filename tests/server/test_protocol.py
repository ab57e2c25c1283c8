"""Request validation: JSON-RPC methods -> engine jobs."""

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import pytest

from repro.core.serialize import lis_to_json
from repro.gen import examples
from repro.server.protocol import (
    INVALID_PARAMS,
    METHOD_NOT_FOUND,
    METHODS,
    RpcError,
    jsonify,
    parse_job,
    resolve_named_system,
)


class TestParseJob:
    def test_unknown_method(self):
        with pytest.raises(RpcError) as excinfo:
            parse_job("frobnicate", {"system": "fig1"})
        assert excinfo.value.code == METHOD_NOT_FOUND
        # The message teaches the caller what exists.
        assert "analyze" in excinfo.value.message

    def test_exactly_one_system_source(self):
        for params in ({}, {"system": "fig1", "lis": "{}"}):
            with pytest.raises(RpcError) as excinfo:
                parse_job("analyze", params)
            assert excinfo.value.code == INVALID_PARAMS

    def test_params_must_be_object(self):
        with pytest.raises(RpcError) as excinfo:
            parse_job("analyze", [1, 2])
        assert excinfo.value.code == INVALID_PARAMS

    def test_unknown_option_rejected(self):
        with pytest.raises(RpcError) as excinfo:
            parse_job(
                "analyze",
                {"system": "fig1", "options": {"bogus": 1}},
            )
        assert excinfo.value.code == INVALID_PARAMS
        assert "bogus" in excinfo.value.message

    @pytest.mark.parametrize(
        "options", [{"verify": False}, {"collapse": "never"}]
    )
    def test_size_queues_refuses_the_removed_knobs(self, options):
        """A peer can neither skip the sizing check nor force full
        cycle enumeration on a collapsible system."""
        with pytest.raises(RpcError) as excinfo:
            parse_job("size_queues", {"system": "fig15", "options": options})
        assert excinfo.value.code == INVALID_PARAMS
        (key,) = options
        assert f"unknown option(s) for 'size_queues': {key} " in (
            excinfo.value.message
        )

    def test_required_option_enforced(self):
        # 'tail' requires stochastic specs to be meaningful.
        with pytest.raises(RpcError) as excinfo:
            parse_job("tail", {"system": "fig1"})
        assert excinfo.value.code == INVALID_PARAMS
        assert "specs" in excinfo.value.message

    def test_bad_inline_lis(self):
        with pytest.raises(RpcError) as excinfo:
            parse_job("analyze", {"lis": "not json at all"})
        assert excinfo.value.code == INVALID_PARAMS

    def test_deadline_validation(self):
        job = parse_job(
            "analyze", {"system": "fig1", "deadline_ms": 1500}
        )
        assert job.deadline_s == pytest.approx(1.5)
        bad_values = (
            -5, 0, "soon", float("nan"), float("inf"), True, "50", 10**400
        )
        for bad in bad_values:
            with pytest.raises(RpcError) as excinfo:
                parse_job(
                    "analyze", {"system": "fig1", "deadline_ms": bad}
                )
            assert excinfo.value.code == INVALID_PARAMS, bad
        # JSON's bare NaN / Infinity literals and overflowing exponents
        # reach parse_job as floats through json.loads.
        for literal in ("NaN", "Infinity", "1e400"):
            params = json.loads(
                f'{{"system": "fig1", "deadline_ms": {literal}}}'
            )
            with pytest.raises(RpcError):
                parse_job("analyze", params)
        for bad in ("false", 1, None):
            with pytest.raises(RpcError) as excinfo:
                parse_job("analyze", {"system": "fig1", "stream": bad})
            assert excinfo.value.code == INVALID_PARAMS, bad

    def test_job_maps_to_engine_op(self):
        job = parse_job("simulate", {"system": "fig15"})
        assert job.op == "simulate_batch"
        assert job.method == "simulate"
        assert job.options is None
        assert job.fingerprint == job.key


class TestFingerprintCanonicalization:
    """Every spelling of the same request must coalesce onto one key."""

    def test_named_vs_inline_spellings_share_a_key(self):
        canonical = lis_to_json(examples.fig15_lis())
        by_name = parse_job("analyze", {"system": "fig15"})
        by_text = parse_job("analyze", {"lis": canonical})
        by_dict = parse_job("analyze", {"lis": json.loads(canonical)})
        assert by_name.key == by_text.key == by_dict.key

    def test_option_order_does_not_matter(self):
        a = parse_job(
            "simulate",
            {"system": "fig1", "options": {"clocks": 400, "warmup": 16}},
        )
        b = parse_job(
            "simulate",
            {"system": "fig1", "options": {"warmup": 16, "clocks": 400}},
        )
        assert a.key == b.key

    def test_different_content_different_key(self):
        a = parse_job("analyze", {"system": "fig1"})
        b = parse_job("analyze", {"system": "fig15"})
        c = parse_job("size_queues", {"system": "fig1"})
        assert len({a.key, b.key, c.key}) == 3

    def test_stream_and_deadline_do_not_change_the_key(self):
        plain = parse_job("analyze", {"system": "fig1"})
        decorated = parse_job(
            "analyze",
            {"system": "fig1", "deadline_ms": 50, "stream": True},
        )
        assert plain.key == decorated.key
        assert decorated.stream and not plain.stream


class TestNamedSystems:
    def test_every_documented_name_resolves(self):
        for name in (
            "fig1",
            "fig2-right",
            "fig10",
            "fig15",
            "uplink-downlink",
            "cofdm",
            "fig19",
            "mesh:2x2",
            "torus:3x3",
        ):
            text = resolve_named_system(name)
            assert json.loads(text)  # canonical JSON

    def test_file_paths_rejected(self):
        # The server must never read local files for a network peer.
        for name in ("/etc/passwd", "../secrets.json", "foo.json"):
            with pytest.raises(RpcError) as excinfo:
                resolve_named_system(name)
            assert excinfo.value.code == INVALID_PARAMS

    def test_bad_noc_spec(self):
        with pytest.raises(RpcError) as excinfo:
            resolve_named_system("mesh:wide")
        assert excinfo.value.code == INVALID_PARAMS


class TestJsonify:
    def test_scalars_and_fractions(self):
        assert jsonify(Fraction(3, 4)) == "3/4"
        assert jsonify(None) is None
        assert jsonify(True) is True
        assert jsonify(2.5) == 2.5

    def test_containers(self):
        assert jsonify({1: Fraction(1, 2)}) == {"1": "1/2"}
        assert jsonify((1, {2})) == [1, [2]]
        assert jsonify({"b", "a"}) == ["a", "b"]

    def test_dataclass_and_enum(self):
        class Color(Enum):
            RED = "red"

        @dataclass
        class Point:
            x: int
            rate: Fraction

        assert jsonify(Color.RED) == "red"
        assert jsonify(Point(1, Fraction(2, 3))) == {
            "x": 1,
            "rate": "2/3",
        }

    def test_round_trips_through_json(self):
        value = {"mst": Fraction(2, 3), "cycles": [(1, 2), (3, 4)]}
        assert json.loads(json.dumps(jsonify(value)))


def test_method_table_is_self_consistent():
    for name, spec in METHODS.items():
        assert spec.name == name
        assert spec.required <= spec.allowed or not spec.required
        assert spec.description
