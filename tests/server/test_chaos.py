"""The server chaos harness: a reduced seeded campaign must hold all
four invariants, and the report machinery must round-trip."""

import json

from repro.server.chaos import (
    ServerChaosConfig,
    ServerChaosReport,
    _fingerprint,
    _scrub,
    run_server_campaign,
)


class TestFingerprint:
    def test_scrub_drops_timing_fields_recursively(self):
        value = {
            "mst": "3/4",
            "elapsed": 0.123,
            "enumeration_elapsed": 4.5,
            "wall_seconds": 9.0,
            "nested": [{"cost": 2, "elapsed": 7.0}],
        }
        assert _scrub(value) == {
            "mst": "3/4",
            "nested": [{"cost": 2}],
        }

    def test_fingerprint_ignores_timing_but_not_content(self):
        a = {"mst": "3/4", "elapsed": 1.0}
        b = {"mst": "3/4", "elapsed": 2.0}
        c = {"mst": "2/3", "elapsed": 1.0}
        assert _fingerprint(a) == _fingerprint(b)
        assert _fingerprint(a) != _fingerprint(c)


class TestCampaign:
    def test_reduced_campaign_holds_invariants(self):
        report = run_server_campaign(
            ServerChaosConfig(
                requests=24, seeds=(0,), shards=2, clients=4
            )
        )
        assert report.ok, report.render()
        (trial,) = report.trials
        assert trial["requests"] == 24
        assert trial["hung"] == 0
        assert trial["admitted"] == trial["terminals"]
        assert (
            trial["succeeded"] + trial["errored"] == trial["requests"]
        )
        # The campaign must actually have injected something.
        assert trial["kills"] + trial["drops"] > 0
        summary = report.summary
        assert summary["ok"] is True
        assert summary["violations"] == 0
        # The report is JSON-able end to end (the CLI --json path).
        json.dumps(report.as_dict(), sort_keys=True, default=str)
        assert "all invariants held" in report.render()

    def test_report_flags_violations(self):
        report = ServerChaosReport(config={})
        report.trials.append(
            {
                "seed": 0,
                "requests": 1,
                "succeeded": 0,
                "errored": 0,
                "hung": 1,
                "retries_used": 0,
                "kills": 0,
                "drops": 0,
                "resilience": {
                    "worker_restarts": 0,
                    "watchdog_kills": 0,
                    "failovers": 0,
                },
                "recovery_s": 0.0,
            }
        )
        report.violations.append(
            {"seed": 0, "invariant": "termination", "detail": "hang"}
        )
        assert not report.ok
        assert report.summary["violations"] == 1
        assert "VIOLATIONS" in report.render()
