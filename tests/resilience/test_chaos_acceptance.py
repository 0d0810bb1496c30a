"""The issue's acceptance scenario, end to end.

A fault plan injects one raising shard, one hanging shard (recovered via
the shard timeout) and one kill -9'd worker into a 2-worker small compare.
The sweep must still complete the healthy shards, record structured failure
rows, retry every faulted shard to success, and a plain rerun must resume
to result rows byte-identical to an uninterrupted run -- with zero leaked
shared-memory segments.
"""

import json

import pytest

from repro.scenarios.faults import FaultDirective, FaultPlan
from repro.scenarios.registry import build_comparison_spec
from repro.scenarios.runner import ScenarioRunner
from repro.topology.shared import scan_segments


def compare_spec():
    return build_comparison_spec(
        "small",
        ["shortest-path", "landmark"],
        seeds=[1, 2],
        duration=1.0,
        nodes=16,
    )


def row_lines(report):
    return sorted(json.dumps(row, sort_keys=True, default=str) for row in report.rows)


@pytest.mark.slow
class TestChaosAcceptance:
    def test_raise_hang_kill_sweep_recovers_byte_identical(self, tmp_path, no_backoff):
        plan = FaultPlan(
            [
                FaultDirective(action="raise", shard=0),
                FaultDirective(action="hang", shard=1, seconds=120.0),
                FaultDirective(action="kill", shard=2),
            ]
        )
        spec = compare_spec()
        chaos_dir = str(tmp_path / "chaos")
        report = ScenarioRunner(
            spec,
            results_dir=chaos_dir,
            workers=2,
            shard_timeout=5.0,
            fault_plan=plan,
        ).run()

        # Healthy and recovered shards all completed; every failure left a
        # structured row; nothing was permanently poisoned.
        assert report.executed == 4
        assert report.retries == 3
        assert report.quarantined == []
        kinds = sorted(row["failure"] for row in report.failures)
        assert kinds == ["exception", "timeout", "worker-death"]
        for row in report.failures:
            assert row["status"] == "failed"
            assert row["run_key"] in set(
                ScenarioRunner(spec, results_dir=chaos_dir).expected_keys()
            )
            assert row["error"]

        # A plain rerun resumes with zero new work...
        resumed = ScenarioRunner(spec, results_dir=chaos_dir, workers=2).run()
        assert resumed.executed == 0 and resumed.skipped == 4

        # ...and the success rows are byte-identical to an uninterrupted
        # sweep in a fresh directory.
        clean = ScenarioRunner(spec, results_dir=str(tmp_path / "clean"), workers=2).run()
        assert row_lines(resumed) == row_lines(clean) == row_lines(report)

        # Zero leaked shared-memory segments: every magic-tagged segment
        # still present belongs to a live process (the reaper scan would
        # reap nothing of ours).
        dead = [name for name, _owner, alive in scan_segments() if not alive]
        assert dead == []
