"""Recovery-path tests: every injected failure kind, every on_error policy."""

import json
import os

import pytest

from repro.__main__ import main as cli_main
from repro.scenarios.faults import FaultDirective, FaultPlan
from repro.scenarios.jsonl import ShardFailure, load_result_rows

KEYS = ["shard-a", "shard-b", "shard-c", "shard-d"]

pytestmark = pytest.mark.usefixtures("no_backoff")


def run_with_plan(toy_runner_cls, tmp_path, plan, **kwargs):
    kwargs.setdefault("workers", 2)
    runner = toy_runner_cls(str(tmp_path), KEYS, fault_plan=plan, **kwargs)
    return runner, runner.run()


def assert_all_completed(report):
    assert report.executed == len(KEYS)
    values = {row["run_key"]: row["value"] for row in report.rows}
    assert values == {key: index * index for index, key in enumerate(KEYS)}


class TestRetryRecovery:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "action,kind,error",
        [
            ("raise", "exception", "FaultInjected"),
            ("kill", "worker-death", "WorkerDied"),
            ("corrupt", "corrupt-output", "CorruptRow"),
        ],
    )
    def test_single_fault_recovers(self, toy_runner_cls, tmp_path, workers, action, kind, error):
        plan = FaultPlan([FaultDirective(action=action, shard=1)])
        _runner, report = run_with_plan(toy_runner_cls, tmp_path, plan, workers=workers)
        assert_all_completed(report)
        assert report.retries == 1
        assert [row["failure"] for row in report.failures] == [kind]
        assert report.failures[0]["error"] == error
        assert report.failures[0]["run_key"] == KEYS[1]
        assert report.failures[0]["final"] is False
        assert report.quarantined == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_hang_recovers_via_timeout(self, toy_runner_cls, tmp_path, workers):
        plan = FaultPlan([FaultDirective(action="hang", shard=0, seconds=60.0)])
        _runner, report = run_with_plan(
            toy_runner_cls, tmp_path, plan, workers=workers, shard_timeout=1.5
        )
        assert_all_completed(report)
        assert [row["failure"] for row in report.failures] == ["timeout"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_healthy_shards_complete_alongside_failures(self, toy_runner_cls, tmp_path, workers):
        plan = FaultPlan([FaultDirective(action="kill", shard=0, attempts=(0, 1))])
        runner, report = run_with_plan(toy_runner_cls, tmp_path, plan, workers=workers)
        assert report.executed == len(KEYS) - 1
        assert report.quarantined == [KEYS[0]]
        assert {row["run_key"] for row in report.rows} == set(KEYS[1:])
        assert os.path.exists(runner.quarantine_path)

    def test_failure_rows_are_structured(self, toy_runner_cls, tmp_path):
        plan = FaultPlan([FaultDirective(action="raise", shard=0)])
        runner, _report = run_with_plan(toy_runner_cls, tmp_path, plan)
        failed = [
            row
            for row in load_result_rows(runner.results_path)
            if row.get("status") == "failed"
        ]
        assert len(failed) == 1
        row = failed[0]
        assert row["error"] == "FaultInjected"
        assert "injected failure" in row["error_message"]
        assert len(row["traceback_digest"]) == 12
        assert row["attempt"] == 0


class TestOnErrorPolicies:
    def test_skip_records_and_moves_on(self, toy_runner_cls, tmp_path):
        plan = FaultPlan([FaultDirective(action="raise", shard=1)])
        runner, report = run_with_plan(toy_runner_cls, tmp_path, plan, on_error="skip")
        assert report.executed == len(KEYS) - 1
        assert report.retries == 0
        assert report.quarantined == []  # skip never quarantines
        assert not os.path.exists(runner.quarantine_path)
        # A plain resume re-runs the skipped shard (the failure row does not
        # count as completed) and converges on the full grid.
        resumed = toy_runner_cls(str(tmp_path), KEYS, workers=2).run()
        assert resumed.executed == 1
        assert {row["run_key"] for row in resumed.rows} == set(KEYS)

    def test_fail_raises_after_recording(self, toy_runner_cls, tmp_path):
        plan = FaultPlan([FaultDirective(action="raise", shard=0)])
        runner = toy_runner_cls(
            str(tmp_path), KEYS, workers=1, on_error="fail", fault_plan=plan
        )
        with pytest.raises(ShardFailure, match="exception"):
            runner.run()
        failed = [
            row
            for row in load_result_rows(runner.results_path)
            if row.get("status") == "failed"
        ]
        assert len(failed) == 1 and failed[0]["final"] is True

    def test_constructor_rejects_unknown_policy(self, toy_runner_cls, tmp_path):
        with pytest.raises(ValueError, match="on_error"):
            toy_runner_cls(str(tmp_path), KEYS, on_error="shrug")


class TestQuarantine:
    def test_exhausted_retries_quarantine_and_resume_skips(self, toy_runner_cls, tmp_path):
        plan = FaultPlan([FaultDirective(action="raise", shard=0, attempts=(0, 1, 2))])
        runner, report = run_with_plan(toy_runner_cls, tmp_path, plan, max_retries=2)
        assert report.quarantined == [KEYS[0]]
        assert report.retries == 2
        entry = runner.quarantined_keys()[KEYS[0]]
        assert entry["failure"] == "exception" and entry["attempts"] == 3
        # Resume (still faulted, but the quarantine short-circuits first):
        # the poisoned shard is skipped, nothing re-runs, nothing raises.
        runner2 = toy_runner_cls(
            str(tmp_path), KEYS, workers=2, fault_plan=plan
        )
        resumed = runner2.run()
        assert resumed.executed == 0
        assert resumed.quarantined == [KEYS[0]]
        # Quarantine-skipped keys count as skipped, so the report still
        # covers the whole grid: executed + skipped == len(KEYS).
        assert resumed.skipped == len(KEYS)
        assert resumed.total == len(KEYS)

    def test_doctor_clears_quarantine_and_resume_reruns(self, toy_runner_cls, tmp_path, capsys):
        plan = FaultPlan([FaultDirective(action="raise", shard=0, attempts=(0, 1))])
        runner, report = run_with_plan(toy_runner_cls, tmp_path, plan)
        assert report.quarantined == [KEYS[0]]
        assert (
            cli_main(["doctor", "--results-dir", str(tmp_path), "--clear-quarantine"])
            == 0
        )
        out = capsys.readouterr().out
        assert "1 quarantined run(s)" in out
        assert "cleared" in out
        assert not os.path.exists(runner.quarantine_path)
        # The fault is gone on the rerun (a transient crash fixed): the shard
        # completes and the grid converges.
        healed = toy_runner_cls(str(tmp_path), KEYS, workers=2).run()
        assert healed.executed == 1
        assert {row["run_key"] for row in healed.rows} == set(KEYS)

    def test_doctor_without_results_dir_only_reaps(self, capsys):
        assert cli_main(["doctor"]) == 0
        assert "orphaned shared-memory segment(s)" in capsys.readouterr().out

    def test_doctor_clear_requires_results_dir(self, capsys):
        assert cli_main(["doctor", "--clear-quarantine"]) == 2


class TestEnvPlan:
    def test_plan_from_environment(self, toy_runner_cls, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN",
            json.dumps({"directives": [{"action": "raise", "shard": 0}]}),
        )
        runner = toy_runner_cls(str(tmp_path), KEYS, workers=2)
        report = runner.run()
        assert_all_completed(report)
        assert report.retries == 1
