"""Unit tests for the deterministic fault-injection plan."""

import json

import pytest

from repro.scenarios.faults import (
    CORRUPT_PAYLOAD,
    ENV_VAR,
    FaultDirective,
    FaultInjected,
    FaultPlan,
    run_with_directive,
)
from repro.scenarios.runner import spec_fingerprint
from repro.scenarios.spec import ScenarioSpec


class TestFaultDirective:
    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultDirective(action="explode", shard=0)

    def test_rejects_unknown_site(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultDirective(action="raise", shard=0, site="nowhere")

    def test_shardless_directive_needs_probability(self):
        with pytest.raises(ValueError, match="probability"):
            FaultDirective(action="raise")
        FaultDirective(action="raise", probability=0.5)  # valid

    def test_round_trip(self):
        directive = FaultDirective(action="hang", shard=3, attempts=(0, 1), seconds=2.5)
        rebuilt = FaultDirective.from_dict(directive.to_dict())
        assert rebuilt == directive

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown fault directive field"):
            FaultDirective.from_dict({"action": "raise", "shard": 0, "bogus": 1})


class TestFaultPlan:
    def test_directive_for_explicit_shard_and_attempt(self):
        plan = FaultPlan([FaultDirective(action="raise", shard=2)])
        assert plan.directive_for(2, 0) is not None
        assert plan.directive_for(2, 1) is None  # default attempts=(0,)
        assert plan.directive_for(1, 0) is None

    def test_persistent_attempts(self):
        plan = FaultPlan([FaultDirective(action="raise", shard=0, attempts=(0, 1, 2))])
        assert all(plan.directive_for(0, attempt) for attempt in (0, 1, 2))

    def test_probabilistic_selection_is_deterministic(self):
        plan = FaultPlan([FaultDirective(action="raise", probability=0.5)], seed=7)
        first = [plan.directive_for(shard, 0) is not None for shard in range(40)]
        second = [plan.directive_for(shard, 0) is not None for shard in range(40)]
        assert first == second
        assert any(first) and not all(first)
        other = FaultPlan([FaultDirective(action="raise", probability=0.5)], seed=8)
        assert first != [other.directive_for(shard, 0) is not None for shard in range(40)]

    def test_plan_round_trip(self):
        plan = FaultPlan(
            [FaultDirective(action="kill", shard=1), FaultDirective(action="raise", shard=0)],
            seed=3,
        )
        rebuilt = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert rebuilt.seed == 3
        assert rebuilt.directives == plan.directives

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(
            ENV_VAR, json.dumps({"directives": [{"action": "raise", "shard": 0}]})
        )
        plan = FaultPlan.from_env()
        assert plan.directive_for(0, 0).action == "raise"
        monkeypatch.setenv(ENV_VAR, "{not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            FaultPlan.from_env()


class TestRunWithDirective:
    def test_task_site_raise_skips_executor(self):
        calls = []
        with pytest.raises(FaultInjected):
            run_with_directive(calls.append, "task", FaultDirective(action="raise", shard=0))
        assert calls == []

    def test_result_site_raise_runs_executor_first(self):
        calls = []

        def execute(task):
            calls.append(task)
            return {"ok": True}

        with pytest.raises(FaultInjected):
            run_with_directive(
                execute, "task", FaultDirective(action="raise", shard=0, site="result")
            )
        assert calls == ["task"]

    def test_corrupt_payload_replaces_row(self):
        assert (
            run_with_directive(
                lambda task: {"ok": True}, "t", FaultDirective(action="corrupt", shard=0)
            )
            == CORRUPT_PAYLOAD
        )
        assert (
            run_with_directive(
                lambda task: {"ok": True},
                "t",
                FaultDirective(action="corrupt", shard=0, site="result"),
            )
            == CORRUPT_PAYLOAD
        )

    def test_no_directive_passes_through(self):
        assert run_with_directive(lambda task: task + 1, 41, None) == 42


class TestFingerprintTransparency:
    def test_a_stored_fault_plan_key_is_dropped_on_load(self):
        # Specs once carried a ``fault_plan`` field; a stored one still loads,
        # without the plan and with the fingerprint of the clean spec.
        clean = ScenarioSpec(name="fp-test").to_dict()
        stored = dict(clean, fault_plan=FaultPlan([FaultDirective("kill", shard=2)]).to_dict())
        rebuilt = ScenarioSpec.from_dict(stored).to_dict()
        assert rebuilt == clean and "fault_plan" not in rebuilt
        assert spec_fingerprint(rebuilt) == spec_fingerprint(clean)
