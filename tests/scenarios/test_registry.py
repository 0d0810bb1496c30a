"""Tests for the built-in scenario registry."""

import pytest

from repro.scenarios import registry
from repro.scenarios.registry import (
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_names,
)
from repro.scenarios.spec import ScenarioSpec

EXPECTED_BUILTINS = {
    "paper-default",
    "large-scale",
    "flash-crowd",
    "channel-churn",
    "hub-failure",
    "channel-jamming",
}

DYNAMIC_BUILTINS = {"channel-churn", "hub-failure", "channel-jamming"}


class TestBuiltins:
    def test_at_least_six_scenarios(self):
        assert EXPECTED_BUILTINS <= set(scenario_names())
        assert len(scenario_names()) >= 6

    @pytest.mark.parametrize("name", sorted(EXPECTED_BUILTINS))
    def test_lookup_returns_matching_spec(self, name):
        spec = get_scenario(name)
        assert isinstance(spec, ScenarioSpec)
        assert spec.name == name
        assert spec.description
        assert spec.seeds
        assert spec.schemes

    @pytest.mark.parametrize("name", sorted(EXPECTED_BUILTINS))
    def test_every_builtin_round_trips(self, name):
        spec = get_scenario(name)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("name", sorted(DYNAMIC_BUILTINS))
    def test_dynamic_builtins_carry_dynamics(self, name):
        assert get_scenario(name).dynamics

    def test_flash_crowd_has_burst(self):
        assert get_scenario("flash-crowd").workload.bursts

    def test_fresh_copy_per_lookup(self):
        first = get_scenario("paper-default")
        first.seeds.append(999)
        assert 999 not in get_scenario("paper-default").seeds

    def test_unknown_scenario_lists_options(self):
        with pytest.raises(KeyError, match="paper-default"):
            get_scenario("not-a-scenario")

    def test_descriptions_listed(self):
        listing = list_scenarios()
        assert set(listing) == set(scenario_names())
        assert all(listing.values())


class TestRegistration:
    def test_register_custom_scenario(self, monkeypatch):
        def factory():
            return ScenarioSpec(name="custom-test-scenario", description="mine")

        # Into a copy: the process-wide registry keeps only the built-ins.
        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
        register_scenario(factory)
        assert get_scenario("custom-test-scenario").description == "mine"
