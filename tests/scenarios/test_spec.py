"""Tests for the declarative scenario specification layer."""

import json

import pytest

from repro.baselines import SCHEME_REGISTRY
from repro.scenarios.spec import (
    DynamicsEventSpec,
    ScenarioSpec,
    SchemeSpec,
    TopologySpec,
    WorkloadSpec,
    derive_seed,
)


@pytest.fixture
def full_spec() -> ScenarioSpec:
    """A spec exercising every field, including dynamics and a grid."""
    return ScenarioSpec(
        name="test-full",
        description="all fields set",
        topology=TopologySpec(
            kind="watts-strogatz",
            params={"node_count": 24, "nearest_neighbors": 4, "candidate_fraction": 0.2},
            channel_scale=1.5,
        ),
        workload=WorkloadSpec(duration=2.0, arrival_rate=10.0, bursts=[[0.5, 1.0, 3.0]]),
        schemes=[SchemeSpec(name="shortest-path"), SchemeSpec(name="landmark")],
        dynamics=[
            DynamicsEventSpec(kind="churn", time=0.5, duration=0.5, params={"count": 3}),
            DynamicsEventSpec(kind="hub-outage", time=1.0, duration=1.0, params={"count": 1}),
        ],
        seeds=[7, 8],
        grid={"workload.value_scale": [1.0, 2.0]},
        step_size=0.1,
        drain_time=1.0,
    )


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, "topology") == derive_seed(1, "topology")

    def test_distinguishes_purpose_and_base(self):
        seeds = {
            derive_seed(1, "topology"),
            derive_seed(1, "workload"),
            derive_seed(2, "topology"),
            derive_seed(1, "burst", 0),
        }
        assert len(seeds) == 4

    def test_fits_numpy_seed_range(self):
        assert 0 <= derive_seed(123456789, "x") < 2**31


class TestSerialization:
    def test_round_trip_dict(self, full_spec):
        data = full_spec.to_dict()
        rebuilt = ScenarioSpec.from_dict(data)
        assert rebuilt == full_spec
        assert rebuilt.to_dict() == data

    def test_round_trip_through_json(self, full_spec):
        data = json.loads(json.dumps(full_spec.to_dict()))
        assert ScenarioSpec.from_dict(data).to_dict() == full_spec.to_dict()

    def test_from_dict_ignores_unknown_keys(self, full_spec):
        data = full_spec.to_dict()
        data["future_field"] = {"x": 1}
        assert ScenarioSpec.from_dict(data).name == "test-full"

    def test_to_dict_is_json_safe(self, full_spec):
        json.dumps(full_spec.to_dict())  # must not raise


class TestOverrides:
    def test_dataclass_and_dict_paths(self, full_spec):
        changed = full_spec.with_overrides(
            {"workload.arrival_rate": 99.0, "topology.params.node_count": 30}
        )
        assert changed.workload.arrival_rate == 99.0
        assert changed.topology.params["node_count"] == 30

    def test_original_untouched(self, full_spec):
        full_spec.with_overrides({"workload.arrival_rate": 99.0})
        assert full_spec.workload.arrival_rate == 10.0

    def test_bad_path_rejected(self, full_spec):
        with pytest.raises(KeyError):
            full_spec.with_overrides({"workload.not_a_field": 1})

    @pytest.mark.parametrize(
        "path", ["topology.nosuch.max_nodes", "topology.params.nosuch.x", "schemes.9.name"]
    )
    def test_a_missing_inner_part_is_the_same_error(self, full_spec, path):
        with pytest.raises(KeyError, match=f"override path '{path}' does not resolve"):
            full_spec.with_overrides({path: 1})


class TestGridExpansion:
    def test_cartesian_product(self, full_spec):
        runs = full_spec.expand_runs()
        assert len(runs) == 4  # 2 seeds x 2 value_scale points
        assert {seed for seed, _ in runs} == {7, 8}
        assert {overrides["workload.value_scale"] for _, overrides in runs} == {1.0, 2.0}

    def test_no_grid_means_one_run_per_seed(self):
        spec = ScenarioSpec(name="plain", seeds=[1, 2, 3])
        assert [seed for seed, _ in spec.expand_runs()] == [1, 2, 3]
        assert all(overrides == {} for _, overrides in spec.expand_runs())

    def test_expansion_order_deterministic(self, full_spec):
        assert full_spec.expand_runs() == full_spec.expand_runs()


class TestTopologySpec:
    def test_build_deterministic(self):
        spec = TopologySpec(params={"node_count": 20, "nearest_neighbors": 4})
        first, second = spec.build(5), spec.build(5)
        assert sorted(map(repr, first.nodes())) == sorted(map(repr, second.nodes()))
        assert first.channel_count() == second.channel_count()
        assert first.total_funds() == pytest.approx(second.total_funds())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown topology kind"):
            TopologySpec(kind="mystery").build(1)

    def test_star_topology_builds(self):
        network = TopologySpec(kind="star", params={"client_count": 4}).build(1)
        assert network.node_count() == 5


class TestWorkloadSpec:
    def test_burst_adds_arrivals_in_window(self, small_ws_network):
        base = WorkloadSpec(duration=4.0, arrival_rate=20.0)
        bursty = WorkloadSpec(duration=4.0, arrival_rate=20.0, bursts=[[1.0, 2.0, 4.0]])
        plain = base.build(small_ws_network, 3)
        crowd = bursty.build(small_ws_network, 3)

        def in_window(workload):
            return sum(1 for r in workload.requests if 1.0 <= r.arrival_time <= 2.0)

        assert in_window(crowd) > 2 * in_window(plain)
        assert crowd.count > plain.count
        times = [r.arrival_time for r in crowd.requests]
        assert times == sorted(times)

    def test_build_deterministic(self, small_ws_network):
        spec = WorkloadSpec(duration=2.0, bursts=[[0.5, 1.0, 3.0]])
        first = spec.build(small_ws_network, 9)
        second = spec.build(small_ws_network, 9)
        assert [(r.arrival_time, r.sender, r.recipient, r.value) for r in first.requests] == [
            (r.arrival_time, r.sender, r.recipient, r.value) for r in second.requests
        ]


class TestSchemeSpec:
    @pytest.mark.parametrize("name", sorted(SCHEME_REGISTRY))
    def test_every_registry_scheme_builds(self, name):
        scheme = SchemeSpec(name=name).build()
        assert scheme.name == name

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            SchemeSpec(name="teleport").build()

    def test_splicer_router_params(self):
        scheme = SchemeSpec(
            name="splicer", params={"router": {"path_count": 3}, "omega": 0.1}
        ).build()
        assert scheme.config.router.path_count == 3
        assert scheme.config.omega == 0.1
        assert scheme.config.placement_method == "greedy"


class TestBuildExperiment:
    def test_same_seed_same_workload(self, tmp_path):
        spec = ScenarioSpec(
            name="tiny",
            topology=TopologySpec(params={"node_count": 16, "nearest_neighbors": 4}),
            workload=WorkloadSpec(duration=1.0, arrival_rate=10.0),
            schemes=[SchemeSpec(name="shortest-path")],
        )
        first_runner, first_schemes = spec.build_experiment(3)
        second_runner, _ = spec.build_experiment(3)
        assert [r.value for r in first_runner.workload.requests] == [
            r.value for r in second_runner.workload.requests
        ]
        assert len(first_schemes) == 1

    def test_dynamics_built_and_sorted(self):
        spec = ScenarioSpec(
            name="dyn",
            topology=TopologySpec(params={"node_count": 16, "nearest_neighbors": 4}),
            workload=WorkloadSpec(duration=1.0),
            dynamics=[
                DynamicsEventSpec(kind="jamming", time=0.8, duration=0.5, params={"count": 2}),
                DynamicsEventSpec(kind="churn", time=0.1, params={"count": 2, "start": 0.1, "end": 0.5}),
            ],
        )
        runner, _ = spec.build_experiment(1)
        times = [event.time for event in runner.dynamics]
        assert len(times) == 4
        assert times == sorted(times)
