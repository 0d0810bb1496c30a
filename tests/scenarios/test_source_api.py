"""Differential + behavioral tests for the source-provider API rewiring.

The fingerprint and metric pins below were captured from the pre-rewiring
code path; they guarantee that moving topology/workload construction behind
the source registries changed *nothing* for pre-existing synthetic specs --
neither resume keys (fingerprints) nor simulation results (metric rows).
"""

import pytest

from repro.scenarios.registry import build_comparison_spec, get_scenario
from repro.scenarios.runner import spec_fingerprint
from repro.scenarios.spec import (
    DynamicsEventSpec,
    ScenarioSpec,
    SchemeSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.simulator.workload import StreamingWorkload

#: Resume fingerprints of every built-in spec as of the pre-source-API code.
PINNED_FINGERPRINTS = {
    "paper-default": "aa36d44a4d97",
    "large-scale": "44a494aca38b",
    "flash-crowd": "b0b68692540f",
    "channel-churn": "2a06f542c864",
    "hub-failure": "69d6afd3b3c6",
    "channel-jamming": "6a41dfc6ade0",
    "compare-large": "dadf87ab5be7",
}

#: Exact metric rows of the diff-pin scenario (seed 7), captured pre-rewiring.
DIFF_PIN_FINGERPRINT = "ea950e61bb58"
DIFF_PIN_METRICS = {
    "shortest-path": {
        "scheme": "shortest-path",
        "generated_count": 41,
        "generated_value": 631.794,
        "completed_count": 29,
        "completed_value": 232.483,
        "failed_count": 12,
        "failure_reasons": {"insufficient-capacity": 12},
        "success_ratio": 0.7073,
        "normalized_throughput": 0.368,
        "average_delay": 0.0686,
        "median_delay": 0.072,
        "p90_delay": 0.092,
        "p99_delay": 0.112,
        "fees_paid": 0.0,
        "transfer_hops": 82,
        "overhead_messages": 41.0,
    },
    "landmark": {
        "scheme": "landmark",
        "generated_count": 41,
        "generated_value": 631.794,
        "completed_count": 32,
        "completed_value": 266.294,
        "failed_count": 9,
        "failure_reasons": {"insufficient-capacity": 4, "lock-contention": 5},
        "success_ratio": 0.7805,
        "normalized_throughput": 0.4215,
        "average_delay": 0.0803,
        "median_delay": 0.0872,
        "p90_delay": 0.1072,
        "p99_delay": 0.141,
        "fees_paid": 0.0,
        "transfer_hops": 117,
        "overhead_messages": 706.0,
    },
}
def _diff_pin_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="diff-pin",
        topology=TopologySpec(
            kind="watts-strogatz",
            params={"node_count": 24, "nearest_neighbors": 4, "candidate_fraction": 0.2},
        ),
        workload=WorkloadSpec(duration=2.0, arrival_rate=15.0, bursts=[[0.5, 1.0, 2.0]]),
        schemes=[SchemeSpec(name="shortest-path"), SchemeSpec(name="landmark")],
        dynamics=[
            DynamicsEventSpec(kind="churn", time=0.5, duration=0.5, params={"count": 3})
        ],
        seeds=[7],
    )


class TestFingerprintsUnchanged:
    @pytest.mark.parametrize("name", sorted(PINNED_FINGERPRINTS))
    def test_builtin_fingerprint_pinned(self, name):
        assert spec_fingerprint(get_scenario(name).to_dict()) == PINNED_FINGERPRINTS[name]

    def test_comparison_spec_fingerprint_pinned(self):
        spec = build_comparison_spec(
            "small",
            ["splicer", "shortest-path"],
            seeds=[1],
            duration=2.0,
            nodes=30,
        )
        assert spec_fingerprint(spec.to_dict()) == "cf8590a45483"

    def test_legacy_to_dict_has_no_source_key(self):
        data = get_scenario("paper-default").to_dict()
        assert "source" not in data["topology"]
        assert "source" not in data["workload"]

    def test_legacy_round_trip_keeps_fingerprint(self):
        spec = get_scenario("flash-crowd")
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt.topology.source is None
        assert rebuilt.workload.source is None
        assert spec_fingerprint(rebuilt.to_dict()) == PINNED_FINGERPRINTS["flash-crowd"]

    def test_source_backed_spec_round_trips(self):
        spec = get_scenario("real-trace")
        data = spec.to_dict()
        assert data["topology"]["source"] == {"kind": "lightning-snapshot"}
        rebuilt = ScenarioSpec.from_dict(data)
        assert spec_fingerprint(rebuilt.to_dict()) == spec_fingerprint(data)


class TestResultsUnchanged:
    def test_diff_pin_metrics_bit_identical(self):
        spec = _diff_pin_spec()
        assert spec_fingerprint(spec.to_dict()) == DIFF_PIN_FINGERPRINT
        result = spec.run_once(7)
        observed = {name: metrics.as_dict() for name, metrics in result.metrics.items()}
        assert observed == DIFF_PIN_METRICS


class TestSourceDescriptors:
    def test_plain_string_descriptor(self):
        topology = TopologySpec(source="lightning-snapshot")
        kind, params = topology.resolved_source()
        assert kind == "lightning-snapshot"
        assert params == {}

    def test_descriptor_replaces_legacy_kind_and_params(self):
        topology = TopologySpec(
            kind="watts-strogatz",
            params={"node_count": 60},
            source={"kind": "lightning-snapshot", "max_nodes": 20},
        )
        kind, params = topology.resolved_source()
        assert kind == "lightning-snapshot"
        # The legacy Watts-Strogatz params must NOT leak into the loader.
        assert params == {"max_nodes": 20}
        network = topology.build(seed=1)
        assert len(network.nodes()) <= 20

    def test_descriptor_without_kind_rejected(self):
        with pytest.raises(ValueError, match="'kind' key"):
            TopologySpec(source={"path": "x.json"}).resolved_source()

    def test_workload_defaults_to_poisson(self):
        assert WorkloadSpec().resolved_source() == ("poisson", {})

    def test_explicit_poisson_descriptor_overrides_fields(self):
        spec = WorkloadSpec(source={"kind": "poisson", "arrival_rate": 5.0, "duration": 1.0})
        network = TopologySpec(params={"node_count": 16, "candidate_fraction": 0.2}).build(1)
        workload = spec.build(network, seed=1)
        assert workload.config.arrival_rate == 5.0
        assert workload.config.duration == 1.0

    def test_unknown_poisson_parameter_rejected(self):
        spec = WorkloadSpec(source={"kind": "poisson", "node_count": 16})
        network = TopologySpec(params={"node_count": 16, "candidate_fraction": 0.2}).build(1)
        with pytest.raises(ValueError, match="unknown poisson workload parameter"):
            spec.build(network, seed=1)

    def test_unknown_source_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown topology kind"):
            TopologySpec(source="no-such-source").build(seed=1)


class TestKindSpelling:
    def test_data_backed_source_through_kind_is_rejected_before_build(self):
        topology = TopologySpec(kind="lightning-snapshot", params={}, channel_scale=None)
        for resolve in (topology.resolved_source, topology.describe_source):
            with pytest.raises(ValueError, match="topology.source"):
                resolve()

    def test_synthetic_kind_spelling_builds(self):
        topology = TopologySpec(params={"node_count": 16, "candidate_fraction": 0.2})
        assert topology.describe_source()["synthetic"]
        assert len(topology.build(seed=1).nodes()) == 16

    def test_source_spelling_of_data_backed_source_builds(self):
        topology = TopologySpec(source={"kind": "lightning-snapshot", "max_nodes": 20})
        assert not topology.describe_source()["synthetic"]
        assert len(topology.build(seed=1).nodes()) == 20


class TestChannelScaleValidation:
    def test_unsupported_source_rejects_channel_scale(self):
        topology = TopologySpec(
            kind="grid", params={"rows": 4, "cols": 4}, channel_scale=2.0
        )
        with pytest.raises(ValueError, match="does not support channel_scale"):
            topology.build(seed=1)

    def test_default_scale_passes_on_unsupported_sources(self):
        # channel_scale=1.0 is the dataclass default; sources that cannot
        # honor it must still accept it (it is a no-op, not a request).
        TopologySpec(kind="grid", params={"rows": 4, "cols": 4}).build(seed=1)

    def test_supported_source_receives_channel_scale(self):
        topology = TopologySpec(
            source={"kind": "lightning-snapshot", "max_nodes": 20}, channel_scale=2.0
        )
        base = TopologySpec(source={"kind": "lightning-snapshot", "max_nodes": 20})
        scaled_caps = sorted(c.capacity for c in topology.build(1).channels())
        base_caps = sorted(c.capacity for c in base.build(1).channels())
        assert scaled_caps[-1] == pytest.approx(2.0 * base_caps[-1])


class TestGridOverrides:
    def test_source_params_reachable_by_dotted_path(self):
        spec = get_scenario("real-trace")
        overridden = spec.with_overrides(
            {
                "topology.source.max_nodes": 20,
                "workload.source.max_payments": 50,
            }
        )
        assert overridden.topology.source["max_nodes"] == 20
        assert overridden.workload.source["max_payments"] == 50
        # The original is untouched (overrides deep-copy).
        assert "max_nodes" not in spec.topology.source

    def test_overridden_source_spec_builds(self):
        spec = get_scenario("real-trace").with_overrides(
            {"topology.source.max_nodes": 20, "workload.source.max_payments": 50}
        )
        network = spec.topology.build(seed=1)
        workload = spec.workload.build(network, seed=1)
        assert isinstance(workload, StreamingWorkload)
        assert len(network.nodes()) <= 20
        assert workload.count <= 50


class TestRealTraceScenario:
    def test_builds_streaming_experiment(self):
        spec = get_scenario("real-trace")
        runner, schemes = spec.build_experiment(seed=1)
        assert isinstance(runner.workload, StreamingWorkload)
        assert len(schemes) == 5

    def test_unknown_trace_parameter_rejected(self):
        spec = get_scenario("real-trace").with_overrides(
            {"workload.source.arrival_rate": 5.0}
        )
        network = spec.topology.build(seed=1)
        with pytest.raises(ValueError, match="unknown ripple-trace parameter"):
            spec.workload.build(network, seed=1)
