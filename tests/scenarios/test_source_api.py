"""Behavioral tests for the source-provider API.

Moving topology/workload construction behind the source registries must
change nothing for pre-existing synthetic specs: their resume fingerprints
and a churned two-scheme run are pinned by the goldens
(``tests/golden/digests.json`` ``fingerprints`` and ``diff-pin``).
"""

from dataclasses import fields

import pytest

from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import spec_fingerprint
from repro.scenarios.spec import ScenarioSpec, TopologySpec, WorkloadSpec, split_descriptor
from repro.simulator.workload import StreamingWorkload


class TestFingerprintsUnchanged:
    def test_legacy_to_dict_has_no_source_key(self):
        data = get_scenario("paper-default").to_dict()
        assert "source" not in data["topology"]
        assert "source" not in data["workload"]

    def test_legacy_round_trip_keeps_fingerprint(self):
        spec = get_scenario("flash-crowd")
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt.workload.source is None
        assert spec_fingerprint(rebuilt.to_dict()) == spec_fingerprint(spec.to_dict())

    def test_source_backed_spec_round_trips(self):
        spec = get_scenario("real-trace")
        data = spec.to_dict()
        assert data["topology"] == {
            "kind": "lightning-snapshot", "params": {}, "channel_scale": 1.0
        }
        rebuilt = ScenarioSpec.from_dict(data)
        assert spec_fingerprint(rebuilt.to_dict()) == spec_fingerprint(data)


class TestSourceDescriptors:
    def test_plain_string_descriptor(self):
        assert split_descriptor("lightning-snapshot", "topology") == ("lightning-snapshot", {})

    def test_descriptor_without_kind_rejected(self):
        with pytest.raises(ValueError, match="'kind' key"):
            WorkloadSpec(source={"path": "x.csv"}).describe_source()

    def test_workload_defaults_to_poisson(self):
        assert WorkloadSpec().describe_source() == {"kind": "poisson", "params": {}}

    def test_poisson_is_not_a_workload_source(self):
        with pytest.raises(ValueError, match="unknown workload source 'poisson'"):
            WorkloadSpec(source="poisson").describe_source()

    def test_unknown_source_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown topology kind"):
            TopologySpec(kind="no-such-source").build(seed=1)


class TestKindSpelling:
    def test_a_topology_spec_has_no_source_field(self):
        assert [field.name for field in fields(TopologySpec)] == ["kind", "params", "channel_scale"]
        with pytest.raises(TypeError):
            TopologySpec(source="lightning-snapshot")

    def test_synthetic_kind_spelling_builds(self):
        topology = TopologySpec(params={"node_count": 16, "candidate_fraction": 0.2})
        assert len(topology.build(seed=1).nodes()) == 16

    def test_data_backed_kind_spelling_builds(self):
        topology = TopologySpec(kind="lightning-snapshot", params={"max_nodes": 20})
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
        snapshot = {"kind": "lightning-snapshot", "params": {"max_nodes": 20}}
        topology = TopologySpec(**snapshot, channel_scale=2.0)
        base = TopologySpec(**snapshot)
        scaled_caps = sorted(c.capacity for c in topology.build(1).channels())
        base_caps = sorted(c.capacity for c in base.build(1).channels())
        assert scaled_caps[-1] == pytest.approx(2.0 * base_caps[-1])


class TestGridOverrides:
    def test_source_params_reachable_by_dotted_path(self):
        spec = get_scenario("real-trace")
        overridden = spec.with_overrides(
            {
                "topology.params.max_nodes": 20,
                "workload.source.max_payments": 50,
            }
        )
        assert overridden.topology.params["max_nodes"] == 20
        assert overridden.workload.source["max_payments"] == 50
        # The original is untouched (overrides deep-copy).
        assert "max_nodes" not in spec.topology.params

    def test_overridden_source_spec_builds(self):
        spec = get_scenario("real-trace").with_overrides(
            {"topology.params.max_nodes": 20, "workload.source.max_payments": 50}
        )
        network = spec.topology.build(seed=1)
        workload = spec.workload.build(network, seed=1)
        assert isinstance(workload, StreamingWorkload)
        assert len(network.nodes()) <= 20
        assert workload.count <= 50

    def test_the_removed_topology_source_path_does_not_resolve(self):
        with pytest.raises(KeyError, match="does not resolve on TopologySpec"):
            get_scenario("real-trace").with_overrides({"topology.source.max_nodes": 20})


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
