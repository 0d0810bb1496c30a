"""Tests for the topology/workload source-provider registries."""

import pytest

from repro.data.sources import (
    TOPOLOGY_SOURCES,
    WORKLOAD_SOURCES,
    SourceInfo,
    get_topology_source,
    get_workload_source,
    list_topology_sources,
    list_workload_sources,
    topology_source,
)


class TestBuiltins:
    def test_synthetic_generators_registered(self):
        for kind in ("watts-strogatz", "scale-free", "random", "grid", "star", "multi-star"):
            info = get_topology_source(kind)
            assert info.kind == kind
            sized = kind in ("watts-strogatz", "scale-free", "random")
            assert info.size_key == ("node_count" if sized else None)

    def test_data_backed_sources_registered(self):
        assert get_topology_source("lightning-snapshot").size_key == "max_nodes"
        assert get_workload_source("ripple-trace").size_key is None
        # No descriptor is the Poisson workload; it is not a registered source.
        assert sorted(WORKLOAD_SOURCES) == ["ripple-trace"]

    def test_seeded_and_channel_scale_flags(self):
        assert get_topology_source("watts-strogatz").seeded
        assert get_topology_source("watts-strogatz").channel_scale
        assert not get_topology_source("star").seeded
        assert get_topology_source("grid").seeded
        assert not get_topology_source("grid").channel_scale
        assert not get_topology_source("lightning-snapshot").seeded
        assert get_topology_source("lightning-snapshot").channel_scale

    def test_listings_sorted_by_kind(self):
        kinds = [info.kind for info in list_topology_sources()]
        assert kinds == sorted(kinds)
        kinds = [info.kind for info in list_workload_sources()]
        assert kinds == sorted(kinds)
        assert all(isinstance(info, SourceInfo) for info in list_topology_sources())


class TestRegistration:
    def test_unknown_topology_kind_lists_options(self):
        with pytest.raises(ValueError, match="unknown topology kind"):
            get_topology_source("no-such-thing")

    def test_unknown_workload_kind_lists_options(self):
        with pytest.raises(ValueError, match="unknown workload source"):
            get_workload_source("no-such-thing")

    def test_duplicate_registration_rejected(self):
        @topology_source("dup-test-kind")
        def build_one(**params):
            return None

        try:
            with pytest.raises(ValueError, match="already registered"):

                @topology_source("dup-test-kind")
                def build_two(**params):
                    return None

        finally:
            TOPOLOGY_SOURCES.pop("dup-test-kind", None)
