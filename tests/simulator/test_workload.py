"""Tests for the transaction workload generator."""

import pytest

from repro.reference.workload import generate_workload as reference_generate_workload
from repro.simulator.workload import WorkloadConfig, generate_workload


class TestWorkloadConfig:
    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            WorkloadConfig(duration=0.0)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            WorkloadConfig(arrival_rate=0.0)

    def test_invalid_deadlock_fraction(self):
        with pytest.raises(ValueError):
            WorkloadConfig(deadlock_fraction=1.5)


class TestGenerateWorkload:
    def test_basic_properties(self, small_ws_network):
        config = WorkloadConfig(duration=20.0, arrival_rate=10.0, seed=1)
        workload = generate_workload(small_ws_network, config)
        assert workload.count > 100
        assert workload.total_value > 0
        nodes = set(small_ws_network.nodes())
        for request in workload.requests:
            assert request.sender in nodes
            assert request.recipient in nodes
            assert request.sender != request.recipient
            assert request.value >= config.min_value
            assert 0.0 < request.arrival_time <= config.duration

    def test_arrivals_sorted_in_time(self, small_ws_network):
        workload = generate_workload(small_ws_network, WorkloadConfig(duration=10.0, seed=2))
        times = [request.arrival_time for request in workload.requests]
        assert times == sorted(times)

    def test_reproducible_with_seed(self, small_ws_network):
        first = generate_workload(small_ws_network, WorkloadConfig(duration=5.0, seed=3))
        second = generate_workload(small_ws_network, WorkloadConfig(duration=5.0, seed=3))
        assert [(r.sender, r.recipient, r.value) for r in first.requests] == [
            (r.sender, r.recipient, r.value) for r in second.requests
        ]

    def test_arrival_rate_controls_volume(self, small_ws_network):
        low = generate_workload(small_ws_network, WorkloadConfig(duration=20.0, arrival_rate=5.0, seed=4))
        high = generate_workload(small_ws_network, WorkloadConfig(duration=20.0, arrival_rate=50.0, seed=4))
        assert high.count > low.count * 3

    def test_value_scale(self, small_ws_network):
        base_config = WorkloadConfig(duration=20.0, seed=5, deadlock_fraction=0.0)
        scaled_config = WorkloadConfig(duration=20.0, seed=5, deadlock_fraction=0.0, value_scale=3.0)
        base = generate_workload(small_ws_network, base_config)
        scaled = generate_workload(small_ws_network, scaled_config)
        assert scaled.total_value == pytest.approx(3.0 * base.total_value, rel=1e-6)

    def test_deadlock_motifs_found(self, small_ws_network):
        workload = generate_workload(
            small_ws_network, WorkloadConfig(duration=5.0, deadlock_fraction=0.5, seed=6)
        )
        assert workload.deadlock_motifs
        for a, relay, b in workload.deadlock_motifs:
            assert small_ws_network.has_channel(a, relay)
            assert small_ws_network.has_channel(relay, b)

    def test_no_motifs_when_disabled(self, small_ws_network):
        workload = generate_workload(
            small_ws_network, WorkloadConfig(duration=5.0, deadlock_fraction=0.0, seed=6)
        )
        assert workload.deadlock_motifs == []

    def test_restricted_sender_pool(self, small_ws_network):
        clients = small_ws_network.clients()[:5]
        workload = generate_workload(
            small_ws_network,
            WorkloadConfig(duration=5.0, seed=8, deadlock_fraction=0.0),
            senders=clients,
        )
        assert all(request.sender in set(clients) for request in workload.requests)

    def test_too_few_participants_rejected(self, small_ws_network):
        with pytest.raises(ValueError):
            generate_workload(small_ws_network, senders=[small_ws_network.clients()[0]])

    def test_recipient_skew_concentrates_traffic(self, small_ws_network):
        config = WorkloadConfig(duration=60.0, arrival_rate=30.0, recipient_skew=2.0, seed=9, deadlock_fraction=0.0)
        workload = generate_workload(small_ws_network, config)
        counts = {}
        for request in workload.requests:
            counts[request.recipient] = counts.get(request.recipient, 0) + 1
        top_share = max(counts.values()) / workload.count
        assert top_share > 0.15


class TestBackendEquivalence:
    """The generator's batched draws must replicate the reference's scalar loop.

    Bit-identity rests on replicating numpy Generator internals (choice's
    cdf-searchsorted arithmetic, chunked-cumsum accumulation, batched
    bounded integers); this pin is what catches a numpy release changing
    any of them.
    """

    def _streams(self, network, config):
        python = reference_generate_workload(network, config)
        numpy_ = generate_workload(network, config)
        return (
            [(r.arrival_time, r.sender, r.recipient, r.value) for r in python.requests],
            [(r.arrival_time, r.sender, r.recipient, r.value) for r in numpy_.requests],
            python,
            numpy_,
        )

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_bit_identical_request_streams(self, small_ws_network, seed):
        config = WorkloadConfig(duration=20.0, arrival_rate=25.0, seed=seed)
        scalar, batched, python, numpy_ = self._streams(small_ws_network, config)
        assert scalar == batched
        assert python.deadlock_motifs == numpy_.deadlock_motifs

    def test_bit_identical_without_motifs(self, small_ws_network):
        config = WorkloadConfig(duration=15.0, arrival_rate=30.0, seed=4, deadlock_fraction=0.0)
        scalar, batched, *_ = self._streams(small_ws_network, config)
        assert scalar == batched

    def test_bit_identical_with_heavy_motifs_and_scaling(self, small_ws_network):
        config = WorkloadConfig(
            duration=25.0, arrival_rate=40.0, seed=5, deadlock_fraction=0.6, value_scale=2.5
        )
        scalar, batched, *_ = self._streams(small_ws_network, config)
        assert scalar == batched

    def test_bit_identical_across_arrival_chunk_boundary(self, small_ws_network):
        # More than 1024 arrivals forces the chunked cumsum to carry its
        # running offset across chunks.
        config = WorkloadConfig(duration=120.0, arrival_rate=20.0, seed=6)
        scalar, batched, *_ = self._streams(small_ws_network, config)
        assert len(scalar) > 1024
        assert scalar == batched
