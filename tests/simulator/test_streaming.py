"""Tests for streaming workloads and the runner's chunked arrival drain."""

from typing import List

from repro.baselines import ShortestPathScheme
from repro.simulator.experiment import ExperimentRunner, _ArrivalCursor
from repro.simulator.workload import (
    StreamingWorkload,
    TransactionRequest,
    WorkloadConfig,
    generate_workload,
)
from repro.topology.generators import watts_strogatz_pcn


def _network():
    return watts_strogatz_pcn(
        30,
        nearest_neighbors=4,
        rewire_probability=0.2,
        uniform_channel_size=200.0,
        candidate_fraction=0.2,
        seed=7,
    )


def _poisson_workload(network):
    return generate_workload(
        network, WorkloadConfig(duration=4.0, arrival_rate=10.0, seed=11)
    )


def _as_streaming(workload, chunk_size: int) -> StreamingWorkload:
    requests: List[TransactionRequest] = list(workload.requests)

    def chunks():
        for start in range(0, len(requests), chunk_size):
            yield requests[start : start + chunk_size]

    return StreamingWorkload(
        config=workload.config,
        count=len(requests),
        total_value=sum(r.value for r in requests),
        chunk_factory=chunks,
    )


class TestStreamingWorkload:
    def test_materialize_round_trips(self, small_ws_network):
        base = _poisson_workload(small_ws_network)
        materialized = _as_streaming(base, chunk_size=5).materialize()
        assert materialized.requests == list(base.requests)
        assert materialized.config is base.config

    def test_iter_chunks_restarts_per_call(self, small_ws_network):
        streaming = _as_streaming(_poisson_workload(small_ws_network), chunk_size=5)
        first = [r for chunk in streaming.iter_chunks() for r in chunk]
        second = [r for chunk in streaming.iter_chunks() for r in chunk]
        assert first == second
        assert len(first) == streaming.count


class TestArrivalCursor:
    def test_exact_boundary_is_inclusive(self):
        requests = [
            TransactionRequest(arrival_time=t, sender="a", recipient="b", value=1.0)
            for t in (0.0, 0.1, 0.2, 0.3)
        ]
        workload = StreamingWorkload(
            config=WorkloadConfig(duration=1.0, arrival_rate=4.0),
            count=4,
            total_value=4.0,
            chunk_factory=lambda: iter([requests[:2], requests[2:]]),
        )
        cursor = _ArrivalCursor(workload)
        # An arrival at exactly `now` belongs to this drain, matching the
        # engine's (time, sequence) ordering for scheduled arrivals.
        assert [r.arrival_time for r in cursor.take_until(0.1)] == [0.0, 0.1]
        assert [r.arrival_time for r in cursor.take_until(0.1)] == []
        assert [r.arrival_time for r in cursor.take_until(5.0)] == [0.2, 0.3]


class TestStreamingRunner:
    def test_streaming_matches_materialized_results(self):
        base = _poisson_workload(_network())

        materialized_result = ExperimentRunner(_network(), base).run_single(
            ShortestPathScheme()
        )
        streaming_result = ExperimentRunner(
            _network(), _as_streaming(base, chunk_size=7)
        ).run_single(ShortestPathScheme())

        assert streaming_result.as_dict() == materialized_result.as_dict()

    def test_chunk_size_does_not_change_results(self):
        base = _poisson_workload(_network())
        tiny = ExperimentRunner(_network(), _as_streaming(base, chunk_size=1)).run_single(
            ShortestPathScheme()
        )
        huge = ExperimentRunner(
            _network(), _as_streaming(base, chunk_size=10_000)
        ).run_single(ShortestPathScheme())
        assert tiny.as_dict() == huge.as_dict()

