"""Differential suite: the sorted arrival cursor vs one heap event per payment.

The production runner drains arrivals from a sorted cursor (one
``searchsorted`` slice per drain point) and never schedules a heap event per
payment.  :class:`repro.reference.simulator.PerEventRunner` is the oracle:
every request is its own ``PAYMENT_ARRIVAL`` event, submitted at its own
time.  The contract is *decision identity*: for every registered scheme,
with and without mid-run dynamics, on materialized and streaming workloads,
both runners must produce bit-identical metric rows -- including the
failure-reason counters.  Any divergence means the cursor's drain
boundaries no longer match the event heap's ``(time, sequence)`` delivery
order.
"""

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import SCHEME_REGISTRY, ShortestPathScheme
from repro.reference.baselines import SpiderScheme as ReferenceSpiderScheme
from repro.reference.simulator import PerEventRunner
from repro.reference.workload import materialize
from repro.scenarios.dynamics import ChannelClose, churn_events, jamming_events
from repro.scenarios.registry import comparison_scheme_spec
from repro.simulator.experiment import ExperimentRunner
from repro.simulator.workload import (
    StreamingWorkload,
    TransactionRequest,
    TransactionWorkload,
    WorkloadConfig,
    generate_workload,
)
from repro.topology.generators import watts_strogatz_pcn


def _network(seed: int = 7):
    return watts_strogatz_pcn(
        30,
        nearest_neighbors=4,
        rewire_probability=0.2,
        uniform_channel_size=200.0,
        candidate_fraction=0.2,
        seed=seed,
    )


def _workload(network, duration: float = 4.0, rate: float = 12.0, seed: int = 11):
    return generate_workload(
        network, WorkloadConfig(duration=duration, arrival_rate=rate, seed=seed)
    )


def _run(runner_class, scheme_name: str, workload=None, dynamics=None, scheme=None):
    """One full run of ``scheme_name`` (or ``scheme``) under the given runner, fresh state."""
    network = _network()
    runner = runner_class(
        network,
        workload if workload is not None else _workload(network),
        step_size=0.2,
        drain_time=2.0,
        dynamics=dynamics(network) if dynamics is not None else None,
    )
    if scheme is None:
        scheme = comparison_scheme_spec(scheme_name).build()
    return runner.run_single(scheme, rng=np.random.default_rng(99))


class TestAllSchemesBitIdentical:
    """Every registered scheme: oracle vs production, field-for-field equality.

    ``SchemeMetrics`` is a dataclass, so ``==`` compares every field with
    exact float equality -- no rounding hides a drifting delay or a
    reordered settlement.
    """

    @pytest.mark.parametrize("scheme_name", sorted(SCHEME_REGISTRY))
    def test_runners_agree(self, scheme_name):
        reference = _run(PerEventRunner, scheme_name)
        production = _run(ExperimentRunner, scheme_name)
        assert production == reference
        assert production.failure_reasons == reference.failure_reasons

    def test_scalar_reference_scheme_agrees_too(self):
        # The cursor must not depend on a scheme amortizing batches: the
        # scalar reference implementation sees the same batches as the
        # array one.
        reference = _run(PerEventRunner, "spider", scheme=ReferenceSpiderScheme())
        production = _run(ExperimentRunner, "spider", scheme=ReferenceSpiderScheme())
        assert production == reference


class TestMidRunDynamics:
    """Churn and jamming fire between ticks; both runners must interleave
    arrivals and mutations identically (dynamics drain due arrivals before
    mutating the network)."""

    @pytest.mark.parametrize("scheme_name", ["shortest-path", "spider", "splicer"])
    def test_churn_equivalence(self, scheme_name):
        def dynamics(network):
            return churn_events(
                network, np.random.default_rng(5), count=6, start=0.5, end=3.0, down_time=1.0
            )

        reference = _run(PerEventRunner, scheme_name, dynamics=dynamics)
        production = _run(ExperimentRunner, scheme_name, dynamics=dynamics)
        assert production == reference

    @pytest.mark.parametrize("scheme_name", ["shortest-path", "waterfilling"])
    def test_jamming_equivalence(self, scheme_name):
        def dynamics(network):
            return jamming_events(network, at=1.0, duration=2.0, count=5, fraction=0.9)

        reference = _run(PerEventRunner, scheme_name, dynamics=dynamics)
        production = _run(ExperimentRunner, scheme_name, dynamics=dynamics)
        assert production == reference

    def test_churn_actually_changes_results(self):
        # Guard against vacuous equivalence: the dynamics train must perturb
        # the run, otherwise the tests above only re-check the static case.
        def dynamics(network):
            return churn_events(
                network, np.random.default_rng(5), count=6, start=0.5, end=3.0, down_time=1.0
            )

        static = _run(PerEventRunner, "shortest-path")
        churned = _run(PerEventRunner, "shortest-path", dynamics=dynamics)
        assert static != churned


def _streaming(workload, chunk_size: int) -> StreamingWorkload:
    """``workload`` (already in arrival order) streamed in fixed-size chunks."""
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


class TestStreamingWorkloads:
    def test_streaming_matches_per_event_materialized(self):
        streaming = _streaming(_workload(_network()), 7)
        reference = _run(PerEventRunner, "shortest-path", workload=materialize(streaming))
        streamed = _run(ExperimentRunner, "shortest-path", workload=streaming)
        assert streamed == reference

    def test_chunk_boundaries_invisible_to_the_cursor(self):
        base = _workload(_network())
        one = _run(ExperimentRunner, "shortest-path", workload=_streaming(base, 1))
        big = _run(ExperimentRunner, "shortest-path", workload=_streaming(base, 10_000))
        assert one == big


class TestRandomInterleavings:
    """Hypothesis-driven arrival patterns: ties, bursts, out-of-order input,
    arrivals landing exactly on tick boundaries."""

    @settings(max_examples=25, deadline=None)
    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=4.0, allow_nan=False, width=32),
            min_size=1,
            max_size=40,
        ),
        values=st.integers(min_value=1, max_value=60),
    )
    def test_arbitrary_arrival_patterns(self, times, values):
        network = _network(seed=3)
        nodes = sorted(network.nodes(), key=repr)
        requests = [
            TransactionRequest(
                arrival_time=float(t),
                sender=nodes[(i * 7 + values) % len(nodes)],
                recipient=nodes[(i * 13 + 1) % len(nodes)],
                value=float(1 + (i * values) % 37),
            )
            for i, t in enumerate(times)
            if nodes[(i * 7 + values) % len(nodes)] != nodes[(i * 13 + 1) % len(nodes)]
        ]
        if not requests:
            return
        workload = TransactionWorkload(
            requests=requests, config=WorkloadConfig(duration=4.0, arrival_rate=10.0)
        )

        def run(runner_class):
            runner = runner_class(_network(seed=3), workload, step_size=0.25, drain_time=1.0)
            return runner.run_single(ShortestPathScheme())

        assert run(ExperimentRunner) == run(PerEventRunner)

    def test_ties_on_tick_boundary(self):
        # Several arrivals at exactly a tick timestamp must all belong to
        # that tick's batch, in generation order, under both runners.
        network = _network(seed=3)
        nodes = sorted(network.nodes(), key=repr)
        requests = [
            TransactionRequest(arrival_time=0.2, sender=nodes[i], recipient=nodes[i + 1], value=2.0)
            for i in range(6)
        ]
        workload = TransactionWorkload(
            requests=requests, config=WorkloadConfig(duration=1.0, arrival_rate=6.0)
        )

        def run(runner_class):
            runner = runner_class(_network(seed=3), workload, step_size=0.2, drain_time=0.5)
            return runner.run_single(ShortestPathScheme())

        assert run(ExperimentRunner) == run(PerEventRunner)


class _LoggingScheme(ShortestPathScheme):
    """Shortest-path routing that logs, in order, every delivery (with the
    probe's view of the network at that instant), step and network change --
    the complete interleaving the two runners must agree on.

    Requests route at once unless ``wait(request)`` holds them back.
    """

    def __init__(self, name="logging", probe=lambda network: None, wait=lambda request: 0.0):
        super().__init__()
        self.name = name
        self.probe = probe
        self.wait = wait
        self.log = []

    def extra_delay(self, request):
        return self.wait(request)

    def submit(self, request, now):
        self.log.append(("submit", request, now, self.probe(self.network)))
        return super().submit(request, now)

    def step(self, now, dt):
        self.log.append(("step", now))
        return super().step(now, dt)

    def on_network_change(self):
        self.log.append(("change", self.probe(self.network)))
        super().on_network_change()


class _OracleLogCase:
    """Hand-built arrival patterns, each checked against the per-event
    oracle on the full delivery/step/mutation log."""

    STEP = 0.25  # exact in binary, so tick times are exact multiples

    def _requests(self, times, sender=None, recipient=None):
        nodes = sorted(_network(seed=3).nodes(), key=repr)
        return [
            TransactionRequest(
                arrival_time=t,
                sender=sender if sender is not None else nodes[i % 5],
                recipient=recipient if recipient is not None else nodes[5 + i % 7],
                value=2.0 + i,
            )
            for i, t in enumerate(times)
        ]

    def _workload(self, requests, duration=1.0):
        return TransactionWorkload(
            requests=requests, config=WorkloadConfig(duration=duration, arrival_rate=10.0)
        )

    def _logged(
        self, runner_class, workload, dynamics=None, probe=lambda network: None,
        wait=lambda request: 0.0,
    ):
        runner = runner_class(
            _network(seed=3), workload, step_size=self.STEP, drain_time=0.5, dynamics=dynamics
        )
        scheme = _LoggingScheme(probe=probe, wait=wait)
        return runner.run_single(scheme), scheme.log

    def _assert_matches_oracle(self, workload, oracle_workload=None, **options):
        metrics, log = self._logged(ExperimentRunner, workload, **options)
        oracle_metrics, oracle_log = self._logged(
            PerEventRunner, oracle_workload if oracle_workload is not None else workload, **options
        )
        assert log == oracle_log
        assert metrics == oracle_metrics
        return metrics, log


class TestCursorEdgeCases(_OracleLogCase):
    """Arrival patterns at the cursor's boundaries."""

    def test_unsorted_input_with_duplicate_times_is_stable(self):
        requests = self._requests([0.4, 0.1, 0.4, 0.1, 0.3, 0.4])
        _, log = self._assert_matches_oracle(self._workload(requests))
        delivered = [entry[1] for entry in log if entry[0] == "submit"]
        # (arrival_time, list index): ties keep their list order.
        assert delivered == [requests[i] for i in (1, 3, 4, 0, 2, 5)]

    def test_arrival_exactly_on_tick_dynamics_event_and_timed_revert(self):
        network = _network(seed=3)
        node_a, node_b = next(iter(network.channels())).endpoints
        close_at, down_time = 0.6, 0.7
        revert_at = close_at + down_time  # computed as the runner computes it
        times = [0.5, close_at, 0.61, revert_at, 1.31]
        workload = self._workload(self._requests(times, node_a, node_b), duration=1.5)
        dynamics = [ChannelClose(time=close_at, duration=down_time, node_a=node_a, node_b=node_b)]

        _, log = self._assert_matches_oracle(
            workload,
            dynamics=dynamics,
            probe=lambda network: network.has_channel(node_a, node_b),
        )
        channel_open = {entry[2]: entry[3] for entry in log if entry[0] == "submit"}
        # On the event's own timestamp the arrival goes first: still open at
        # the close, still closed at the reopening.
        assert channel_open == {
            0.5: True, close_at: True, 0.61: False, revert_at: False, 1.31: True,
        }
        # The arrival on the 0.5 tick is part of that tick's step.
        assert log.index(("step", 0.5)) == 1 + next(
            i for i, entry in enumerate(log) if entry[0] == "submit" and entry[2] == 0.5
        )

    @pytest.mark.parametrize("chunk_size", [1, 2, 100])
    def test_chunk_boundary_inside_a_drain_and_exactly_at_a_drain_point(self, chunk_size):
        # With chunks of two: [0.1, 0.2] [0.25, 0.3] [0.5, 0.5] [0.7] -- the
        # 0.25 drain crosses a chunk boundary and stops mid-chunk, the 0.5
        # drain ends exactly where a chunk ends.
        requests = self._requests([0.1, 0.2, 0.25, 0.3, 0.5, 0.5, 0.7])
        materialized = self._workload(requests)
        metrics, _ = self._assert_matches_oracle(
            _streaming(materialized, chunk_size), oracle_workload=materialized
        )
        assert metrics.generated_count == len(requests)

    def test_arrival_after_the_end_is_never_delivered_or_counted(self):
        # duration 1.0 + drain_time 0.5: the run ends at 1.5 (inclusive).
        requests = self._requests([0.2, 1.5, 1.6])
        metrics, log = self._assert_matches_oracle(self._workload(requests))
        assert [entry[1] for entry in log if entry[0] == "submit"] == requests[:2]
        assert metrics.generated_count == 2

    def test_each_scheme_on_one_runner_gets_a_fresh_cursor(self):
        requests = self._requests([0.1, 0.3, 0.3, 0.9])
        workload = self._workload(requests)
        runner = ExperimentRunner(_network(seed=3), workload, step_size=self.STEP, drain_time=0.5)
        first, second = _LoggingScheme("first"), _LoggingScheme("second")
        result = runner.run([first, second])
        _, oracle_log = self._logged(PerEventRunner, workload)
        assert first.log == second.log == oracle_log
        assert result.scheme("first").generated_count == len(requests)
        assert result.scheme("second").generated_count == len(requests)


class TestWaitEdgeCases(_OracleLogCase):
    """Pre-routing waits on the per-event oracle: a request waits
    ``extra_delay`` from its arrival and is submitted, stamped with the end
    of its wait, at the first offer or step at or after that time."""

    # Times and waits are exact in binary, so every sum below is exact.
    def _waited(self, times, waits, sender=None, recipient=None, **options):
        requests = self._requests(times, sender, recipient)
        wait_of = {request.value: delay for request, delay in zip(requests, waits)}
        metrics, log = self._assert_matches_oracle(
            self._workload(requests), wait=lambda request: wait_of[request.value], **options
        )
        submitted = [(requests.index(entry[1]), entry[2]) for entry in log if entry[0] == "submit"]
        return metrics, log, submitted

    def test_wait_ending_between_two_arrivals(self):
        # Ends at 0.1875, between the arrivals at 0.125 and 0.25 and before
        # the 0.25 tick, whose batch submits it ahead of the later arrival.
        _, log, submitted = self._waited([0.125, 0.25, 0.375], [0.0625, 0.0, 0.0])
        assert submitted == [(0, 0.1875), (1, 0.25), (2, 0.375)]
        assert log.index(("step", 0.25)) == 2

    def test_wait_ending_exactly_on_a_tick(self):
        # Both are due at the 0.25 tick: the earlier offer goes first, and
        # both are submitted before that tick's step.
        _, log, submitted = self._waited([0.125, 0.25], [0.125, 0.0])
        assert submitted == [(0, 0.25), (1, 0.25)]
        assert log.index(("step", 0.25)) == 2

    def test_wait_ending_across_a_dynamics_event(self):
        network = _network(seed=3)
        node_a, node_b = next(iter(network.channels())).endpoints
        dynamics = [ChannelClose(time=0.625, duration=None, node_a=node_a, node_b=node_b)]
        _, log, submitted = self._waited(
            [0.5625, 0.5625, 0.6875],
            [0.0, 0.09375, 0.0],
            sender=node_a,
            recipient=node_b,
            dynamics=dynamics,
            probe=lambda network: network.has_channel(node_a, node_b),
        )
        # The second request's wait spans the close at 0.625, so it routes
        # on the closed network, offered again by the 0.6875 arrival.
        assert submitted == [(0, 0.5625), (1, 0.65625), (2, 0.6875)]
        channel_open = [entry[3] for entry in log if entry[0] == "submit"]
        assert channel_open == [True, False, False]

    def test_zero_and_non_zero_waits_mixed(self):
        # Like Splicer: unplaced senders route at once, clients wait.
        times = [0.125, 0.125, 0.25, 0.3125, 0.5, 0.5]
        waits = [0.0, 0.375, 0.0, 0.375, 0.0, 0.375]
        _, _, submitted = self._waited(times, waits)
        assert submitted == [
            (0, 0.125), (2, 0.25), (1, 0.5), (4, 0.5), (3, 0.6875), (5, 0.875),
        ]

    def test_per_request_waits_reorder_requests(self):
        # Like Flash: an elephant waits longer than the mice behind it.
        _, _, submitted = self._waited([0.125, 0.1875, 0.25], [0.5, 0.125, 0.03125])
        assert submitted == [(2, 0.28125), (1, 0.3125), (0, 0.625)]

    def test_wait_outlasting_the_run_is_generated_but_never_routed(self):
        # The run ends at 1.5; the second request would be ready at 2.0.
        metrics, _, submitted = self._waited([0.25, 1.0], [0.0, 1.0])
        assert submitted == [(0, 0.25)]
        assert metrics.generated_count == 2
        assert metrics.completed_count + metrics.failed_count == 1
