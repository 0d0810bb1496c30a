"""Tests for the Spider, A2L and Splicer scheme wrappers."""

import pytest

from repro.baselines import A2LScheme, SpiderScheme, SplicerScheme
from repro.baselines.base import SourceComputationModel
from repro.baselines.splicer_scheme import CLIENT_HUB_HOP_DELAY, EPOCH_DURATION
from repro.core.config import SplicerConfig
from repro.routing.router import RouterConfig
from repro.simulator.experiment import ExperimentRunner
from repro.simulator.workload import TransactionRequest, WorkloadConfig, generate_workload


def _request(sender, recipient, value, time=0.0):
    return TransactionRequest(arrival_time=time, sender=sender, recipient=recipient, value=value)


def _run(scheme, duration, dt=0.1, start=0.0):
    reports = []
    steps = int(duration / dt)
    for index in range(1, steps + 1):
        reports.append(scheme.step(start + index * dt, dt))
    completed = [p for r in reports for p in r.completed]
    failed = [p for r in reports for p in r.failed]
    return completed, failed


class TestSpiderScheme:
    def test_payment_completes_after_computation_delay(self, line_network):
        scheme = SpiderScheme()
        scheme.computation = SourceComputationModel(base_delay=0.2, reference_size=5)
        scheme.prepare(line_network)
        # The sender is still computing paths, so nothing is routed yet.
        assert scheme.route_batch([_request("n0", "n4", 6.0)]) == []
        completed, _ = _run(scheme, 2.0)
        assert [payment.created_at for payment in completed] == [0.0]
        assert completed[0].is_complete

    def test_uses_eds_paths_without_imbalance_pricing(self):
        scheme = SpiderScheme()
        assert scheme.router_config.path_type == "eds"
        assert not scheme.router_config.imbalance_pricing_enabled

    def test_extra_delay_grows_with_network(self, line_network, funded_ws_network):
        scheme = SpiderScheme()
        scheme.prepare(line_network)
        small_delay = scheme.extra_delay(None)
        scheme.prepare(funded_ws_network)
        large_delay = scheme.extra_delay(None)
        assert large_delay > small_delay

    def test_step_before_prepare_rejected(self):
        with pytest.raises(RuntimeError):
            SpiderScheme().step(0.1, 0.1)

    def test_unroutable_payment_reported_failed(self, line_network):
        line_network.add_node("island")
        scheme = SpiderScheme()
        scheme.computation = SourceComputationModel(base_delay=0.0)
        scheme.prepare(line_network)
        payment = scheme.submit(_request("n0", "island", 1.0), now=0.0)
        _, failed = _run(scheme, 0.5)
        assert payment in failed


class TestA2LScheme:
    def test_hub_is_best_connected_node(self, multi_star_network):
        scheme = A2LScheme()
        scheme.prepare(multi_star_network)
        assert str(scheme.hub).startswith("hub")

    def test_payment_via_hub(self, multi_star_network):
        scheme = A2LScheme()
        scheme.prepare(multi_star_network)
        payment = scheme.submit(_request("client-0-0", "client-1-1", 10.0), now=0.0)
        completed, _ = _run(scheme, 1.0)
        assert payment.is_complete
        assert payment in completed

    def test_hub_processing_rate_limits_throughput(self, multi_star_network):
        scheme = A2LScheme()
        scheme.hub_capacity_per_second, scheme.timeout = 2.0, 1.0
        scheme.prepare(multi_star_network)
        for _ in range(30):
            scheme.submit(_request("client-0-0", "client-1-1", 1.0, time=0.0), now=0.0)
        completed, failed = _run(scheme, 3.0)
        assert len(failed) > 0
        assert len(completed) < 30

    def test_payment_larger_than_hub_channel_fails(self, multi_star_network):
        scheme = A2LScheme()
        scheme.prepare(multi_star_network)
        payment = scheme.submit(_request("client-0-0", "client-1-1", 5000.0), now=0.0)
        _, failed = _run(scheme, 1.0)
        assert payment in failed

    def test_extra_delay_is_crypto_delay(self, multi_star_network):
        scheme = A2LScheme()
        scheme.prepare(multi_star_network)
        assert scheme.extra_delay(None) == scheme.crypto_delay == pytest.approx(0.05)


class TestSplicerScheme:
    @pytest.fixture
    def scheme(self, small_ws_network):
        config = SplicerConfig(
            router=RouterConfig(path_count=3, hop_delay=0.01),
            placement_method="greedy",
        )
        scheme = SplicerScheme(config)
        scheme.prepare(small_ws_network)
        return scheme

    def test_prepare_runs_placement(self, scheme):
        assert scheme.placement_plan is not None
        assert scheme.placement_plan.hub_count >= 1

    def test_client_payment_completes(self, scheme, small_ws_network):
        clients = sorted(small_ws_network.clients(), key=repr)
        payment = scheme.submit(_request(clients[0], clients[-1], 5.0), now=0.0)
        completed, _ = _run(scheme, 2.0)
        assert payment.is_complete
        assert payment in completed

    def test_hub_sender_bypasses_client_workflow(self, scheme, small_ws_network):
        hub = scheme.placement_plan and sorted(scheme.placement_plan.hubs, key=repr)[0]
        client = sorted(small_ws_network.clients(), key=repr)[0]
        payment = scheme.submit(_request(hub, client, 3.0), now=0.0)
        completed, _ = _run(scheme, 2.0)
        assert payment in completed
        assert scheme.extra_delay(payment) == 0.0

    def test_extra_delay_reflects_client_hub_distance(self, scheme, small_ws_network):
        clients = sorted(small_ws_network.clients(), key=repr)
        payment = scheme.submit(_request(clients[0], clients[-1], 2.0), now=0.0)
        hub = scheme.placement_plan.assignment[clients[0]]
        expected = 2 * small_ws_network.hop_count(clients[0], hub) * CLIENT_HUB_HOP_DELAY
        assert expected > 0
        assert scheme.extra_delay(payment) == pytest.approx(expected)

    def test_refused_payments_are_reported_failed(self, small_ws_network):
        # A sender's queue holds at most 2 tokens, so most payments are refused.
        config = SplicerConfig(router=RouterConfig(queue_limit=2.0), placement_method="greedy")
        workload = generate_workload(
            small_ws_network, WorkloadConfig(duration=2.0, arrival_rate=10.0, seed=1)
        )
        runner = ExperimentRunner(small_ws_network, workload, drain_time=2.0)
        metrics = runner.run_single(SplicerScheme(config))
        assert metrics.failure_reasons.get("queue-full", 0) > 0
        assert metrics.generated_count == metrics.completed_count + metrics.failed_count

    def test_overhead_includes_sync_and_management(self, scheme, small_ws_network):
        clients = sorted(small_ws_network.clients(), key=repr)
        scheme.submit(_request(clients[0], clients[1], 2.0), now=0.0)
        _run(scheme, 2.5)
        assert scheme.overhead_messages() > 0

    def test_submit_before_prepare_rejected(self):
        with pytest.raises(RuntimeError):
            SplicerScheme().submit(_request("a", "b", 1.0), now=0.0)

    def test_step_before_prepare_rejected(self):
        scheme = SplicerScheme()
        assert scheme.placement_plan is None
        with pytest.raises(RuntimeError):
            scheme.step(0.1, 0.1)

    def test_unplaced_candidate_sender_has_no_management_delay(self, scheme, small_ws_network):
        unplaced = sorted(
            set(small_ws_network.candidates()) - set(scheme.placement_plan.hubs), key=repr
        )
        client = sorted(small_ws_network.clients(), key=repr)[0]
        payment = scheme.submit(_request(unplaced[0], client, 3.0), now=0.0)
        assert scheme.extra_delay(payment) == 0.0
        assert scheme.management_messages == 0

    def test_client_submission_is_dated_by_its_arrival(self, scheme, small_ws_network):
        # A request routed after its management delay keeps its arrival time.
        clients = sorted(small_ws_network.clients(), key=repr)
        payment = scheme.submit(_request(clients[0], clients[1], 2.0, time=0.5), now=0.8)
        assert payment.created_at == 0.5
        assert payment.deadline == pytest.approx(0.5 + scheme.timeout)
        assert scheme.management_messages == 3

    def test_overhead_is_read_after_every_step(self, scheme, small_ws_network):
        clients = sorted(small_ws_network.clients(), key=repr)
        scheme.submit(_request(clients[0], clients[-1], 5.0), now=0.0)
        for index in range(1, 16):
            scheme.step(index * 0.1, 0.1)
            assert scheme.overhead_messages() == (
                scheme.management_messages
                + scheme.acks_forwarded
                + scheme.sync_messages
                + scheme.router.total_probe_messages
            )
        assert scheme.acks_forwarded == 1


class _CollectingSplicer(SplicerScheme):
    """Splicer keeping every payment its steps report completed."""

    def prepare(self, network, rng=None):
        super().prepare(network, rng)
        self.completed = []

    def step(self, now, dt):
        report = super().step(now, dt)
        self.completed.extend(report.completed)
        return report


@pytest.mark.parametrize("step_size", [0.1, 0.3])
@pytest.mark.parametrize("seed", [1, 2])
def test_overhead_of_a_run_matches_independent_counts(small_ws_network, seed, step_size):
    """A full run's overhead, rebuilt from the workload and the finished payments.

    Every client submission costs 3 messages and every completed client
    payment 1 ACK; every hub pair exchanges one message at each epoch
    boundary the run crosses.  Only the probes are read from the router.
    """
    config = SplicerConfig(placement_method="greedy")
    workload = generate_workload(
        small_ws_network, WorkloadConfig(duration=3.0, arrival_rate=20.0, seed=seed)
    )
    runner = ExperimentRunner(small_ws_network, workload, step_size=step_size, drain_time=1.6)
    scheme = _CollectingSplicer(config)
    metrics = runner.run_single(scheme)

    clients = scheme.placement_plan.assignment
    submissions = sum(request.sender in clients for request in workload.requests)
    completed = sum(payment.sender in clients for payment in scheme.completed)
    hubs = scheme.placement_plan.hub_count
    epochs = int((workload.config.duration + runner.drain_time) // EPOCH_DURATION)
    assert submissions > 0 and 0 < completed < submissions and hubs > 1 and epochs == 4
    assert len(scheme.completed) == metrics.completed_count
    assert metrics.generated_count == len(workload.requests)
    assert metrics.overhead_messages == (
        3 * submissions
        + completed
        + hubs * (hubs - 1) * epochs
        + scheme.router.total_probe_messages
    )
