"""Tests for the atomic source-routing baselines and their shared intake."""

import pytest

from repro.baselines import (
    FlashScheme,
    LandmarkScheme,
    ShortestPathScheme,
    SpeedyMurmursScheme,
    WaterfillingScheme,
)
from repro.baselines.base import SourceComputationModel
from repro.baselines.batch import AtomicBatchExecutor
from repro.routing.transaction import HOP_DELAY, FailureReason, Payment
from repro.simulator.experiment import ExperimentRunner
from repro.simulator.workload import TransactionRequest, WorkloadConfig, generate_workload
from repro.topology.channel import EPS
from repro.topology.pathcsr import PathCSR


def _request(sender, recipient, value, time=0.0):
    return TransactionRequest(arrival_time=time, sender=sender, recipient=recipient, value=value)


#: Each atomic scheme with the probe messages one unroutable payment costs:
#: shortest-path probes its one path whether or not it exists.
ATOMIC_SCHEMES = {
    "shortest-path": (ShortestPathScheme, 1),
    "landmark": (LandmarkScheme, 0),
    "flash": (FlashScheme, 0),
    "speedymurmurs": (SpeedyMurmursScheme, 0),
    "waterfilling": (WaterfillingScheme, 0),
}


@pytest.mark.parametrize("value", [5.0, 100.0], ids=["mouse", "elephant"])
@pytest.mark.parametrize("name", sorted(ATOMIC_SCHEMES))
def test_disconnected_recipient_fails(line_network, name, value):
    factory, probes = ATOMIC_SCHEMES[name]
    line_network.add_node("island")
    scheme = factory()
    scheme.prepare(line_network)
    balances = list(line_network.balance_store.values)
    messages = scheme.control_messages
    payment = scheme.submit(_request("n0", "island", value), now=0.0)
    assert payment.failure_reason == FailureReason.NO_PATH.value
    assert payment in scheme.step(0.1, 0.1).failed
    assert list(line_network.balance_store.values) == balances
    assert scheme.control_messages - messages == probes


class TestSourceComputationModel:
    def test_delay_scales_with_network_size(self):
        model = SourceComputationModel(base_delay=0.05, reference_size=100)
        assert model.delay_for(100) == pytest.approx(0.05)
        assert model.delay_for(3000) == pytest.approx(1.5)
        assert model.delay_for(0) == 0.0


class TestShortestPathScheme:
    def test_successful_payment(self, line_network):
        scheme = ShortestPathScheme()
        scheme.prepare(line_network)
        payment = scheme.submit(_request("n0", "n4", 10.0), now=0.0)
        report = scheme.step(0.1, 0.1)
        assert payment.is_complete
        assert payment in report.completed
        assert line_network.available("n0", "n1") == pytest.approx(40.0)

    def test_insufficient_capacity_fails(self, line_network):
        scheme = ShortestPathScheme()
        scheme.prepare(line_network)
        payment = scheme.submit(_request("n0", "n4", 60.0), now=0.0)
        report = scheme.step(0.1, 0.1)
        assert payment.is_failed
        assert payment in report.failed
        # All-or-nothing: nothing moved.
        assert line_network.available("n0", "n1") == pytest.approx(50.0)

    def test_step_clears_buffer(self, line_network):
        scheme = ShortestPathScheme()
        scheme.prepare(line_network)
        scheme.submit(_request("n0", "n4", 1.0), now=0.0)
        first = scheme.step(0.1, 0.1)
        second = scheme.step(0.2, 0.1)
        assert len(first.completed) == 1
        assert second.completed == []

    def test_extra_delay_uses_network_size(self, line_network):
        scheme = ShortestPathScheme()
        scheme.computation = SourceComputationModel(base_delay=0.1, reference_size=5)
        scheme.prepare(line_network)
        payment = scheme.submit(_request("n0", "n4", 1.0), now=0.0)
        assert scheme.extra_delay(payment) == pytest.approx(0.1)

    def test_wait_past_the_timeout_fails_every_payment(self, small_ws_network):
        # 30 nodes at 5 s per 100 nodes: a 1.5 s wait against a 1 s timeout.
        scheme = ShortestPathScheme()
        scheme.timeout, scheme.computation = 1.0, SourceComputationModel(base_delay=5.0)
        workload = generate_workload(
            small_ws_network, WorkloadConfig(duration=2.0, arrival_rate=10.0, seed=3)
        )
        metrics = ExperimentRunner(small_ws_network, workload, drain_time=2.0).run_single(scheme)
        assert metrics.generated_count > 0
        assert metrics.failure_reasons == {FailureReason.TIMEOUT.value: metrics.generated_count}


class TestFlashScheme:
    def test_mouse_uses_single_precomputed_path(self, line_network):
        scheme = FlashScheme()
        scheme.prepare(line_network)
        payment = scheme.submit(_request("n0", "n4", 5.0), now=0.0)
        assert payment.is_complete

    def test_elephant_splits_across_paths(self, grid_network):
        scheme = FlashScheme()
        scheme.elephant_threshold = 10.0
        scheme.prepare(grid_network)
        # Each grid channel holds 50 tokens per direction, so 80 tokens cannot
        # fit on a single path but fits across the corner's two disjoint paths.
        payment = scheme.submit(_request((0, 0), (3, 3), 80.0), now=0.0)
        assert payment.is_complete

    def test_oversized_payment_fails_atomically(self, line_network):
        scheme = FlashScheme()
        scheme.elephant_threshold = 10.0
        scheme.prepare(line_network)
        payment = scheme.submit(_request("n0", "n4", 500.0), now=0.0)
        assert payment.is_failed
        assert line_network.available("n0", "n1") == pytest.approx(50.0)

    def test_mouse_paths_are_cached(self, line_network):
        scheme = FlashScheme()
        scheme.prepare(line_network)
        scheme.submit(_request("n0", "n4", 1.0), now=0.0)
        messages_after_first = scheme.overhead_messages()
        scheme.submit(_request("n0", "n4", 1.0), now=0.1)
        assert scheme.overhead_messages() == messages_after_first

    def test_elephants_pay_more_computation_delay(self, line_network):
        scheme = FlashScheme()
        scheme.elephant_threshold = 10.0
        scheme.prepare(line_network)
        mouse = scheme.submit(_request("n0", "n4", 1.0), now=0.0)
        elephant = scheme.submit(_request("n0", "n4", 20.0), now=0.0)
        assert scheme.extra_delay(elephant) > scheme.extra_delay(mouse)

    def test_unroutable_mouse_draws_no_random_number(self, grid_network):
        grid_network.add_node("island")
        scheme = FlashScheme()
        scheme.prepare(grid_network)
        state = scheme._rng.bit_generator.state
        scheme.submit(_request((0, 0), "island", 1.0), now=0.0)
        assert scheme._rng.bit_generator.state == state
        scheme.submit(_request((0, 0), (3, 3), 1.0), now=0.0)
        assert scheme._rng.bit_generator.state != state


class TestLandmarkScheme:
    def test_landmarks_are_best_connected(self, multi_star_network):
        scheme = LandmarkScheme()
        scheme.landmark_count = 3
        scheme.prepare(multi_star_network)
        assert all(str(l).startswith("hub") for l in scheme.landmarks)

    def test_payment_through_landmarks(self, multi_star_network):
        scheme = LandmarkScheme()
        scheme.landmark_count = 3
        scheme.prepare(multi_star_network)
        payment = scheme.submit(_request("client-0-0", "client-2-1", 10.0), now=0.0)
        assert payment.is_complete

    def test_overhead_counted(self, multi_star_network):
        scheme = LandmarkScheme()
        scheme.landmark_count = 2
        scheme.prepare(multi_star_network)
        scheme.submit(_request("client-0-0", "client-1-0", 5.0), now=0.0)
        assert scheme.overhead_messages() > 0


class TestExecutorCallerShares:
    """``execute(shares=...)``: the caller splits, the executor only locks.

    On the five-node line, ``n0 -> n2`` has no channel, so the second
    candidate path is dead.
    """

    PATHS = [("n0", "n1", "n2"), ("n0", "n2")]

    def _execute(self, network, shares):
        payment = Payment.create("n0", "n2", 5.0, timeout=3.0)
        ok = AtomicBatchExecutor(network, HOP_DELAY).execute(
            payment, PathCSR(network, self.PATHS), 0.0, shares=shares
        )
        return payment, ok

    def test_positive_share_on_a_dead_path_raises(self, line_network):
        before = list(line_network.balance_store.values)
        with pytest.raises(KeyError, match="no channel along path"):
            self._execute(line_network, [2.5, 2.5])
        assert list(line_network.balance_store.values) == before

    def test_zero_share_dead_path_is_skipped(self, line_network):
        payment, ok = self._execute(line_network, [5.0, 0.0])
        assert ok and payment.is_complete
        assert line_network.available("n0", "n1") == pytest.approx(45.0)
        assert line_network.available("n1", "n2") == pytest.approx(45.0)
        assert line_network.available("n2", "n1") == pytest.approx(55.0)

    def test_no_share_above_eps_fails_without_moving_funds(self, line_network):
        before = list(line_network.balance_store.values)
        payment, ok = self._execute(line_network, [EPS, 0.0])
        assert not ok and payment.is_failed
        assert payment.failure_reason == FailureReason.INSUFFICIENT_CAPACITY.value
        assert list(line_network.balance_store.values) == before
