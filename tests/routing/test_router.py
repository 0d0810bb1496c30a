"""Tests for the rate-based routing engine (Algorithm 2)."""

import pytest

from repro.routing.router import RateRouter, RouterConfig
from repro.routing.transaction import Payment
from repro.topology.network import PCNetwork


def _run(router: RateRouter, duration: float, dt: float = 0.1):
    """Step the router and gather every report."""
    reports = []
    steps = int(duration / dt)
    for index in range(1, steps + 1):
        reports.append(router.step(index * dt, dt))
    return reports


def _completed(reports):
    return [payment for report in reports for payment in report.completed_payments]


def _failed(reports):
    return [payment for report in reports for payment in report.failed_payments]


@pytest.fixture
def fast_config() -> RouterConfig:
    return RouterConfig(path_count=3, hop_delay=0.01, update_interval=0.1)


class TestSubmission:
    def test_accepts_routable_payment(self, line_network, fast_config):
        router = RateRouter(line_network, fast_config)
        payment = Payment.create("n0", "n4", 10.0, created_at=0.0, timeout=3.0)
        decision = router.submit(payment, now=0.0)
        assert decision.accepted
        assert payment.units
        assert router.queued_unit_count() == len(payment.units)
        assert router.active_payment_count() == 1

    def test_rejects_unroutable_payment(self, line_network, fast_config):
        line_network.add_node("island")
        router = RateRouter(line_network, fast_config)
        payment = Payment.create("n0", "island", 5.0, created_at=0.0, timeout=3.0)
        decision = router.submit(payment, now=0.0)
        assert not decision.accepted
        assert decision.reason == "no path"
        assert payment.is_failed

    def test_rejects_when_queue_full(self, line_network):
        config = RouterConfig(queue_limit=5.0)
        router = RateRouter(line_network, config)
        first = Payment.create("n0", "n4", 4.0, created_at=0.0, timeout=3.0)
        second = Payment.create("n0", "n4", 4.0, created_at=0.0, timeout=3.0)
        assert router.submit(first, 0.0).accepted
        decision = router.submit(second, 0.0)
        assert not decision.accepted
        assert decision.reason == "queue full"

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            RouterConfig(path_count=0)
        with pytest.raises(ValueError):
            RouterConfig(update_interval=0.0)
        with pytest.raises(ValueError):
            RouterConfig(t_fee=1.0)


class TestDelivery:
    def test_simple_payment_completes(self, line_network, fast_config):
        router = RateRouter(line_network, fast_config)
        payment = Payment.create("n0", "n4", 10.0, created_at=0.0, timeout=3.0)
        router.submit(payment, 0.0)
        reports = _run(router, 2.0)
        assert payment.is_complete
        assert payment in _completed(reports)
        assert router.queued_unit_count() == 0
        assert router.in_flight_count() == 0

    def test_funds_move_along_the_path(self, line_network, fast_config):
        router = RateRouter(line_network, fast_config)
        payment = Payment.create("n0", "n4", 20.0, created_at=0.0, timeout=3.0)
        router.submit(payment, 0.0)
        _run(router, 2.0)
        assert line_network.available("n0", "n1") == pytest.approx(30.0)
        assert line_network.channel("n3", "n4").balance("n4") == pytest.approx(70.0)

    def test_total_funds_conserved(self, funded_ws_network, fast_config):
        router = RateRouter(funded_ws_network, fast_config)
        total_before = funded_ws_network.total_funds()
        clients = funded_ws_network.clients()
        for index in range(10):
            sender = clients[index]
            recipient = clients[-(index + 1)]
            if sender == recipient:
                continue
            router.submit(Payment.create(sender, recipient, 5.0, created_at=0.0, timeout=3.0), 0.0)
        _run(router, 2.0)
        assert funded_ws_network.total_funds() == pytest.approx(total_before)

    def test_multipath_splitting_beats_single_channel_capacity(self, fast_config):
        """A payment larger than any single channel completes over multiple paths."""
        net = PCNetwork()
        for node in ("s", "t", "m1", "m2", "m3"):
            net.add_node(node)
        for middle in ("m1", "m2", "m3"):
            net.add_channel("s", middle, 40.0, 40.0)
            net.add_channel(middle, "t", 40.0, 40.0)
        router = RateRouter(net, fast_config)
        payment = Payment.create("s", "t", 90.0, created_at=0.0, timeout=3.0)
        router.submit(payment, 0.0)
        _run(router, 2.5)
        assert payment.is_complete

    def test_fees_accumulate(self, line_network):
        config = RouterConfig(hop_delay=0.01)
        router = RateRouter(line_network, config)
        table = router.price_table
        table.prices("n0", "n1").capacity_price = 1.0
        payment = Payment.create("n0", "n2", 4.0, created_at=0.0, timeout=3.0)
        router.submit(payment, 0.0)
        _run(router, 1.0)
        assert router.total_fees_paid > 0.0

    def test_drain_helper(self, line_network, fast_config):
        router = RateRouter(line_network, fast_config)
        payment = Payment.create("n0", "n3", 8.0, created_at=0.0, timeout=5.0)
        router.submit(payment, 0.0)
        router.drain(now=0.0, dt=0.1)
        assert payment.is_complete


class TestFailures:
    def test_deadline_expiry_fails_payment(self, triangle_network, fast_config):
        # Leave almost no funds in the C -> B direction: a path exists, but no
        # transaction unit can traverse it, so the payment expires.
        triangle_network.channel("C", "B").transfer("C", 9.5)
        router = RateRouter(triangle_network, fast_config)
        payment = Payment.create("A", "B", 5.0, created_at=0.0, timeout=1.0)
        router.submit(payment, 0.0)
        reports = _run(router, 2.0)
        assert payment.is_failed
        assert payment in _failed(reports)
        assert router.active_payment_count() == 0

    def test_fully_drained_channel_rejected_at_submission(self, triangle_network, fast_config):
        # With C -> B completely empty there is no usable path at all, so the
        # router rejects the demand immediately instead of queueing it.
        triangle_network.channel("C", "B").transfer("C", 10.0)
        router = RateRouter(triangle_network, fast_config)
        payment = Payment.create("A", "B", 5.0, created_at=0.0, timeout=1.0)
        decision = router.submit(payment, 0.0)
        assert not decision.accepted
        assert payment.is_failed

    def test_failed_payment_releases_queue_space(self, triangle_network, fast_config):
        triangle_network.channel("C", "B").transfer("C", 9.5)
        router = RateRouter(triangle_network, fast_config)
        payment = Payment.create("A", "B", 5.0, created_at=0.0, timeout=0.5)
        router.submit(payment, 0.0)
        _run(router, 1.5)
        assert router.queued_unit_count() == 0
        assert router.congestion.queued_value("A") == pytest.approx(0.0)

    def test_mid_flight_channel_close_refunds_sender(self, line_network, fast_config):
        """A channel closing under an in-flight unit aborts it HTLC-style.

        Settlement propagates backward from the receiver, so hops upstream of
        the break (the sender's included) are released; the sender must not
        lose funds for a payment that is reported failed.
        """
        router = RateRouter(line_network, fast_config)
        payment = Payment.create("n0", "n4", 1.0, created_at=0.0, timeout=3.0)
        router.submit(payment, 0.0)
        now = 0.0
        for _ in range(20):  # dispatch takes a few steps while budgets accrue
            now += 0.1
            router.step(now, 0.1)
            if router.in_flight_count() == 1:
                break
        assert router.in_flight_count() == 1

        line_network.remove_channel("n2", "n3")
        after = router.step(now + 0.1, 0.1)

        assert after.aborted_units == 1
        assert payment.is_failed
        assert payment in after.failed_payments
        assert router.in_flight_count() == 0
        assert line_network.available("n0", "n1") == pytest.approx(50.0)
        assert line_network.available("n1", "n2") == pytest.approx(50.0)

    def test_no_negative_balances_ever(self, funded_ws_network, fast_config):
        router = RateRouter(funded_ws_network, fast_config)
        clients = funded_ws_network.clients()
        for index in range(15):
            sender = clients[index % len(clients)]
            recipient = clients[(index * 7 + 3) % len(clients)]
            if sender == recipient:
                continue
            router.submit(
                Payment.create(sender, recipient, 20.0, created_at=0.0, timeout=2.0), 0.0
            )
        _run(router, 3.0)
        for channel in funded_ws_network.channels():
            assert channel.balance(channel.node_a) >= -1e-9
            assert channel.balance(channel.node_b) >= -1e-9


class TestAblations:
    def test_runs_without_rate_control(self, line_network):
        config = RouterConfig(rate_control_enabled=False, hop_delay=0.01)
        router = RateRouter(line_network, config)
        payment = Payment.create("n0", "n4", 10.0, created_at=0.0, timeout=3.0)
        router.submit(payment, 0.0)
        _run(router, 1.0)
        assert payment.is_complete

    def test_runs_without_congestion_control(self, line_network):
        config = RouterConfig(congestion_control_enabled=False, hop_delay=0.01)
        router = RateRouter(line_network, config)
        payment = Payment.create("n0", "n4", 10.0, created_at=0.0, timeout=3.0)
        router.submit(payment, 0.0)
        _run(router, 1.0)
        assert payment.is_complete

    def test_imbalance_pricing_flag_disables_eta(self, line_network):
        config = RouterConfig(imbalance_pricing_enabled=False)
        router = RateRouter(line_network, config)
        assert router.price_table.eta == 0.0

    def test_scheduler_choice_respected(self, line_network):
        for scheduler in ("fifo", "lifo", "spf", "edf"):
            config = RouterConfig(scheduler=scheduler, hop_delay=0.01)
            router = RateRouter(line_network, config)
            payment = Payment.create("n0", "n2", 3.0, created_at=0.0, timeout=3.0)
            router.submit(payment, 0.0)
            _run(router, 1.0)
            assert payment.is_complete


class TestDeadlockAvoidance:
    def test_imbalance_pricing_preserves_relay_liquidity(self, triangle_network):
        """The figure-1 scenario: balanced pricing keeps C's side of (C, B) usable.

        A and C both push funds towards B while B only refunds A.  Without an
        imbalance price the relay channel (C, B) drains completely; with it,
        the router throttles the overloaded direction so C retains funds.
        """

        def run(imbalance_enabled: bool) -> float:
            network = PCNetwork()
            for node in ("A", "B", "C"):
                network.add_node(node)
            network.add_channel("A", "C", 10.0, 10.0)
            network.add_channel("C", "B", 10.0, 10.0)
            config = RouterConfig(
                path_count=1,
                hop_delay=0.01,
                imbalance_pricing_enabled=imbalance_enabled,
                eta=0.5,
            )
            router = RateRouter(network, config)
            now = 0.0
            for round_number in range(12):
                now = round_number * 0.3
                router.submit(Payment.create("A", "B", 1.0, created_at=now, timeout=3.0), now)
                router.submit(Payment.create("C", "B", 2.0, created_at=now, timeout=3.0), now)
                router.submit(Payment.create("B", "A", 2.0, created_at=now, timeout=3.0), now)
                router.step(now + 0.1, 0.1)
                router.step(now + 0.2, 0.1)
            router.drain(now + 0.2, 0.1, max_steps=100)
            return network.channel("C", "B").balance("C")

        with_pricing = run(imbalance_enabled=True)
        without_pricing = run(imbalance_enabled=False)
        assert with_pricing >= without_pricing
        assert with_pricing > 0.5


class TestEmptyPathSearch:
    """A channel closure disconnects a pair with queued demand.

    The goldens never reach a path search that finds nothing, so this pins
    what the router does then: it answers ``[]`` for ``path_refresh_interval``
    while the rate controller keeps the previous paths, which stay priced and
    get an uncapped demand boost; an expiry penalises the ``(sender,
    recipient)`` fallback window.
    """

    PATH = ("n0", "n1", "n2", "n3", "n4")

    def test_disconnected_pair_keeps_previous_paths(self, line_network, fast_config):
        router = RateRouter(line_network, fast_config)
        payment = Payment.create("n0", "n4", 10.0, created_at=0.0, timeout=1.5)
        assert router.submit(payment, 0.0).accepted
        line_network.remove_channel("n1", "n2")
        state = router.rate_controller.pair_state("n0", "n4")
        for step in range(1, 10):
            router.step(0.1 * step, 0.1)
        # Still cached: the dead hop's zero capacity caps the boost at the floor.
        assert state.rates == [pytest.approx(fast_config.min_rate)]

        for step in range(10, 16):  # the refresh at t = 1.0 finds no path
            router.step(0.1 * step, 0.1)
        assert router.queued_unit_count() == len(payment.units)
        assert router.rate_controller.pair_state("n0", "n4") is state
        assert state.paths == [self.PATH]
        # No path to cap it: the boost asks for the whole demand rate ...
        demand_rate = payment.value / fast_config.settlement_delay
        assert state.rates == [pytest.approx(demand_rate)]
        # ... and the kept path still reports its required funds.
        required = router.price_table.prices("n0", "n1").required_funds["n0"]
        assert required == pytest.approx(demand_rate * fast_config.settlement_delay)

        report = router.step(1.6, 0.1)
        assert payment in report.failed_payments
        assert router.queued_unit_count() == 0
        initial = router.congestion.initial_window
        assert router.congestion.window(("n0", "n4")).size == initial - fast_config.beta
        assert router.congestion.window(self.PATH).size == initial

        # The empty answer holds for path_refresh_interval despite the reopen.
        line_network.add_channel("n1", "n2", 50.0, 50.0)
        early = Payment.create("n0", "n4", 2.0, created_at=1.7, timeout=3.0)
        assert router.submit(early, 1.7).reason == "no path"
        late = Payment.create("n0", "n4", 2.0, created_at=2.0, timeout=3.0)
        assert router.submit(late, 2.0).accepted
        assert router.rate_controller.pair_state("n0", "n4").paths == [self.PATH]
        for step in range(21, 40):
            router.step(0.1 * step, 0.1)
        assert late.is_complete
