"""Tests for the rate-based routing engine (Algorithm 2)."""

import pytest

from repro.reference import routing as reference
from repro.routing.router import RateRouter, RouterConfig
from repro.routing.transaction import Payment, PaymentStatus
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
        router.submit(payment, now=0.0)
        assert payment.status is PaymentStatus.IN_FLIGHT
        assert payment.units
        assert router.queued_unit_count() == len(payment.units)

    def test_rejects_unroutable_payment(self, line_network, fast_config):
        line_network.add_node("island")
        router = RateRouter(line_network, fast_config)
        payment = Payment.create("n0", "island", 5.0, created_at=0.0, timeout=3.0)
        router.submit(payment, now=0.0)
        assert payment.is_failed
        assert payment.failure_reason == "no-path"

    def test_rejects_when_queue_full(self, line_network):
        config = RouterConfig(queue_limit=5.0)
        router = RateRouter(line_network, config)
        first = Payment.create("n0", "n4", 4.0, created_at=0.0, timeout=3.0)
        second = Payment.create("n0", "n4", 4.0, created_at=0.0, timeout=3.0)
        router.submit(first, 0.0)
        router.submit(second, 0.0)
        assert first.status is PaymentStatus.IN_FLIGHT
        assert second.is_failed
        assert second.failure_reason == "queue-full"

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            RouterConfig(path_count=0)
        with pytest.raises(ValueError):
            RouterConfig(update_interval=0.0)
        with pytest.raises(ValueError):
            RouterConfig(t_fee=1.0)
        with pytest.raises(ValueError):
            RouterConfig(queue_limit=0.0)

    @pytest.mark.parametrize(
        "option, value",
        [
            # The congestion windows (equations 27-28) and their factors ...
            ("congestion_control_enabled", False),
            ("beta", 10.0),
            ("gamma", 1.0),
            # ... and the queue-delay marking were deleted, not switched off.
            ("delay_threshold", 0.4),
        ],
    )
    def test_removed_options_rejected(self, option, value):
        with pytest.raises(TypeError, match=option):
            RouterConfig(**{option: value})


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

    def test_fully_drained_channel_rejected_at_submission(self, triangle_network, fast_config):
        # With C -> B completely empty there is no usable path at all, so the
        # router rejects the demand immediately instead of queueing it.
        triangle_network.channel("C", "B").transfer("C", 10.0)
        router = RateRouter(triangle_network, fast_config)
        payment = Payment.create("A", "B", 5.0, created_at=0.0, timeout=1.0)
        router.submit(payment, 0.0)
        assert payment.is_failed
        assert payment.failure_reason == "no-path"

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


class TestQueueAccounting:
    """A sender's queued value, which ``queue_limit`` bounds, returns to 0
    however its payment leaves the queue."""

    def test_completed_payment(self, line_network, fast_config):
        router = RateRouter(line_network, fast_config)
        payment = Payment.create("n0", "n4", 10.0, created_at=0.0, timeout=3.0)
        router.submit(payment, 0.0)
        assert router.queued_value("n0") == pytest.approx(10.0)
        assert router.queued_value("n4") == 0.0
        _run(router, 2.0)
        assert payment.is_complete
        assert router.queued_value("n0") == pytest.approx(0.0)

    def test_expired_payment(self, triangle_network, fast_config):
        triangle_network.channel("C", "B").transfer("C", 9.5)
        router = RateRouter(triangle_network, fast_config)
        payment = Payment.create("A", "B", 5.0, created_at=0.0, timeout=0.5)
        router.submit(payment, 0.0)
        assert router.queued_value("A") == pytest.approx(5.0)
        reports = _run(router, 1.5)
        assert payment in _failed(reports)
        assert router.queued_unit_count() == 0
        assert router.queued_value("A") == pytest.approx(0.0)

    def test_limit_is_inclusive_and_expiry_frees_it(self, triangle_network):
        triangle_network.channel("C", "B").transfer("C", 9.5)
        router = RateRouter(triangle_network, RouterConfig(queue_limit=5.0, hop_delay=0.01))

        def offer(value, now):
            payment = Payment.create("A", "B", value, created_at=now, timeout=0.5)
            router.submit(payment, now)
            return not payment.is_failed

        assert offer(5.0, 0.0)
        assert not offer(0.5, 0.0)
        _run(router, 1.0)  # the first payment expires and gives its value back
        assert offer(5.0, 1.0)

    def test_refused_payment(self, line_network):
        router = RateRouter(line_network, RouterConfig(queue_limit=5.0, hop_delay=0.01))
        first = Payment.create("n0", "n4", 4.0, created_at=0.0, timeout=3.0)
        refused = Payment.create("n0", "n4", 2.0, created_at=0.0, timeout=3.0)
        router.submit(first, 0.0)
        router.submit(refused, 0.0)
        assert first.status is PaymentStatus.IN_FLIGHT
        assert refused.failure_reason == "queue-full"
        assert router.queued_value("n0") == pytest.approx(4.0)
        # The bound is per sender: another sender still has the whole limit.
        other = Payment.create("n4", "n0", 5.0, created_at=0.0, timeout=3.0)
        router.submit(other, 0.0)
        assert other.status is PaymentStatus.IN_FLIGHT
        reports = _run(router, 2.0)
        assert refused in _failed(reports)
        assert first.is_complete and other.is_complete
        assert router.queued_value("n0") == pytest.approx(0.0)
        assert router.queued_value("n4") == pytest.approx(0.0)


    def test_mixed_outcomes_leave_nothing_held(self, triangle_network, fast_config):
        triangle_network.channel("C", "B").transfer("C", 9.5)
        router = RateRouter(triangle_network, fast_config)
        stuck = Payment.create("A", "B", 5.0, created_at=0.0, timeout=0.5)
        direct = Payment.create("A", "C", 3.0, created_at=0.0, timeout=3.0)
        router.submit(stuck, 0.0)
        router.submit(direct, 0.0)
        assert stuck.status is direct.status is PaymentStatus.IN_FLIGHT
        reports = _run(router, 1.5)
        assert _failed(reports) == [stuck]
        assert _completed(reports) == [direct]
        assert stuck.failure_reason == "timeout"
        assert router.in_flight_count() == 0
        assert router.queued_unit_count() == 0
        assert router.queued_value("A") == pytest.approx(0.0)


class TestAbortsDoNotThrottle:
    """Expired payments leave a pair's dispatch as it was.

    Under the paper's congestion windows (equations 27-28, not implemented)
    each expiry here would have shrunk the path's window, and the second
    unit of the next payment would have waited for the first to settle.
    """

    def test_both_units_launch_after_five_expiries(self, triangle_network):
        config = RouterConfig(path_count=1, hop_delay=0.01, rate_control_enabled=False)
        triangle_network.channel("C", "B").transfer("C", 9.5)
        router = RateRouter(triangle_network, config)
        stuck = [Payment.create("A", "B", 1.0, created_at=0.0, timeout=0.5) for _ in range(5)]
        for payment in stuck:
            router.submit(payment, 0.0)
        _run(router, 1.0)
        assert all(payment.is_failed for payment in stuck)

        triangle_network.channel("C", "B").transfer("B", 9.5)  # C's side refilled
        payment = Payment.create("A", "B", 8.0, created_at=1.0, timeout=3.0)
        router.submit(payment, 1.0)
        router.step(1.1, 0.1)
        assert len(payment.units) == 2
        assert router.in_flight_count() == 2
        for step in range(2, 6):
            router.step(1.0 + 0.1 * step, 0.1)
        assert payment.is_complete


class TestAblations:
    def test_runs_without_rate_control(self, line_network):
        config = RouterConfig(rate_control_enabled=False, hop_delay=0.01)
        router = RateRouter(line_network, config)
        payment = Payment.create("n0", "n4", 10.0, created_at=0.0, timeout=3.0)
        router.submit(payment, 0.0)
        _run(router, 1.0)
        assert payment.is_complete

    def test_runs_without_imbalance_pricing(self, line_network):
        config = RouterConfig(imbalance_pricing_enabled=False, hop_delay=0.01)
        router = RateRouter(line_network, config)
        payment = Payment.create("n0", "n4", 10.0, created_at=0.0, timeout=3.0)
        router.submit(payment, 0.0)
        _run(router, 1.0)
        assert payment.is_complete

    def test_imbalance_pricing_flag_disables_eta(self, line_network):
        config = RouterConfig(imbalance_pricing_enabled=False)
        router = RateRouter(line_network, config)
        assert router.price_table.eta == 0.0

    @pytest.mark.parametrize("router_class", [RateRouter, reference.RateRouter])
    def test_step_sizes_come_from_the_config(self, line_network, router_class):
        """``RouterConfig`` is the one source of the price and rate step sizes."""
        config = RouterConfig(
            kappa=0.2, eta=0.3, t_fee=0.05, alpha=0.7, initial_rate=7.0, min_rate=0.7
        )
        router = router_class(line_network, config)
        table, controller = router.price_table, router.rate_controller
        assert (table.kappa, table.eta, table.t_fee) == (0.2, 0.3, 0.05)
        assert (controller.alpha, controller.initial_rate, controller.min_rate) == (0.7, 7.0, 0.7)

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
    get an uncapped demand boost.
    """

    PATH = ("n0", "n1", "n2", "n3", "n4")

    def test_disconnected_pair_keeps_previous_paths(self, line_network, fast_config):
        router = RateRouter(line_network, fast_config)
        payment = Payment.create("n0", "n4", 10.0, created_at=0.0, timeout=1.5)
        router.submit(payment, 0.0)
        assert payment.status is PaymentStatus.IN_FLIGHT
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

        # The empty answer holds for path_refresh_interval despite the reopen.
        line_network.add_channel("n1", "n2", 50.0, 50.0)
        early = Payment.create("n0", "n4", 2.0, created_at=1.7, timeout=3.0)
        router.submit(early, 1.7)
        assert early.failure_reason == "no-path"
        late = Payment.create("n0", "n4", 2.0, created_at=2.0, timeout=3.0)
        router.submit(late, 2.0)
        assert late.status is PaymentStatus.IN_FLIGHT
        assert router.rate_controller.pair_state("n0", "n4").paths == [self.PATH]
        for step in range(21, 40):
            router.step(0.1 * step, 0.1)
        assert late.is_complete
