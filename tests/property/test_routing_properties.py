"""Property-based tests of routing-layer invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reference.routing import ChannelPrices
from repro.routing.router import RateRouter, RouterConfig
from repro.routing.transaction import Payment
from repro.topology.generators import watts_strogatz_pcn


@settings(max_examples=100, deadline=None)
@given(
    capacity=st.floats(min_value=1.0, max_value=1000.0),
    required_a=st.floats(min_value=0.0, max_value=2000.0),
    required_b=st.floats(min_value=0.0, max_value=2000.0),
    arrived_a=st.floats(min_value=0.0, max_value=500.0),
    arrived_b=st.floats(min_value=0.0, max_value=500.0),
    steps=st.integers(min_value=1, max_value=10),
)
def test_prices_stay_non_negative_and_fee_bounded(
    capacity, required_a, required_b, arrived_a, arrived_b, steps
):
    prices = ChannelPrices("a", "b", capacity=capacity)
    for _ in range(steps):
        prices.set_required_funds("a", required_a)
        prices.set_required_funds("b", required_b)
        prices.observe_arrival("a", arrived_a)
        prices.observe_arrival("b", arrived_b)
        prices.update(kappa=0.1, eta=0.1)
        assert prices.capacity_price >= 0.0
        assert prices.imbalance_price["a"] >= 0.0
        assert prices.imbalance_price["b"] >= 0.0
        # At most one direction carries a positive imbalance price surplus.
        assert min(prices.imbalance_price["a"], prices.imbalance_price["b"]) == pytest.approx(
            0.0, abs=1e-9
        )
        for sender in ("a", "b"):
            assert prices.forwarding_fee(sender, t_fee=0.1) >= 0.0


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1000),
    payment_count=st.integers(min_value=1, max_value=12),
)
def test_router_conserves_funds_and_resolves_every_payment(seed, payment_count):
    """After draining, no funds are created/destroyed and no payment is left dangling."""
    network = watts_strogatz_pcn(
        16, nearest_neighbors=4, uniform_channel_size=60.0, candidate_fraction=0.0, seed=seed
    )
    total_before = network.total_funds()
    router = RateRouter(network, RouterConfig(path_count=3))
    router.hop_delay = 0.01
    nodes = sorted(network.nodes(), key=repr)
    payments = []
    for index in range(payment_count):
        sender = nodes[index % len(nodes)]
        recipient = nodes[(index * 5 + 3) % len(nodes)]
        if sender == recipient:
            continue
        payment = Payment.create(sender, recipient, 3.0 + index, created_at=0.0, timeout=2.0)
        payments.append(payment)
        router.submit(payment, 0.0)
    for step in range(1, 41):
        router.step(step * 0.1, 0.1)
    assert network.total_funds() == pytest.approx(total_before, rel=1e-9)
    assert router.in_flight_count() == 0
    assert router.queued_unit_count() == 0
    for payment in payments:
        assert payment.is_complete or payment.is_failed
    for channel in network.channels():
        assert channel.balance(channel.node_a) >= -1e-9
        assert channel.balance(channel.node_b) >= -1e-9
