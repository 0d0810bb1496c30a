"""Tests for capacity/imbalance pricing (equations 21-25)."""

import pytest

from repro.reference.routing import ChannelPrices
from repro.routing.prices import PriceTable, channel_key


@pytest.fixture
def prices() -> ChannelPrices:
    return ChannelPrices("a", "b", capacity=100.0)


class TestChannelPrices:
    def test_initial_prices_are_zero(self, prices):
        assert prices.capacity_price == 0.0
        assert prices.routing_price("a") == 0.0
        assert prices.routing_price("b") == 0.0

    def test_capacity_price_rises_when_overloaded(self, prices):
        prices.set_required_funds("a", 80.0)
        prices.set_required_funds("b", 60.0)
        prices.update(kappa=0.1, eta=0.1)
        assert prices.capacity_price > 0.0

    def test_capacity_price_stays_zero_when_underloaded(self, prices):
        prices.set_required_funds("a", 10.0)
        prices.set_required_funds("b", 10.0)
        prices.update(kappa=0.1, eta=0.1)
        assert prices.capacity_price == 0.0

    def test_capacity_price_decays_back(self, prices):
        prices.set_required_funds("a", 200.0)
        prices.set_required_funds("b", 0.0)
        prices.update(kappa=0.1, eta=0.1)
        high = prices.capacity_price
        prices.set_required_funds("a", 0.0)
        prices.update(kappa=0.1, eta=0.1)
        assert prices.capacity_price < high

    def test_imbalance_price_rises_in_heavy_direction(self, prices):
        prices.observe_arrival("a", 50.0)
        prices.observe_arrival("b", 10.0)
        prices.update(kappa=0.1, eta=0.1)
        assert prices.imbalance_price["a"] > 0.0
        assert prices.imbalance_price["b"] == 0.0
        assert prices.routing_price("a") > prices.routing_price("b")

    def test_balanced_flow_keeps_prices_zero(self, prices):
        prices.observe_arrival("a", 30.0)
        prices.observe_arrival("b", 30.0)
        prices.update(kappa=0.1, eta=0.1)
        assert prices.imbalance_price["a"] == 0.0
        assert prices.imbalance_price["b"] == 0.0

    def test_observations_reset_after_update(self, prices):
        prices.observe_arrival("a", 30.0)
        prices.update(kappa=0.1, eta=0.1)
        assert prices.arrived_value["a"] == 0.0

    def test_routing_price_formula(self, prices):
        prices.capacity_price = 2.0
        prices.imbalance_price["a"] = 1.0
        prices.imbalance_price["b"] = 0.25
        assert prices.routing_price("a") == pytest.approx(2 * 2.0 + 1.0 - 0.25)
        assert prices.routing_price("b") == pytest.approx(2 * 2.0 + 0.25 - 1.0)

    def test_forwarding_fee_is_thresholded_price(self, prices):
        prices.capacity_price = 1.0
        assert prices.forwarding_fee("a", t_fee=0.1) == pytest.approx(0.1 * 2.0)

    def test_forwarding_fee_never_negative(self, prices):
        prices.imbalance_price["b"] = 5.0
        assert prices.forwarding_fee("a", t_fee=0.1) == 0.0

    def test_unknown_endpoint_rejected(self, prices):
        with pytest.raises(KeyError):
            prices.routing_price("z")


class TestPriceTable:
    def test_builds_entry_per_channel(self, line_network):
        table = PriceTable(line_network, kappa=0.01, eta=0.01, t_fee=0.01)
        assert len(list(table.all_prices())) == line_network.channel_count()

    def test_path_price_sums_channel_prices(self, line_network):
        table = PriceTable(line_network, kappa=0.01, eta=0.01, t_fee=0.01)
        entry = table.prices("n0", "n1")
        entry.capacity_price = 1.0
        path = ["n0", "n1", "n2"]
        expected = (1.0 + 0.01) * (2.0 + 0.0)
        assert table.path_prices([path])[0] == pytest.approx(expected)

    def test_observe_transfer_feeds_imbalance(self, line_network):
        table = PriceTable(line_network, kappa=0.01, eta=0.5, t_fee=0.01)
        table.observe_transfer("n0", "n1", 40.0)
        table.update_all()
        assert table.channel_price("n0", "n1") > table.channel_price("n1", "n0")

    def test_set_required_funds_feeds_capacity_price(self, line_network):
        table = PriceTable(line_network, kappa=0.5, eta=0.01, t_fee=0.01)
        table.set_required_funds("n0", "n1", 500.0)
        table.update_all()
        assert table.channel_price("n0", "n1") > 0.0

    def test_channel_fee(self, line_network):
        table = PriceTable(line_network, kappa=0.01, eta=0.01, t_fee=0.1)
        table.prices("n0", "n1").capacity_price = 1.0
        assert table.channel_fee("n0", "n1") == pytest.approx(0.1 * 2.0)

    def test_unknown_channel_rejected(self, line_network):
        table = PriceTable(line_network, kappa=0.01, eta=0.01, t_fee=0.01)
        with pytest.raises(KeyError):
            table.prices("n0", "n4")

    def test_invalid_t_fee_rejected(self, line_network):
        with pytest.raises(ValueError):
            PriceTable(line_network, kappa=0.01, eta=0.01, t_fee=1.5)

    def test_channel_key_is_order_independent(self):
        assert channel_key("b", "a") == channel_key("a", "b")
