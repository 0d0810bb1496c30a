"""Tests for the price-based rate controller (equation 26)."""

import pytest

from repro.routing.prices import PriceTable
from repro.routing.rate_control import PathRateController


@pytest.fixture
def table(line_network) -> PriceTable:
    return PriceTable(line_network)


@pytest.fixture
def controller() -> PathRateController:
    return PathRateController(alpha=1.0, min_rate=0.5, initial_rate=5.0)


PATHS = [("n0", "n1", "n2"), ("n0", "n1", "n2", "n3")]


class TestRegistration:
    def test_register_pair_sets_initial_rates(self, controller):
        state = controller.register_pair("n0", "n2", PATHS)
        assert state.rates == [5.0, 5.0]
        assert state.total_rate == 10.0

    def test_reregistration_keeps_existing_rates(self, controller):
        controller.register_pair("n0", "n2", PATHS)
        controller.pair_state("n0", "n2").rates = [1.0, 2.0]
        state = controller.register_pair("n0", "n2", [PATHS[0], ("n0", "n4")])
        assert state.rates[0] == 1.0
        assert state.rates[1] == 5.0  # new path starts at the initial rate
        # A search that found nothing keeps the registered paths and rates.
        assert controller.register_pair("n0", "n2", []) is state
        assert state.paths == [PATHS[0], ("n0", "n4")]
        assert state.rates == [1.0, 5.0]

    def test_pair_state_lookup(self, controller):
        assert controller.pair_state("n0", "n2") is None
        controller.register_pair("n0", "n3", [])
        controller.register_pair("n0", "n2", PATHS)
        assert controller.pair_state("n0", "n2") is not None
        assert controller.pair_state("n0", "n3").paths == []
        # The registry runs in order of first non-empty registration.
        controller.register_pair("n0", "n3", [("n0", "n1", "n2", "n3")])
        assert [(s.source, s.target) for s in controller.pairs()] == [("n0", "n2"), ("n0", "n3")]

    def test_drop_pair(self, controller):
        controller.register_pair("n0", "n2", PATHS)
        controller.drop_pair("n0", "n2")
        assert controller.pair_state("n0", "n2") is None

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PathRateController(alpha=0.0)
        with pytest.raises(ValueError):
            PathRateController(min_rate=-1.0)


class TestRateUpdates:
    def test_zero_price_increases_rates(self, controller, table):
        controller.register_pair("n0", "n2", PATHS)
        before = controller.pair_state("n0", "n2").total_rate
        controller.update_rates(table)
        assert controller.pair_state("n0", "n2").total_rate > before

    def test_high_price_decreases_rates(self, controller, table):
        controller.register_pair("n0", "n2", PATHS)
        table.prices("n0", "n1").capacity_price = 10.0
        controller.update_rates(table)
        state = controller.pair_state("n0", "n2")
        assert all(rate < 5.0 for rate in state.rates)

    def test_rates_never_below_floor(self, controller, table):
        controller.register_pair("n0", "n2", PATHS)
        table.prices("n0", "n1").capacity_price = 1000.0
        for _ in range(10):
            controller.update_rates(table)
        assert all(rate == pytest.approx(0.5) for rate in controller.pair_state("n0", "n2").rates)

    def test_demand_cap_scales_rates(self, controller, table):
        controller.register_pair("n0", "n2", PATHS)
        controller.pair_state("n0", "n2").demand_rate = 4.0
        controller.update_rates(table)
        assert controller.pair_state("n0", "n2").total_rate <= 4.0 + 1e-9

    def test_boost_raises_rates_towards_demand(self, controller):
        controller.register_pair("n0", "n2", PATHS)
        controller.boost_rates("n0", "n2", 40.0)
        assert controller.pair_state("n0", "n2").total_rate == pytest.approx(40.0)

    def test_boost_respects_per_path_caps(self, controller):
        controller.register_pair("n0", "n2", PATHS)
        caps = {PATHS[0]: 6.0, PATHS[1]: 6.0}
        controller.boost_rates("n0", "n2", 100.0, per_path_caps=caps)
        assert all(rate <= 6.0 + 1e-9 for rate in controller.pair_state("n0", "n2").rates)

    def test_boost_never_lowers_rates(self, controller):
        controller.register_pair("n0", "n2", PATHS)
        controller.boost_rates("n0", "n2", 1.0)
        assert all(rate == pytest.approx(5.0) for rate in controller.pair_state("n0", "n2").rates)

    def test_boost_for_unknown_pair_is_noop(self, controller):
        controller.boost_rates("x", "y", 10.0)


class TestPriceTableInteraction:
    def test_required_funds_reported_per_channel(self, controller, table):
        controller.register_pair("n0", "n2", PATHS)
        controller.report_required_funds(table, settlement_delay=1.0)
        entry = table.prices("n0", "n1")
        # Both paths traverse n0 -> n1, so the requirement is the sum of both rates.
        assert entry.required_funds["n0"] == pytest.approx(10.0)
        # Only the longer path traverses n2 -> n3.
        assert table.prices("n2", "n3").required_funds["n2"] == pytest.approx(5.0)
