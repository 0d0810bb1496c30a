"""Scalar price table, rate controller and router (equations 17-28).

The object-per-channel / loop-per-pair implementations the array kernels of
:mod:`repro.routing.state` were derived from:

* :class:`ChannelPrices` -- one channel's price state with the
  equation (21)-(22) update written out per endpoint,
* :class:`PriceTable` -- a dict of :class:`ChannelPrices` with hop-by-hop
  path queries, exposing the query surface of
  :class:`repro.routing.prices.PriceTable`,
* :class:`PathRateController` -- the per-pair gradient step (equation 26),
  demand cap (17) and per-channel required-funds report,
* :class:`RateRouter` -- the production dispatch engine wired to the three
  pieces above and to the networkx path selectors.

``tests/routing/test_backend_equivalence.py`` pins prices, rates and
end-to-end success ratios against production within 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.reference.topology import PATH_SELECTORS, path_capacity
from repro.routing import rate_control, router
from repro.routing.prices import ChannelKey, channel_key
from repro.topology.network import PCNetwork

NodeId = Hashable


@dataclass
class ChannelPrices:
    """Price state and per-interval observations for one channel.

    ``capacity_price`` is ``lambda_ab`` (shared by both directions); the three
    dicts are keyed by endpoint: ``imbalance_price`` is the per-direction
    ``mu`` of the sending endpoint, ``required_funds`` the ``n_a``/``n_b``
    reported by the rate controller, ``arrived_value`` the ``m_a``/``m_b``
    that entered the channel since the last price update.
    """

    node_a: NodeId
    node_b: NodeId
    capacity: float
    capacity_price: float = 0.0
    imbalance_price: Dict[NodeId, float] = field(default_factory=dict)
    required_funds: Dict[NodeId, float] = field(default_factory=dict)
    arrived_value: Dict[NodeId, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for node in (self.node_a, self.node_b):
            self.imbalance_price.setdefault(node, 0.0)
            self.required_funds.setdefault(node, 0.0)
            self.arrived_value.setdefault(node, 0.0)

    def observe_arrival(self, sender: NodeId, value: float) -> None:
        """Record value sent into the channel from ``sender`` this interval."""
        self._check(sender)
        self.arrived_value[sender] += value

    def set_required_funds(self, node: NodeId, funds: float) -> None:
        """Set ``n_node``: the funds needed to sustain the node's sending rate."""
        self._check(node)
        self.required_funds[node] = max(funds, 0.0)

    def update(self, kappa: float, eta: float) -> None:
        """Apply one price-update step (equations 21-22) and reset the
        interval observations; normalization as documented on
        :meth:`repro.routing.state.ChannelArrays.update_prices`."""
        scale = max(self.capacity, 1e-9)
        total_required = self.required_funds[self.node_a] + self.required_funds[self.node_b]
        self.capacity_price = max(
            0.0, self.capacity_price + kappa * (total_required - self.capacity) / scale
        )
        arrived_a = self.arrived_value[self.node_a]
        arrived_b = self.arrived_value[self.node_b]
        delta = eta * (arrived_a - arrived_b) / scale
        self.imbalance_price[self.node_a] = max(0.0, self.imbalance_price[self.node_a] + delta)
        self.imbalance_price[self.node_b] = max(0.0, self.imbalance_price[self.node_b] - delta)
        self.arrived_value = {self.node_a: 0.0, self.node_b: 0.0}

    def routing_price(self, sender: NodeId) -> float:
        """``xi`` for the ``sender -> other`` direction (equation 23)."""
        self._check(sender)
        receiver = self.node_b if sender == self.node_a else self.node_a
        return (
            2.0 * self.capacity_price
            + self.imbalance_price[sender]
            - self.imbalance_price[receiver]
        )

    def forwarding_fee(self, sender: NodeId, t_fee: float) -> float:
        """Fee the sender-side hub pays the receiver-side hub (equation 24)."""
        return max(0.0, t_fee * self.routing_price(sender))

    def _check(self, node: NodeId) -> None:
        if node not in (self.node_a, self.node_b):
            raise KeyError(f"{node!r} is not an endpoint of channel {self.node_a!r}-{self.node_b!r}")


class PriceTable:
    """All channel prices of a PCN as one :class:`ChannelPrices` per channel."""

    def __init__(self, network: PCNetwork, kappa: float, eta: float, t_fee: float) -> None:
        if not 0.0 < t_fee < 1.0:
            raise ValueError("T_fee must be in (0, 1)")
        self.network = network
        self.kappa = float(kappa)
        self.eta = float(eta)
        self.t_fee = float(t_fee)
        self._prices: Dict[ChannelKey, ChannelPrices] = {}
        self._version = 0
        for channel in network.channels():
            key = channel_key(channel.node_a, channel.node_b)
            self._prices[key] = ChannelPrices(key[0], key[1], channel.capacity)

    def prices(self, node_a: NodeId, node_b: NodeId) -> ChannelPrices:
        """Price state of the channel between two adjacent nodes.

        Channels opened after the table was built (network dynamics) get a
        fresh zero-price entry on first access.
        """
        key = channel_key(node_a, node_b)
        try:
            return self._prices[key]
        except KeyError:
            if self.network.has_channel(node_a, node_b):
                channel = self.network.channel(node_a, node_b)
                self._prices[key] = ChannelPrices(key[0], key[1], channel.capacity)
                return self._prices[key]
            raise KeyError(f"no priced channel between {node_a!r} and {node_b!r}") from None

    def _lenient_prices(self, node_a: NodeId, node_b: NodeId) -> ChannelPrices:
        """Entry for a channel, creating a zero-capacity placeholder for a
        channel with neither price state nor a live network channel (prices
        like an overloaded channel; the dispatch capacity guard keeps units
        off it) -- the economics production gives a dead path."""
        try:
            return self.prices(node_a, node_b)
        except KeyError:
            key = channel_key(node_a, node_b)
            entry = ChannelPrices(key[0], key[1], 0.0)
            self._prices[key] = entry
            return entry

    def all_prices(self) -> Iterable[ChannelPrices]:
        """Iterate over every channel's price state."""
        return self._prices.values()

    def observe_transfer(self, sender: NodeId, receiver: NodeId, value: float) -> None:
        """Record that ``value`` moved ``sender -> receiver`` this interval."""
        self.prices(sender, receiver).observe_arrival(sender, value)

    def set_required_funds(
        self, sender: NodeId, receiver: NodeId, funds: float, lenient: bool = False
    ) -> None:
        """Report the funds needed to sustain the sender's rate on a channel."""
        entry = self._lenient_prices(sender, receiver) if lenient else self.prices(sender, receiver)
        entry.set_required_funds(sender, funds)

    def update_all(self) -> None:
        """Run the per-interval price update (equations 21-22) on every channel."""
        for prices in self._prices.values():
            prices.update(self.kappa, self.eta)
        self._version += 1

    @property
    def price_version(self) -> int:
        """Counter of :meth:`update_all` calls: prices move only there
        (direct mutation of a :class:`ChannelPrices` entry is not tracked)."""
        return self._version

    def channel_price(self, sender: NodeId, receiver: NodeId) -> float:
        """Routing price ``xi`` of one directed channel hop."""
        return self.prices(sender, receiver).routing_price(sender)

    def channel_fee(self, sender: NodeId, receiver: NodeId) -> float:
        """Forwarding fee of one directed channel hop."""
        return max(0.0, self.t_fee * self.channel_price(sender, receiver))

    def path_prices(self, paths: Sequence[Sequence[NodeId]]) -> np.ndarray:
        """Routing prices of many paths (lenient towards dead hops)."""
        return np.asarray(
            [
                (1.0 + self.t_fee)
                * sum(
                    self._lenient_prices(a, b).routing_price(a)
                    for a, b in zip(path, path[1:])
                )
                for path in paths
            ]
        )

    def _max_gap(self, path: Sequence[NodeId]) -> float:
        worst = float("-inf")
        for sender, receiver in zip(path, path[1:]):
            imbalance = self._lenient_prices(sender, receiver).imbalance_price
            worst = max(worst, imbalance[sender] - imbalance[receiver])
        return worst

    def paths_blocked(self, paths: Sequence[Sequence[NodeId]], max_gap: float) -> np.ndarray:
        """Boolean mask of paths whose worst hop violates the balance bound."""
        return np.asarray([self._max_gap(path) > max_gap for path in paths])

    def path_capacities(self, paths: Sequence[Sequence[NodeId]]) -> np.ndarray:
        """Bottleneck spendable funds of many paths, hop by hop."""
        return np.asarray([path_capacity(self.network, path) for path in paths])

    def path_capacity(self, path: Sequence[NodeId]) -> float:
        """Bottleneck spendable funds of one path, hop by hop."""
        return path_capacity(self.network, path)


class PathRateController(rate_control.PathRateController):
    """The production controller's registry with per-pair update loops."""

    def update_rates(self, price_table: PriceTable) -> None:
        """One gradient step on every registered pair (equation 26)."""
        for state in self._pairs.values():
            if not state.paths:
                continue
            total = max(state.total_rate, self.min_rate if self.min_rate > 0 else 1e-6)
            marginal_utility = 1.0 / total
            new_rates = []
            prices = price_table.path_prices(state.paths)
            for path, rate, price in zip(state.paths, state.rates, prices):
                price = float(price)
                updated = rate + self.alpha * (marginal_utility - price)
                updated = max(updated, self.min_rate)
                new_rates.append(updated)
            state.rates = new_rates
            self._enforce_demand(state)

    def _enforce_demand(self, state: rate_control.PairRateState) -> None:
        """Scale rates down so the pair's total rate respects its demand cap."""
        if state.demand_rate is None:
            return
        total = state.total_rate
        if total <= state.demand_rate or total <= 0:
            return
        scale = state.demand_rate / total
        state.rates = [rate * scale for rate in state.rates]

    def report_required_funds(self, price_table: PriceTable, settlement_delay: float) -> None:
        """Publish ``n_a`` / ``n_b`` (required funds) to the price table.

        The funds a sender needs on a channel to sustain its rates is the sum
        of ``rate * settlement_delay`` over every registered path that uses
        the channel in that direction (section IV-D).
        """
        required: Dict[Tuple[NodeId, NodeId], float] = {}
        for state in self._pairs.values():
            for path, rate in zip(state.paths, state.rates):
                for sender, receiver in zip(path, path[1:]):
                    key = (sender, receiver)
                    required[key] = required.get(key, 0.0) + rate * settlement_delay
        for (sender, receiver), funds in required.items():
            # Lenient: a registered path can traverse a channel that dynamics
            # retired before it was ever priced.
            price_table.set_required_funds(sender, receiver, funds, lenient=True)


class RateRouter(router.RateRouter):
    """The production dispatch engine over the scalar table, controller and selectors."""

    price_table_type = PriceTable
    rate_controller_type = PathRateController

    def __init__(self, network: PCNetwork, config: Optional[router.RouterConfig] = None) -> None:
        super().__init__(network, config)
        self._select_paths = PATH_SELECTORS[self.config.path_type.lower()]

    def _maybe_prune_paths(self) -> None:
        """The scalar table keeps no path index, so there is nothing to prune."""
