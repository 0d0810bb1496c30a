"""Channel pricing: capacity prices, imbalance prices, routing price and fee.

Equations (21)-(25) of the paper.  Every channel ``(a, b)`` carries

* one *capacity price* ``lambda_ab`` that rises when the funds needed to
  sustain the current rates in both directions exceed the channel capacity,
* two *imbalance prices* ``mu_ab`` and ``mu_ba`` that rise in the direction
  that recently carried more value than the reverse direction,

and exposes the derived per-direction *routing price*
``xi_ab = 2 lambda_ab + mu_ab - mu_ba`` and forwarding fee
``fee_ab = T_fee * xi_ab``.  The routing price of a path is
``(1 + T_fee) * sum of xi`` along the path.  Prices are updated every
``tau`` seconds from observations accumulated since the previous update.

All price state lives in the parallel arrays of
:class:`repro.routing.state.ChannelArrays`, indexed by a stable channel row
map, and the per-epoch update plus all per-path reductions run as vectorized
kernels (see :mod:`repro.routing.state`).  The one-object-per-channel scalar
table these kernels were derived from is :mod:`repro.reference.routing`;
the routing differential suite pins the two within 1e-9.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

import numpy as np

from repro.routing.state import ChannelArrays, PathIndex
from repro.topology.network import PCNetwork

NodeId = Hashable
ChannelKey = Tuple[NodeId, NodeId]


def channel_key(node_a: NodeId, node_b: NodeId) -> ChannelKey:
    """Canonical (order-independent) key for a channel."""
    first, second = sorted((node_a, node_b), key=repr)
    return (first, second)


class _ArraySideMap:
    """Dict-like view over one directed quantity of a channel's array rows.

    Presents ``{endpoint: value}`` access on top of a ``(2, n)`` state array
    row, so per-channel reads and writes (tests, diagnostics) need not know
    the row layout.
    """

    __slots__ = ("_table", "_array_name", "_key", "_row")

    def __init__(self, table: "PriceTable", array_name: str, key: ChannelKey, row: int) -> None:
        self._table = table
        self._array_name = array_name
        self._key = key
        self._row = row

    def _side(self, node: NodeId) -> int:
        return self._table._channels.side(self._key, node)

    def __getitem__(self, node: NodeId) -> float:
        value = float(getattr(self._table._channels, self._array_name)[self._side(node), self._row])
        if self._array_name == "arrived":
            value += self._table._pending_arrived.get((self._row, self._side(node)), 0.0)
        return value

    def __setitem__(self, node: NodeId, value: float) -> None:
        side = self._side(node)
        if self._array_name == "arrived":
            self._table._pending_arrived.pop((self._row, side), None)
        getattr(self._table._channels, self._array_name)[side, self._row] = float(value)
        self._table._channels.version += 1


class ChannelPricesView:
    """Per-channel view of one channel's rows in the price arrays.

    Reads and writes go straight to the shared arrays, so mutating a view
    (as tests and diagnostics do) is observed by the vectorized kernels and
    vice versa.
    """

    __slots__ = ("_table", "_key", "_row")

    def __init__(self, table: "PriceTable", key: ChannelKey, row: int) -> None:
        self._table = table
        self._key = key
        self._row = row

    @property
    def node_a(self) -> NodeId:
        return self._key[0]

    @property
    def node_b(self) -> NodeId:
        return self._key[1]

    @property
    def capacity(self) -> float:
        return float(self._table._channels.capacity[self._row])

    @property
    def capacity_price(self) -> float:
        return float(self._table._channels.capacity_price[self._row])

    @capacity_price.setter
    def capacity_price(self, value: float) -> None:
        self._table._channels.capacity_price[self._row] = float(value)
        self._table._channels.version += 1

    @property
    def imbalance_price(self) -> _ArraySideMap:
        return _ArraySideMap(self._table, "imbalance", self._key, self._row)

    @property
    def required_funds(self) -> _ArraySideMap:
        return _ArraySideMap(self._table, "required", self._key, self._row)

    @property
    def arrived_value(self) -> _ArraySideMap:
        return _ArraySideMap(self._table, "arrived", self._key, self._row)

    def observe_arrival(self, sender: NodeId, value: float) -> None:
        side = self._table._channels.side(self._key, sender)
        self._table._observe_row(self._row, side, value)

    def set_required_funds(self, node: NodeId, funds: float) -> None:
        side = self._table._channels.side(self._key, node)
        self._table._channels.required[side, self._row] = max(funds, 0.0)
        self._table._channels.version += 1

    def routing_price(self, sender: NodeId) -> float:
        side = self._table._channels.side(self._key, sender)
        return self._table._channels.routing_price(self._row, side)

    def forwarding_fee(self, sender: NodeId, t_fee: float) -> float:
        return max(0.0, t_fee * self.routing_price(sender))


class PriceTable:
    """All channel prices of a PCN plus the path-level price queries.

    The table is the state each smooth node synchronizes at epoch boundaries;
    probes sent along candidate paths read it to compute path routing prices.
    """

    def __init__(self, network: PCNetwork, kappa: float, eta: float, t_fee: float) -> None:
        if not 0.0 < t_fee < 1.0:
            raise ValueError("T_fee must be in (0, 1)")
        self.network = network
        self.kappa = float(kappa)
        self.eta = float(eta)
        self.t_fee = float(t_fee)
        self._channels = ChannelArrays()
        self._paths = PathIndex(network, self._channels)
        self._pending_arrived: Dict[Tuple[int, int], float] = {}
        self._path_generation = 0
        for channel in network.channels():
            self._channels.add(channel_key(channel.node_a, channel.node_b), channel.capacity)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    def _channel_row(self, node_a: NodeId, node_b: NodeId, lenient: bool = False) -> int:
        """Array row of a channel, registering late-opened channels lazily.

        ``lenient`` resolves a channel that neither has price state nor
        exists in the network to a zero-capacity placeholder row instead of
        raising -- used when registering paths, where a cached path may
        traverse a channel that opened and closed again (network dynamics)
        before it was ever priced.  The placeholder prices like an overloaded
        channel, and the dispatch capacity guard keeps units off the path.
        """
        key = channel_key(node_a, node_b)
        row = self._channels.index.get(key)
        if row is not None:
            return row
        if self.network.has_channel(node_a, node_b):
            return self._channels.add(key, self.network.channel(node_a, node_b).capacity)
        if lenient:
            return self._channels.add(key, 0.0)
        raise KeyError(f"no priced channel between {node_a!r} and {node_b!r}")

    def prices(self, node_a: NodeId, node_b: NodeId) -> ChannelPricesView:
        """Price state of the channel between two adjacent nodes.

        Channels opened after the table was built (network dynamics) get a
        fresh zero-price entry on first access.
        """
        key = channel_key(node_a, node_b)
        return ChannelPricesView(self, key, self._channel_row(node_a, node_b))

    def all_prices(self) -> Iterable[ChannelPricesView]:
        """Iterate over every channel's price state."""
        return [
            ChannelPricesView(self, key, row)
            for row, key in enumerate(self._channels.index.keys())
        ]

    # ------------------------------------------------------------------ #
    # observations and updates
    # ------------------------------------------------------------------ #
    def _observe_row(self, row: int, side: int, value: float) -> None:
        """Accumulate an arrival observation (sparse until the next update)."""
        key = (row, side)
        self._pending_arrived[key] = self._pending_arrived.get(key, 0.0) + value

    def observe_transfer(self, sender: NodeId, receiver: NodeId, value: float) -> None:
        """Record that ``value`` moved ``sender -> receiver`` this interval."""
        key = channel_key(sender, receiver)
        row = self._channel_row(sender, receiver)
        self._observe_row(row, self._channels.side(key, sender), value)

    def set_required_funds(
        self, sender: NodeId, receiver: NodeId, funds: float, lenient: bool = False
    ) -> None:
        """Report the funds needed to sustain the sender's rate on a channel.

        ``lenient`` resolves a dead channel (no price state, gone from the
        network) to a zero-capacity placeholder instead of raising -- used
        by the rate controller, whose registered paths may outlive a
        channel under network dynamics.
        """
        key = channel_key(sender, receiver)
        row = self._channel_row(sender, receiver, lenient=lenient)
        self._channels.required[self._channels.side(key, sender), row] = max(funds, 0.0)
        self._channels.version += 1

    def update_all(self) -> None:
        """Run the per-interval price update (equations 21-22) on every channel."""
        arrived = self._channels.arrived
        for (row, side), value in self._pending_arrived.items():
            arrived[side, row] += value
        self._pending_arrived.clear()
        self._channels.update_prices(self.kappa, self.eta)

    @property
    def price_version(self) -> int:
        """Counter that advances whenever derived routing prices may change.

        Lets callers cache per-path rankings between price updates; tracks
        every mutation that goes through the table or its views.
        """
        return self._channels.version

    # ------------------------------------------------------------------ #
    # path-level queries (equation 25)
    # ------------------------------------------------------------------ #
    def channel_price(self, sender: NodeId, receiver: NodeId) -> float:
        """Routing price ``xi`` of one directed channel hop."""
        key = channel_key(sender, receiver)
        row = self._channel_row(sender, receiver)
        return self._channels.routing_price(row, self._channels.side(key, sender))

    def channel_fee(self, sender: NodeId, receiver: NodeId) -> float:
        """Forwarding fee of one directed channel hop."""
        return max(0.0, self.t_fee * self.channel_price(sender, receiver))

    def _hop_arrays(self, path: Sequence[NodeId]) -> Tuple[List[int], List[float]]:
        channel_rows: List[int] = []
        signs: List[float] = []
        for sender, receiver in zip(path, path[1:]):
            key = channel_key(sender, receiver)
            channel_rows.append(self._channel_row(sender, receiver, lenient=True))
            signs.append(1.0 if self._channels.side(key, sender) == 0 else -1.0)
        return channel_rows, signs

    def path_row(self, path: Sequence[NodeId]) -> int:
        """Stable row of a path in the table's path index.

        Registers the path (and any late-opened channels along it) on first
        sight; rows stay valid until :meth:`prune_paths` replaces the index
        (signalled by :attr:`path_generation`), so callers caching rows must
        key their caches on the generation.  Lenient: a hop whose channel
        opened and closed again before it was ever priced (dynamics) maps to
        a zero-capacity placeholder row (see :meth:`_channel_row`).
        """
        row = self._paths.get(path)
        if row is not None:
            return row
        channel_rows, signs = self._hop_arrays(path)
        return self._paths.add_path(path, channel_rows, signs)

    @property
    def path_generation(self) -> int:
        """Increments whenever cached path rows are invalidated by a prune."""
        return self._path_generation

    def registered_path_count(self) -> int:
        """Number of paths currently registered in the path index."""
        return len(self._paths)

    def prune_paths(self, active_paths: Iterable[Sequence[NodeId]]) -> None:
        """Rebuild the path index around the currently active paths.

        Rows are never recycled within one index, so long dynamic runs --
        churn and jamming keep retiring path sets -- would otherwise grow
        the CSR arrays (and every whole-table reduction over them) without
        bound.  Pruning drops retired paths; per-path prices are derived
        state, so nothing is lost.  Bumps :attr:`path_generation` so row
        caches (the rate controller's flattened view) rebuild lazily.
        """
        rebuilt = PathIndex(self.network, self._channels)
        for path in active_paths:
            rebuilt.add_path(path, *self._hop_arrays(path))
        self._paths = rebuilt
        self._path_generation += 1

    def path_rows(self, paths: Sequence[Sequence[NodeId]]) -> np.ndarray:
        """Stable rows for many paths at once."""
        return np.asarray([self.path_row(path) for path in paths], dtype=np.intp)

    def path_prices(self, paths: Sequence[Sequence[NodeId]]) -> np.ndarray:
        """Routing prices ``rho_p = (1 + T_fee) * sum xi`` of many paths (eq. 25)."""
        rows = self.path_rows(paths)  # registers unseen paths before the reduction
        return self._paths.path_prices(self.t_fee)[rows]

    def path_prices_by_row(self, rows: np.ndarray) -> np.ndarray:
        """Routing prices of already-registered path rows."""
        return self._paths.path_prices(self.t_fee)[np.asarray(rows, dtype=np.intp)]

    # ------------------------------------------------------------------ #
    # balance constraint (equation 19)
    # ------------------------------------------------------------------ #
    def paths_blocked(self, paths: Sequence[Sequence[NodeId]], max_gap: float) -> np.ndarray:
        """Boolean mask of paths whose worst hop's ``mu_sender - mu_receiver``
        exceeds the balance bound."""
        rows = self.path_rows(paths)
        return self._paths.max_imbalance_gaps()[rows] > max_gap

    # ------------------------------------------------------------------ #
    # live bottleneck funds (the capacity bound of equation 18)
    # ------------------------------------------------------------------ #
    def path_capacities(self, paths: Sequence[Sequence[NodeId]]) -> np.ndarray:
        """Bottleneck spendable funds of many paths (0.0 across a dead hop)."""
        return self._paths.capacities(self.path_rows(paths))

    def path_capacity(self, path: Sequence[NodeId]) -> float:
        """Bottleneck spendable funds of one path: the per-unit dispatch check."""
        return self._paths.capacity(self.path_row(path))

    # ------------------------------------------------------------------ #
    # batched required-funds reporting (section IV-D)
    # ------------------------------------------------------------------ #
    def set_required_funds_for_paths(
        self,
        rows: np.ndarray,
        weights: np.ndarray,
        hops=None,
    ) -> None:
        """Overwrite required funds from per-path ``rate * delay`` weights.

        ``hops`` may carry a cached ``gather_hops(rows)`` result (the hop
        structure only changes when the registered path set changes).
        """
        self._paths.aggregate_required_funds(rows, weights, hops)

    def gather_hops(self, rows: np.ndarray):
        """Hop structure of registered path rows (see ``PathIndex.gather_hops``)."""
        return self._paths.gather_hops(rows)
