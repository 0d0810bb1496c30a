"""Registered paths as the balance-store slots of their hops, one tuple per row.

A hop ``sender -> receiver`` resolves to the *slot* of its sending side in
the network's :class:`~repro.topology.channel.BalanceStore`:
``channel.store_index`` for ``node_a``, the next entry for ``node_b``, or
``-1`` when no channel joins the two nodes.  The receiving side is
``slot ^ 1`` and the channel is ``store.channels[slot >> 1]``.  Slots move
only when a channel is removed (the store stays dense), which moves
``topology_version``, so :class:`PathCSR` re-resolves every row lazily on
the first read after the version moved.

The bottleneck rule lives here once: a path's capacity is the smallest
spendable balance along it, and a hop whose channel is gone zeroes it.
The router's path index (:class:`repro.routing.state.PathIndex`) and the
atomic baselines' catalog entries (:class:`repro.baselines.batch.CatalogEntry`)
are the two subclasses; the hop-by-hop walk it replaces is the oracle
:func:`repro.reference.topology.path_capacity`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.topology.network import PCNetwork

NodeId = Hashable
Path = Tuple[NodeId, ...]
Slots = Tuple[int, ...]


def hop_slots(network: "PCNetwork", path: Sequence[NodeId]) -> List[int]:
    """Store slot of every hop's sending side; ``-1`` where no channel exists."""
    adj = network.adj
    slots: List[int] = []
    for sender, receiver in zip(path, path[1:]):
        neighbors = adj.get(sender)
        channel = neighbors.get(receiver) if neighbors is not None else None
        if channel is None:
            slots.append(-1)
        elif channel.node_a == sender:
            slots.append(channel.store_index)
        else:
            slots.append(channel.store_index + 1)
    return slots


def _with_hops(path: Sequence[NodeId]) -> Path:
    """``path`` as a tuple; a path without a hop is a ``ValueError``."""
    key = tuple(path)
    if len(key) < 2:
        raise ValueError("a path needs at least one hop")
    return key


def _bottleneck(values: Sequence[float], slots: Slots) -> float:
    """Smallest balance at ``slots``; 0.0 when a hop has no channel.

    The loop makes ``min``'s comparisons in ``min``'s order (so the same
    value comes back) at about half its cost on a few hops.
    """
    if -1 in slots:
        return 0.0
    smallest = values[slots[0]]
    for slot in slots:
        value = values[slot]
        if value < smallest:
            smallest = value
    return smallest


class PathCSR:
    """Paths held as the store slots of their hops, one tuple per row.

    ``row_slots(i)`` are ``paths[i]``'s hops.  Rows are immutable tuples, so
    a caller cannot corrupt an entry through what it was handed; the whole
    list is rebuilt on the first read after the topology moved.

    ``slots`` (one tuple per path) are rows already resolved against the
    live topology -- another entry's ``row_slots`` or the path memo's
    catalog rows -- and skip the :func:`hop_slots` walk.
    """

    __slots__ = ("network", "paths", "_slots", "_seen_topology")

    def __init__(
        self,
        network: "PCNetwork",
        paths: Sequence[Sequence[NodeId]] = (),
        slots: Optional[Sequence[Slots]] = None,
    ) -> None:
        self.network = network
        self.paths: List[Path] = [_with_hops(path) for path in paths]
        if slots is None:
            self._slots: List[Slots] = [tuple(hop_slots(network, path)) for path in self.paths]
        else:
            self._slots = list(slots)
        self._seen_topology = network.topology_version

    def __len__(self) -> int:
        return len(self.paths)

    def _append(self, path: Sequence[NodeId]) -> int:
        """Add a path (resolved against the live topology); returns its row."""
        key = _with_hops(path)
        self._slots.append(tuple(hop_slots(self.network, key)))
        self.paths.append(key)
        return len(self.paths) - 1

    def _live_slots(self) -> List[Slots]:
        """Every row's slots, re-resolved if the topology moved."""
        network = self.network
        if self._seen_topology != network.topology_version:
            self._slots = [tuple(hop_slots(network, path)) for path in self.paths]
            self._seen_topology = network.topology_version
        return self._slots

    def row_slots(self, row: int) -> Slots:
        """The store slots of ``paths[row]``'s hops."""
        return self._live_slots()[row]

    def capacities(self, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Bottleneck spendable funds of ``paths[rows]`` (of every path by default).

        A hop without a channel reads 0.0, which zeroes its path: routing
        layers holding paths that dynamics retired simply find them empty.
        """
        slots = self._live_slots()
        if rows is not None:
            slots = [slots[row] for row in np.asarray(rows, dtype=np.intp).tolist()]
        values = self.network.balance_store.values
        return np.array([_bottleneck(values, hops) for hops in slots], dtype=float)

    def capacity(self, row: int) -> float:
        """:meth:`capacities` of one row, without numpy."""
        return _bottleneck(self.network.balance_store.values, self._live_slots()[row])
