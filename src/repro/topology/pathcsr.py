"""Registered paths as one growable CSR of balance-store slots.

A hop ``sender -> receiver`` resolves to the *slot* of its sending side in
the network's :class:`~repro.topology.channel.BalanceStore`:
``channel.store_index`` for ``node_a``, the next entry for ``node_b``, or
``-1`` when no channel joins the two nodes.  The receiving side is
``slot ^ 1`` and the channel is ``store.channels[slot >> 1]``.  Slots move
only when a channel is removed (the store stays dense), which moves
``topology_version``, so :class:`PathCSR` re-resolves every hop lazily on
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

#: Initial allocation for growable arrays.
_MIN_ALLOC = 64


def grow_array(array: np.ndarray, size: int) -> np.ndarray:
    """Return ``array`` grown (amortized doubling) to hold ``size`` rows.

    New rows are zero-initialized and existing rows keep their values and
    positions.
    """
    if size <= array.shape[0]:
        return array
    new_size = max(_MIN_ALLOC, array.shape[0])
    while new_size < size:
        new_size *= 2
    grown = np.zeros(new_size, dtype=array.dtype)
    grown[: array.shape[0]] = array
    return grown


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


class PathCSR:
    """Paths flattened into the store slots of their hops.

    ``paths[i]``'s hops are ``slots()[ptr[i]:ptr[i + 1]]``.  The paths given
    to the constructor fill both arrays exactly (a per-payment or per-pair
    structure costs no spare room); :meth:`_append` grows them by capacity
    doubling, so a registry that keeps adding paths is amortized O(hops).
    :attr:`ptr` and :meth:`slots` return views of the filled prefix, which
    -- like ``BalanceStore.as_array`` -- are used within one call and never
    stored.
    """

    __slots__ = ("network", "paths", "_ptr", "_slots", "_hops", "_seen_topology")

    def __init__(self, network: "PCNetwork", paths: Sequence[Sequence[NodeId]] = ()) -> None:
        self.network = network
        self.paths: List[Path] = [_with_hops(path) for path in paths]
        slots, ptr = self._resolve()
        self._slots = np.array(slots, dtype=np.intp)
        self._ptr = np.array(ptr, dtype=np.intp)
        self._hops = len(slots)
        self._seen_topology = network.topology_version

    def __len__(self) -> int:
        return len(self.paths)

    def _resolve(self) -> Tuple[List[int], List[int]]:
        """Every hop's slot on the live topology, in path order, and the row offsets."""
        network = self.network
        slots: List[int] = []
        ptr = [0]
        for path in self.paths:
            slots += hop_slots(network, path)
            ptr.append(len(slots))
        return slots, ptr

    def _append(self, path: Sequence[NodeId]) -> int:
        """Add a path (resolved against the live topology); returns its row."""
        key = _with_hops(path)
        row, start = len(self.paths), self._hops
        self._hops += len(key) - 1
        self._slots = grow_array(self._slots, self._hops)
        self._slots[start : self._hops] = hop_slots(self.network, key)
        self._ptr = grow_array(self._ptr, row + 2)
        self._ptr[row + 1] = self._hops
        self.paths.append(key)
        return row

    @property
    def ptr(self) -> np.ndarray:
        """Row offsets into the hop arrays (a view)."""
        return self._ptr[: len(self.paths) + 1]

    def slots(self) -> np.ndarray:
        """Every hop's store slot, re-resolved if the topology moved (a view)."""
        version = self.network.topology_version
        if self._seen_topology != version:
            self._slots[: self._hops] = self._resolve()[0]
            self._seen_topology = version
        return self._slots[: self._hops]

    def row_slots(self, row: int) -> List[int]:
        """The store slots of ``paths[row]``'s hops."""
        return self.slots()[self._ptr[row] : self._ptr[row + 1]].tolist()

    def hop_positions(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(positions, lengths)``: the flat hop positions of ``rows``,
        contiguous in row order, and each row's hop count."""
        ptr = self.ptr
        rows = np.asarray(rows, dtype=np.intp)
        starts = ptr[rows]
        lengths = ptr[rows + 1] - starts
        offsets = np.arange(int(lengths.sum())) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        return np.repeat(starts, lengths) + offsets, lengths

    def capacities(self, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Bottleneck spendable funds of ``paths[rows]`` (of every path by default).

        A hop without a channel reads 0.0, which zeroes its path: routing
        layers holding paths that dynamics retired simply find them empty.
        """
        slots = self.slots()
        if rows is None:
            starts = self.ptr[:-1]
        else:
            positions, lengths = self.hop_positions(rows)
            slots = slots[positions]
            starts = np.cumsum(lengths) - lengths
        if starts.size == 0:
            return np.empty(0)
        live = slots >= 0
        values = np.zeros(slots.shape[0])
        values[live] = self.network.balance_store.as_array()[slots[live]]
        return np.minimum.reduceat(values, starts)

    def capacity(self, row: int) -> float:
        """:meth:`capacities` of one row, read off the store without numpy."""
        hops = self.row_slots(row)
        if -1 in hops:
            return 0.0
        values = self.network.balance_store.values
        return min([values[slot] for slot in hops])
