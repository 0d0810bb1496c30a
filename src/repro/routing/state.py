"""Stable index maps and array state for the vectorized routing kernels.

The per-epoch price and rate updates of Algorithm 2 (equations 17-28) touch
every channel and every registered path once per update interval.  Walking
Python objects hop by hop dominates the simulation at production scale, so
this module provides the array building blocks the price table and the rate
controller run on:

* :class:`IndexMap` -- a stable key -> dense-row mapping.  Rows are assigned
  once and never reused or reordered, so array state indexed by a row stays
  valid as channels and paths come and go.
* :class:`ChannelArrays` -- the per-channel price state (capacity price,
  per-direction imbalance prices, required funds and arrived value) held in
  parallel NumPy arrays, with the equation (21)-(22) update as one
  vectorized kernel.
* :class:`PathIndex` -- a stable path -> row mapping over the shared
  :class:`~repro.topology.pathcsr.PathCSR`, whose flattened hop columns
  enable whole-table path-price evaluation (equation 25), per-path
  imbalance-gap maxima (the balance constraint of equation 19) and directed
  required-funds aggregation (section IV-D) as array reductions, and whose
  store slots give every path's live bottleneck funds.

The scalar implementations in :mod:`repro.reference.routing` remain the
readable reference; the routing differential suite pins the two to the same
numbers within 1e-9.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.topology.network import PCNetwork
from repro.topology.pathcsr import PathCSR

NodeId = Hashable
ChannelKey = Tuple[NodeId, NodeId]
Path = Tuple[NodeId, ...]

#: Initial allocation for growable arrays.
_MIN_ALLOC = 64


class IndexMap:
    """A stable mapping from hashable keys to dense array rows.

    Rows are handed out in insertion order and never recycled: dropping a
    key is not supported, which is what makes rows safe to cache in CSR
    structures and parallel arrays.
    """

    __slots__ = ("_rows", "_keys")

    def __init__(self) -> None:
        self._rows: Dict[Hashable, int] = {}
        self._keys: List[Hashable] = []

    def add(self, key: Hashable) -> int:
        """Row of ``key``, allocating the next dense row on first sight."""
        row = self._rows.get(key)
        if row is None:
            row = len(self._keys)
            self._rows[key] = row
            self._keys.append(key)
        return row

    def row(self, key: Hashable) -> int:
        """Row of a known key (KeyError when the key was never added)."""
        return self._rows[key]

    def get(self, key: Hashable) -> Optional[int]:
        """Row of a key, or ``None`` when it was never added."""
        return self._rows.get(key)

    def key(self, row: int) -> Hashable:
        """Key stored at a row."""
        return self._keys[row]

    def keys(self) -> List[Hashable]:
        """All keys in row order."""
        return list(self._keys)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._rows

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._keys)


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


def grow_array_2d(array: np.ndarray, size: int) -> np.ndarray:
    """Return a ``(2, n)`` array grown to hold ``size`` columns per row."""
    if size <= array.shape[1]:
        return array
    return np.vstack([grow_array(array[0], size), grow_array(array[1], size)])


class ChannelArrays:
    """Per-channel price state in parallel arrays, one row per channel.

    Side 0 is the canonically-first endpoint of the channel key, side 1 the
    second; directed quantities (imbalance price, required funds, arrived
    value) are stored as one array per side.  ``version`` increments on
    every mutation that can change a derived routing price, so dependent
    caches (the whole-table path-price vector) know when to recompute.
    """

    def __init__(self) -> None:
        self.index = IndexMap()
        self.capacity = np.zeros(_MIN_ALLOC)
        self.capacity_price = np.zeros(_MIN_ALLOC)
        self.imbalance = np.zeros((2, _MIN_ALLOC))
        self.required = np.zeros((2, _MIN_ALLOC))
        self.arrived = np.zeros((2, _MIN_ALLOC))
        self.version = 0

    def __len__(self) -> int:
        return len(self.index)

    def add(self, key: ChannelKey, capacity: float) -> int:
        """Row for a channel, creating zero-price state on first sight."""
        existing = self.index.get(key)
        if existing is not None:
            return existing
        row = self.index.add(key)
        if row >= self.capacity.shape[0]:
            size = row + 1
            self.capacity = grow_array(self.capacity, size)
            self.capacity_price = grow_array(self.capacity_price, size)
            self.imbalance = grow_array_2d(self.imbalance, size)
            self.required = grow_array_2d(self.required, size)
            self.arrived = grow_array_2d(self.arrived, size)
        self.capacity[row] = float(capacity)
        return row

    def side(self, key: ChannelKey, node: NodeId) -> int:
        """0 when ``node`` is the canonical first endpoint, 1 otherwise."""
        if node == key[0]:
            return 0
        if node == key[1]:
            return 1
        raise KeyError(f"{node!r} is not an endpoint of channel {key[0]!r}-{key[1]!r}")

    # ------------------------------------------------------------------ #
    # vectorized price update (equations 21-22)
    # ------------------------------------------------------------------ #
    def update_prices(self, kappa: float, eta: float) -> None:
        """One price-update step over every channel, then reset observations.

        Equations (21)-(22) with the excess/imbalance terms normalized by the
        channel capacity, so that one step size works across the heavy-tailed
        range of channel sizes (the paper tunes kappa/eta on one testbed;
        normalization plays the same role here).

        The expressions mirror
        :meth:`repro.reference.routing.ChannelPrices.update` term by term
        (same operand order) so the two agree to floating-point noise.
        """
        n = len(self.index)
        if n == 0:
            return
        capacity = self.capacity[:n]
        scale = np.maximum(capacity, 1e-9)
        total_required = self.required[0, :n] + self.required[1, :n]
        np.maximum(
            0.0,
            self.capacity_price[:n] + kappa * (total_required - capacity) / scale,
            out=self.capacity_price[:n],
        )
        delta = eta * (self.arrived[0, :n] - self.arrived[1, :n]) / scale
        np.maximum(0.0, self.imbalance[0, :n] + delta, out=self.imbalance[0, :n])
        np.maximum(0.0, self.imbalance[1, :n] - delta, out=self.imbalance[1, :n])
        self.arrived[:, :n] = 0.0
        self.version += 1

    # ------------------------------------------------------------------ #
    # scalar views used by accessors and per-unit queries
    # ------------------------------------------------------------------ #
    def routing_price(self, row: int, side: int) -> float:
        """``xi`` of one directed hop: ``2 lambda + mu_sender - mu_receiver``."""
        return float(
            2.0 * self.capacity_price[row]
            + self.imbalance[side, row]
            - self.imbalance[1 - side, row]
        )


class PathIndex(PathCSR):
    """Stable path -> row mapping over a :class:`PathCSR`, plus price columns.

    Beside the store slots of its base (what the per-unit capacity guard
    reads), the hops of every path are flattened in registration order:
    ``paths[i]``'s hops sit at ``ptr[i]:ptr[i + 1]``, and each records its
    channel row in a :class:`ChannelArrays` and its sign (+1 when the hop
    sender is the channel's canonical first endpoint, -1 otherwise).  Price
    rows are keyed by channel key, not store slot: price state survives a
    channel's close and reopen, and a hop whose channel never existed while
    priced maps to a placeholder row.  All per-path reductions -- routing
    prices, imbalance-gap maxima, required-funds aggregation -- then run as
    NumPy segment operations over the flattened columns instead of per-hop
    Python loops.  The columns grow by capacity doubling, so registration
    is amortized O(hops); :attr:`ptr` and :meth:`csr` return views of the
    filled prefix, used within one call and never stored.
    """

    __slots__ = ("channels", "_rows", "_ptr", "_hops", "_price_rows", "_signs",
                 "_price_cache", "_gap_cache")

    def __init__(self, network: PCNetwork, channels: ChannelArrays) -> None:
        super().__init__(network)
        self.channels = channels
        self._rows: Dict[Path, int] = {}
        self._ptr = np.zeros(_MIN_ALLOC, dtype=np.intp)
        self._hops = 0
        self._price_rows = np.zeros(_MIN_ALLOC, dtype=np.intp)
        self._signs = np.zeros(_MIN_ALLOC)
        self._price_cache: Optional[Tuple[int, int, float, np.ndarray]] = None
        self._gap_cache: Optional[Tuple[int, int, np.ndarray]] = None

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def add_path(self, path: Sequence[NodeId], channel_rows: Sequence[int], signs: Sequence[float]) -> int:
        """Register a path given its per-hop channel rows and signs."""
        key = tuple(path)
        existing = self._rows.get(key)
        if existing is not None:
            return existing
        if len(key) >= 2 and not len(channel_rows) == len(signs) == len(key) - 1:
            raise ValueError("hop arrays must cover every hop of the path")
        start = self._hops
        row = self._append(key)
        self._rows[key] = row
        self._hops += len(key) - 1
        self._ptr = grow_array(self._ptr, row + 2)
        self._ptr[row + 1] = self._hops
        self._price_rows = grow_array(self._price_rows, self._hops)
        self._signs = grow_array(self._signs, self._hops)
        self._price_rows[start : self._hops] = channel_rows
        self._signs[start : self._hops] = signs
        self._price_cache = None
        self._gap_cache = None
        return row

    def get(self, path: Sequence[NodeId]) -> Optional[int]:
        """Row of a path, or ``None`` when it was never registered."""
        return self._rows.get(tuple(path))

    @property
    def ptr(self) -> np.ndarray:
        """Row offsets into the hop columns (a view)."""
        return self._ptr[: len(self.paths) + 1]

    def hop_positions(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(positions, lengths)``: the flat hop positions of ``rows``,
        contiguous in row order, and each row's hop count."""
        ptr = self.ptr
        rows = np.asarray(rows, dtype=np.intp)
        starts = ptr[rows]
        lengths = ptr[rows + 1] - starts
        offsets = np.arange(int(lengths.sum())) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        return np.repeat(starts, lengths) + offsets, lengths

    def csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The flattened hop structure ``(hop_channel, hop_sign, ptr)`` (views)."""
        return self._price_rows[: self._hops], self._signs[: self._hops], self.ptr

    def gather_hops(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Hop arrays restricted to ``rows``: ``(hop_channel, hop_sign, lengths)``.

        The hops of the selected paths are returned contiguously in row
        order, which is what the required-funds aggregation consumes.
        """
        positions, lengths = self.hop_positions(rows)
        hop_channel, hop_sign, _ = self.csr()
        return hop_channel[positions], hop_sign[positions], lengths

    # ------------------------------------------------------------------ #
    # vectorized per-path reductions
    # ------------------------------------------------------------------ #
    def _directed_hop_prices(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-hop ``xi`` and per-hop directed imbalance gap for every hop."""
        hop_channel, hop_sign, _ = self.csr()
        channels = self.channels
        gap = hop_sign * (self.channels.imbalance[0] - self.channels.imbalance[1])[hop_channel]
        xi = 2.0 * channels.capacity_price[hop_channel] + gap
        return xi, gap

    def path_prices(self, t_fee: float) -> np.ndarray:
        """Routing price ``rho_p = (1 + T_fee) * sum xi`` of every path (eq. 25)."""
        cached = self._price_cache
        if (
            cached is not None
            and cached[0] == self.channels.version
            and cached[1] == len(self.paths)
            and cached[2] == t_fee
        ):
            return cached[3]
        if len(self.paths) == 0:
            prices = np.empty(0)
        else:
            xi, _ = self._directed_hop_prices()
            _, _, ptr = self.csr()
            prices = (1.0 + t_fee) * np.add.reduceat(xi, ptr[:-1])
        self._price_cache = (self.channels.version, len(self.paths), t_fee, prices)
        return prices

    def max_imbalance_gaps(self) -> np.ndarray:
        """Largest directed imbalance-price gap along every path (eq. 19)."""
        cached = self._gap_cache
        if cached is not None and cached[0] == self.channels.version and cached[1] == len(self.paths):
            return cached[2]
        if len(self.paths) == 0:
            gaps = np.empty(0)
        else:
            _, gap = self._directed_hop_prices()
            _, _, ptr = self.csr()
            gaps = np.maximum.reduceat(gap, ptr[:-1])
        self._gap_cache = (self.channels.version, len(self.paths), gaps)
        return gaps

    def aggregate_required_funds(
        self,
        rows: np.ndarray,
        per_path_weights: np.ndarray,
        hops: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    ) -> None:
        """Overwrite required funds from per-path weights (section IV-D).

        ``per_path_weights[i]`` (``rate * settlement_delay``) is added to the
        sending side of every hop of path ``rows[i]``; directed channels
        touched by at least one selected path have their required funds
        overwritten with the aggregate, untouched channels keep their
        previous value -- exactly the contract of the scalar
        ``report_required_funds``.

        ``hops`` may carry a pre-gathered ``gather_hops(rows)`` result so
        per-epoch callers can cache the (registration-stable) hop structure.
        """
        hop_channel, hop_sign, lengths = hops if hops is not None else self.gather_hops(rows)
        channels = self.channels
        n = len(channels)
        weights = np.repeat(per_path_weights, lengths)
        for side, mask in ((0, hop_sign > 0), (1, hop_sign < 0)):
            touched = np.bincount(hop_channel[mask], minlength=n)[:n] > 0
            totals = np.bincount(hop_channel[mask], weights=weights[mask], minlength=n)[:n]
            channels.required[side, : n][touched] = np.maximum(totals[touched], 0.0)
        channels.version += 1
