"""Array-backed batched execution for the atomic source-routing baselines.

The paper's large-scale argument (figure 8) is that per-sender path
computation is what breaks source routing as the network grows.  To measure
that at paper scale the *simulator* must not be the bottleneck, which
recomputing shortest/landmark paths per transaction and walking channel
objects hop by hop for every capacity check, lock and settlement would make
it.  This module is the baselines' execution layer, mirroring the structure
the Splicer router uses (:mod:`repro.routing.state`):

* :class:`ChannelBalanceArrays` -- every channel's per-direction spendable
  balance mirrored into parallel NumPy arrays (rows allocated by the same
  stable :class:`~repro.routing.state.IndexMap`), with dirty tracking so the
  mirror can be flushed back to the :class:`~repro.topology.channel.PaymentChannel`
  objects at synchronization points (scheme steps, network dynamics,
  end of run),
* :class:`PathCatalog` -- per-pair candidate paths resolved once into a CSR
  flattening of (channel row, direction side) hops, keyed on the network's
  ``topology_version`` so churn invalidates exactly the caches it must.
  Entries can be *pinned* to reproduce scalar schemes that deliberately keep
  stale path pools (Flash's mouse paths),
* :class:`AtomicBatchExecutor` -- all-or-nothing multi-path execution on the
  arrays, replaying the per-hop lock/settle walk of
  :class:`repro.reference.baselines.ScalarExecutor` term-for-term in the
  same floating-point order, so the two agree on every success/failure
  decision and routed amount to strictly better than 1e-9 (they are
  bit-identical).

The scalar walk stays the readable reference; the baselines differential
suite pins the two to the same numbers.  That includes the per-channel lifetime
:class:`~repro.topology.channel.ChannelStats` counters: the executor updates
them eagerly during execution (lock/settle/release tallies, settled volume,
the running ``max_locked`` high-water mark and the per-settle imbalance
samples), replaying the scalar lock-lifecycle arithmetic -- including the
left-to-right ``locked_total`` summation order -- so the counters are
bit-identical to the scalar walk's.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import core as obs
from repro.routing.state import _MIN_ALLOC, IndexMap, grow_array, grow_array_2d
from repro.routing.transaction import FailureReason, Payment
from repro.topology.channel import EPS as _EPS
from repro.topology.network import PCNetwork

NodeId = Hashable
Path = Tuple[NodeId, ...]
Pair = Tuple[NodeId, NodeId]


class ChannelBalanceArrays:
    """Per-direction spendable balances of every channel, in parallel arrays.

    Side 0 is the channel object's first endpoint (``channel.node_a``), side
    1 the second.  Rows are stable across channel close/reopen cycles (the
    dynamics layer preserves endpoint order), so path catalogs can cache row
    indices.  The mirror is authoritative between :meth:`flush` points; any
    external mutation of the network (dynamics events, scalar code paths)
    must be followed by :meth:`invalidate` so the next access resynchronizes.
    """

    def __init__(self, network: PCNetwork) -> None:
        self.network = network
        self.index = IndexMap()
        self.balance = np.zeros((2, _MIN_ALLOC))
        #: Outstanding locked funds per row at the last sync (jamming locks
        #: and other externally held locks); the stats replay adds this base
        #: to the executor's own in-flight shares when it reproduces the
        #: scalar ``locked_total()`` values.
        self.locked = np.zeros(_MIN_ALLOC)
        self.alive = np.zeros(_MIN_ALLOC, dtype=bool)
        self.touched = np.zeros(_MIN_ALLOC, dtype=bool)
        self._channels: List[object] = []
        self._directed: Dict[Pair, Tuple[int, int]] = {}
        #: Live rows and where each one's ``node_a`` balance sits in the
        #: network's balance store (``node_b``'s is the next entry), as of
        #: ``_seen_topology``: a resync is two gathers.
        self._rows = self._slots = np.empty(0, dtype=np.intp)
        self._seen_topology = -1
        self._dirty = True

    def __len__(self) -> int:
        return len(self.index)

    # ------------------------------------------------------------------ #
    # synchronization with the network
    # ------------------------------------------------------------------ #
    def invalidate(self) -> None:
        """Mark the mirror stale; the next access re-reads every channel."""
        self._dirty = True

    def ensure_fresh(self) -> None:
        """Resynchronize from the network if it changed since the last sync."""
        if self._dirty or self._seen_topology != self.network.topology_version:
            self._sync()

    def _sync(self) -> None:
        network = self.network
        if self._seen_topology != network.topology_version:
            self._resolve_rows()
        store = network.balance_store
        rows, slots = self._rows, self._slots
        balances = store.as_array()
        self.balance[0, rows] = balances[slots]
        self.balance[1, rows] = balances[slots + 1]
        self.locked[rows] = 0.0
        if store.open_locks:
            for row in rows.tolist():
                self.locked[row] = self._channels[row].locked_total()
        self.touched[: len(self.index)] = False
        self._dirty = False

    def _resolve_rows(self) -> None:
        """Give every live channel its stable row; runs once per topology version."""
        network = self.network
        self.alive[: len(self.index)] = False
        self._directed.clear()
        rows: List[int] = []
        slots: List[int] = []
        for channel in network.channels():
            node_a, node_b = channel.endpoints
            row = self.index.add((node_a, node_b))
            while len(self._channels) <= row:
                self._channels.append(None)
            self._channels[row] = channel
            self._directed[(node_a, node_b)] = (row, 0)
            self._directed[(node_b, node_a)] = (row, 1)
            rows.append(row)
            slots.append(channel.store_index)
        size = len(self.index)
        if size > self.balance.shape[1]:
            self.balance = grow_array_2d(self.balance, size)
            self.locked = grow_array(self.locked, size)
            self.alive = grow_array(self.alive, size)
            self.touched = grow_array(self.touched, size)
        self._rows = np.asarray(rows, dtype=np.intp)
        self._slots = np.asarray(slots, dtype=np.intp)
        self.alive[self._rows] = True
        self._seen_topology = network.topology_version

    def flush(self) -> None:
        """Write balances of rows touched since the last flush back to channels."""
        if self._dirty:
            return  # the mirror is stale, not the network
        n = len(self.index)
        rows = np.nonzero(self.touched[:n] & self.alive[:n])[0]
        for row in rows:
            channel = self._channels[row]
            channel.write_balances(self.balance[0, row], self.balance[1, row])
        self.touched[:n] = False

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def resolve_path(self, path: Sequence[NodeId]) -> Tuple[np.ndarray, np.ndarray]:
        """Per-hop (channel rows, sending sides) of a path; -1 rows for dead hops."""
        hops = len(path) - 1
        rows = np.empty(hops, dtype=np.intp)
        sides = np.zeros(hops, dtype=np.intp)
        for i in range(hops):
            resolved = self._directed.get((path[i], path[i + 1]))
            if resolved is None:
                rows[i] = -1
            else:
                rows[i], sides[i] = resolved
        return rows, sides


class CatalogEntry:
    """One pair's candidate paths with their CSR hop flattening."""

    __slots__ = ("paths", "hop_rows", "hop_sides", "ptr", "pinned", "_seen_topology")

    def __init__(self, paths: Sequence[Sequence[NodeId]], pinned: bool) -> None:
        self.paths: List[Path] = [tuple(path) for path in paths]
        self.pinned = pinned
        self.hop_rows: np.ndarray = np.empty(0, dtype=np.intp)
        self.hop_sides: np.ndarray = np.empty(0, dtype=np.intp)
        self.ptr: np.ndarray = np.empty(0, dtype=np.intp)
        self._seen_topology = -1

    def refresh_rows(self, balances: ChannelBalanceArrays) -> None:
        """(Re)resolve every hop against the current channel rows."""
        rows: List[np.ndarray] = []
        sides: List[np.ndarray] = []
        ptr = [0]
        for path in self.paths:
            path_rows, path_sides = balances.resolve_path(path)
            rows.append(path_rows)
            sides.append(path_sides)
            ptr.append(ptr[-1] + len(path_rows))
        self.hop_rows = np.concatenate(rows) if rows else np.empty(0, dtype=np.intp)
        self.hop_sides = np.concatenate(sides) if sides else np.empty(0, dtype=np.intp)
        self.ptr = np.asarray(ptr, dtype=np.intp)

    def capacities(self, balances: ChannelBalanceArrays) -> np.ndarray:
        """Bottleneck spendable funds of every path (0.0 across dead hops).

        Matches :meth:`repro.topology.network.PCNetwork.path_capacity`: a
        missing hop zeroes the whole path, otherwise the minimum directional
        balance along it.
        """
        if len(self.paths) == 0:
            return np.empty(0)
        dead = self.hop_rows < 0
        safe_rows = np.where(dead, 0, self.hop_rows)
        values = balances.balance[self.hop_sides, safe_rows]
        values = np.where(dead | ~balances.alive[safe_rows], 0.0, values)
        # Zero-hop paths (len < 2) cannot occur: callers filter them out.
        return np.minimum.reduceat(values, self.ptr[:-1])


class PathCatalog:
    """Per-pair path cache keyed on the network's topology version.

    Non-pinned entries are dropped whenever the topology changes, so the
    caller recomputes paths exactly when the scalar reference (which
    recomputes per transaction) would see different ones.  Pinned entries
    keep their *path lists* forever -- reproducing scalar schemes that cache
    paths without invalidation -- but still re-resolve their channel rows so
    capacity checks see the live topology.
    """

    def __init__(self, balances: ChannelBalanceArrays) -> None:
        self.balances = balances
        self._entries: Dict[Pair, CatalogEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every cached entry, pinned ones included.

        Schemes whose candidate paths depend on more than the topology
        version (SpeedyMurmurs' embedding reacts to balance-driven link
        reclassification) call this when that extra input changes, since the
        ``topology_version`` key alone would keep their entries live.
        """
        self._entries.clear()

    def resolve(
        self,
        pair: Pair,
        compute: Callable[[], Sequence[Sequence[NodeId]]],
        pinned: bool = False,
    ) -> Tuple[CatalogEntry, bool]:
        """The pair's entry plus whether it was (re)created for this call.

        ``compute`` runs at most once per (pair, topology version) for
        non-pinned entries and once ever for pinned entries; the boolean lets
        callers account per-computation costs (e.g. probe messages) without
        inferring them from catalog state.
        """
        self.balances.ensure_fresh()
        version = self.balances.network.topology_version
        entry = self._entries.get(pair)
        if entry is not None and not entry.pinned and entry._seen_topology != version:
            entry = None
        computed = entry is None
        if entry is None:
            entry = CatalogEntry([path for path in compute() if len(path) >= 2], pinned)
            self._entries[pair] = entry
        if entry._seen_topology != version:
            entry.refresh_rows(self.balances)
            entry._seen_topology = version
        return entry, computed


class AtomicBatchExecutor:
    """All-or-nothing multi-path execution replayed on balance arrays.

    The decision logic and floating-point operation order mirror the per-hop
    walk of :class:`repro.reference.baselines.ScalarExecutor` exactly
    (capacity filter, proportional greedy allocation, sequential lock
    arithmetic with the same 1e-9 epsilon and negative clamp, release on
    failure), so both make identical decisions and leave identical balances.
    """

    def __init__(self, network: PCNetwork, hop_delay: float = 0.02) -> None:
        self.network = network
        self.hop_delay = hop_delay
        self.balances = ChannelBalanceArrays(network)
        self.catalog = PathCatalog(self.balances)

    # ------------------------------------------------------------------ #
    # synchronization hooks (wired through the scheme interface)
    # ------------------------------------------------------------------ #
    def flush(self) -> None:
        """Write pending balance updates back to the channel objects."""
        self.balances.flush()

    def on_network_change(self) -> None:
        """The network was mutated externally; resync before the next use."""
        self.balances.invalidate()

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def execute(
        self,
        payment: Payment,
        paths: Sequence[Sequence[NodeId]],
        now: float,
        entry: Optional[CatalogEntry] = None,
        shares: Optional[Sequence[float]] = None,
    ) -> bool:
        """Attempt ``payment`` across ``paths``, all-or-nothing.

        ``entry`` may carry the pre-resolved CSR of ``paths`` (from the
        catalog); ad-hoc path lists (e.g. Flash's per-elephant max-flow
        paths) are resolved on the fly.  ``shares`` (aligned with ``paths``)
        replaces the greedy largest-first allocation with caller-computed
        per-path amounts (waterfilling); the caller is responsible for
        checking joint capacity first, exactly like the scalar mixin.
        """
        balances = self.balances
        balances.ensure_fresh()
        rec = obs.RECORDER
        if rec.enabled and rec.payment_begin(payment):
            rec.payment_event(payment, "atomic_attempt", now, paths=len(paths))

        entry_aligned = entry is not None and (
            paths is entry.paths or entry.paths == [tuple(p) for p in paths]
        )
        allocations: List[Tuple[np.ndarray, np.ndarray, float, int]] = []
        if shares is not None:
            # Caller-computed split: keep the given path order, skip
            # zero-share paths, and resolve hops without a capacity filter
            # (locks enforce capacity, as the scalar reference does).
            for i, raw_path in enumerate(paths):
                share = float(shares[i])
                path = tuple(raw_path)
                if len(path) < 2 or share <= _EPS:
                    continue
                if entry_aligned:
                    lo, hi = int(entry.ptr[i]), int(entry.ptr[i + 1])
                    rows, sides = entry.hop_rows[lo:hi], entry.hop_sides[lo:hi]
                else:
                    rows, sides = balances.resolve_path(path)
                if np.any(rows < 0) or not np.all(balances.alive[rows]):
                    # The scalar lock walk would raise on the missing channel;
                    # callers allocate zero shares to dead paths, so reaching
                    # this is a contract violation, not a routing failure.
                    raise KeyError(f"no channel along path {path!r}")
                allocations.append((rows, sides, share, len(rows)))
            if not allocations:
                return self._fail(payment, now, FailureReason.INSUFFICIENT_CAPACITY, capacity=0.0)
        else:
            usable: List[Tuple[np.ndarray, np.ndarray, float, int]] = []
            if entry_aligned:
                capacities = entry.capacities(balances)
                for i, path in enumerate(entry.paths):
                    capacity = float(capacities[i])
                    if capacity > 0:
                        lo, hi = int(entry.ptr[i]), int(entry.ptr[i + 1])
                        usable.append(
                            (entry.hop_rows[lo:hi], entry.hop_sides[lo:hi], capacity, hi - lo)
                        )
            else:
                for raw_path in paths:
                    path = tuple(raw_path)
                    if len(path) < 2:
                        continue
                    rows, sides = balances.resolve_path(path)
                    if np.any(rows < 0) or not np.all(balances.alive[rows]):
                        continue
                    capacity = float(balances.balance[sides, rows].min())
                    if capacity > 0:
                        usable.append((rows, sides, capacity, len(rows)))

            total_capacity = sum(item[2] for item in usable)
            if not usable or total_capacity + _EPS < payment.value:
                return self._fail(
                    payment, now, FailureReason.INSUFFICIENT_CAPACITY,
                    capacity=round(total_capacity, 9),
                )

            # Allocate greedily by capacity, largest first (stable, like list.sort).
            usable.sort(key=lambda item: item[2], reverse=True)
            remaining = payment.value
            for rows, sides, capacity, hops in usable:
                if remaining <= _EPS:
                    break
                share = min(capacity, remaining)
                allocations.append((rows, sides, share, hops))
                remaining -= share
            if remaining > _EPS:
                return self._fail(
                    payment, now, FailureReason.INSUFFICIENT_CAPACITY,
                    unallocated=round(remaining, 9),
                )

        # Lock phase: sequential subtraction in scalar order; paths may share
        # channels (landmark routes), so a later lock can still fail.  The
        # per-channel lifetime stats are replayed alongside: ``in_flight``
        # holds this payment's outstanding shares per row in creation order,
        # and every locked_total() the scalar path would observe is
        # reproduced as the same left-to-right fold starting from the row's
        # externally locked base.
        balance = balances.balance
        channels = balances._channels
        in_flight: Dict[int, List[float]] = {}
        applied: List[Tuple[int, int, float]] = []
        failed = False
        for rows, sides, share, _hops in allocations:
            for row, side in zip(rows, sides):
                if balance[side, row] + _EPS < share:
                    failed = True
                    break
                balance[side, row] -= share
                if balance[side, row] < 0:
                    balance[side, row] = 0.0
                row = int(row)
                applied.append((row, int(side), share))
                shares = in_flight.setdefault(row, [])
                shares.append(share)
                stats = channels[row].stats
                stats.locks_created += 1
                locked_now = balances.locked[row]
                for amount in shares:
                    locked_now += amount
                stats.max_locked = max(stats.max_locked, locked_now)
            if failed:
                break
        if failed:
            for row, side, amount in applied:
                balance[side, row] += amount
                balances.touched[row] = True
                channels[row].stats.locks_released += 1
            return self._fail(payment, now, FailureReason.LOCK_CONTENTION, released=len(applied))

        # Settle phase: funds arrive on the receiving side of every hop, in
        # lock-creation order (the scalar settle loop's order), with the
        # post-settle imbalance sampled exactly as PaymentChannel.settle does.
        for row, side, amount in applied:
            balance[1 - side, row] += amount
            balances.touched[row] = True
            stats = channels[row].stats
            stats.locks_settled += 1
            stats.volume_settled += amount
            shares = in_flight[row]
            shares.pop(0)
            locked_now = balances.locked[row]
            for pending in shares:
                locked_now += pending
            capacity = balance[0, row] + balance[1, row] + locked_now
            if capacity <= _EPS:
                stats.record_imbalance(0.0)
            else:
                stats.record_imbalance(abs(balance[0, row] - balance[1, row]) / capacity)

        longest = max(hops for _, _, _, hops in allocations)
        completion_time = now + self.hop_delay * longest
        payment.split(min_tu=payment.value, max_tu=payment.value)
        unit = payment.units[0]
        # Reconstruct the primary path's node tuple for delivery accounting.
        first_rows, first_sides, _, _ = allocations[0]
        unit.path = self._path_nodes(first_rows, first_sides)
        payment.record_unit_delivery(unit, completion_time)
        payment.hops_used += sum(hops for _, _, _, hops in allocations[1:])
        if rec.enabled:
            rec.payment_event(
                payment, "atomic_settle", now,
                paths=len(allocations), complete_at=round(completion_time, 9),
            )
        return True

    @staticmethod
    def _fail(payment: Payment, now: float, reason: FailureReason, **fields: object) -> bool:
        """Fail the payment, trace why, and return ``False`` for the caller."""
        payment.fail(reason)
        if obs.RECORDER.enabled:
            obs.RECORDER.payment_event(payment, "atomic_fail", now, reason=reason.value, **fields)
        return False

    def _path_nodes(self, rows: np.ndarray, sides: np.ndarray) -> Path:
        """Rebuild the node sequence of a resolved path."""
        nodes: List[NodeId] = []
        for i, (row, side) in enumerate(zip(rows, sides)):
            key = self.balances.index.key(int(row))
            sender = key[side]
            receiver = key[1 - side]
            if i == 0:
                nodes.append(sender)
            nodes.append(receiver)
        return tuple(nodes)
