"""Batched execution for the atomic source-routing baselines.

The paper's large-scale argument (figure 8) is that per-sender path
computation is what breaks source routing as the network grows.  To measure
that at paper scale the *simulator* must not be the bottleneck, which
recomputing shortest/landmark paths per transaction and walking channel
objects hop by hop for every capacity check, lock and settlement would make
it.  This module is the baselines' execution layer.  It keeps no balance of
its own: every read and write goes to the network's
:class:`~repro.topology.channel.BalanceStore`, which the channel objects are
views of, so there is nothing to synchronise.

* Paths travel as a :class:`~repro.topology.pathcsr.PathCSR`: per path, the
  store *slots* of its hops' sending sides (``slot ^ 1`` is the receiving
  side, ``store.channels[slot >> 1]`` the channel), re-resolved whenever
  the ``topology_version`` moves, with the bottleneck rule written once.
* :class:`PathCatalog` -- per-pair candidate paths as :class:`CatalogEntry`
  rows, recomputed when the topology they were computed on changes.
  Entries can be *pinned* to reproduce scalar schemes that deliberately keep
  stale path pools (Flash's mouse paths).
* :class:`AtomicBatchExecutor` -- all-or-nothing multi-path execution on the
  store, replaying the per-hop lock/settle walk of
  :class:`repro.reference.baselines.ScalarExecutor` term-for-term in the
  same floating-point order, so the two agree on every success/failure
  decision and routed amount (they are bit-identical).

The scalar walk stays the readable reference; the baselines differential
suite pins the two to the same decisions, final balances and per-payment
outcomes (status, completion time, delivered value, hops).  The executor
writes nothing per hop but the balances, and a success completes its
payment in place (:meth:`Payment.complete`), where the scalar walk reaches
the same fields through one full-value transaction unit.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.obs import core as obs
from repro.routing.transaction import FailureReason, Payment
from repro.topology.channel import EPS as _EPS
from repro.topology.network import PCNetwork
from repro.topology.pathcsr import PathCSR

NodeId = Hashable
Pair = Tuple[NodeId, NodeId]


class CatalogEntry(PathCSR):
    """One pair's candidate paths, pinned or tied to the topology they were computed on."""

    __slots__ = ("pinned", "topology_version")

    def __init__(
        self,
        network: PCNetwork,
        paths: Sequence[Sequence[NodeId]],
        pinned: bool,
        slots: Optional[Sequence[Tuple[int, ...]]] = None,
    ) -> None:
        super().__init__(network, paths, slots)
        self.pinned = pinned
        self.topology_version = network.topology_version


class PathCatalog:
    """Per-pair path cache keyed on the network's topology version.

    Non-pinned entries are dropped once the topology moved past the version
    they were *created* at (a capacity read refreshes their slots, not
    their paths), so the caller recomputes paths exactly when the scalar
    reference (which recomputes per transaction) would see different ones.
    Pinned entries keep their *path lists* forever -- reproducing scalar
    schemes that cache paths without invalidation -- while their hop slots
    still follow the live topology.

    A pair's first computation can come from the mirror's path memo
    (:meth:`repro.topology.csr.GraphArrays.catalog_rows`): when ``resolve``
    names its ``query`` and an earlier catalog resolved the same query on
    the same mirror, the entry is built from the memo's rows and neither
    ``compute`` nor the slot walk runs.
    """

    def __init__(self, network: PCNetwork) -> None:
        self.network = network
        self._entries: Dict[Pair, CatalogEntry] = {}
        #: Per query, the memo's shared rows (``None``: not reused) on the
        #: mirror of topology version ``_shared_version``.
        self._shared: Dict[Hashable, Optional[Dict[Pair, tuple]]] = {}
        self._shared_version = -1

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
        query: Optional[Hashable] = None,
    ) -> Tuple[CatalogEntry, bool]:
        """The pair's entry plus whether it was (re)created for this call.

        ``compute`` runs at most once per (pair, topology version) for
        non-pinned entries and once ever for pinned entries; the boolean lets
        callers account per-computation costs (e.g. probe messages) without
        inferring them from catalog state.  ``query`` names what ``compute``
        asks (e.g. ``("ksp", 1)``) when its answer depends on the topology
        alone; an entry built from the memo's rows still counts as computed.
        """
        version = self.network.topology_version
        entry = self._entries.get(pair)
        if entry is not None and not entry.pinned and entry.topology_version != version:
            entry = None
        computed = entry is None
        if entry is None:
            entry = self._entries[pair] = self._build(pair, compute, pinned, query)
        return entry, computed

    def _build(
        self,
        pair: Pair,
        compute: Callable[[], Sequence[Sequence[NodeId]]],
        pinned: bool,
        query: Optional[Hashable],
    ) -> CatalogEntry:
        """A new entry, from the memo's rows when they hold the pair."""
        network = self.network
        rows = None
        if query is not None:
            if self._shared_version != network.topology_version:
                self._shared.clear()
                self._shared_version = network.topology_version
            if query not in self._shared:
                self._shared[query] = network.graph_arrays().catalog_rows(query)
            rows = self._shared[query]
        row = rows.get(pair) if rows is not None else None
        if row is not None:
            return CatalogEntry(network, row[0], pinned, row[1])
        entry = CatalogEntry(network, [p for p in compute() if len(p) >= 2], pinned)
        if rows is not None:
            rows[pair] = (
                tuple(entry.paths),
                tuple(entry.row_slots(i) for i in range(len(entry.paths))),
            )
        return entry


class AtomicBatchExecutor:
    """All-or-nothing multi-path execution on the network's balance store.

    The decision logic and floating-point operation order mirror the per-hop
    walk of :class:`repro.reference.baselines.ScalarExecutor` exactly
    (capacity filter, proportional greedy allocation, sequential lock
    arithmetic with the same 1e-9 epsilon and negative clamp, release on
    failure), so both make identical decisions and leave identical balances.
    """

    def __init__(self, network: PCNetwork, hop_delay: float = 0.02) -> None:
        self.network = network
        self.hop_delay = hop_delay
        self.catalog = PathCatalog(network)

    def execute(
        self,
        payment: Payment,
        paths: PathCSR,
        now: float,
        shares: Optional[Sequence[float]] = None,
    ) -> bool:
        """Attempt ``payment`` across ``paths``, all-or-nothing.

        ``paths`` is a catalog entry, or a throwaway ``PathCSR(network,
        paths)`` for ad-hoc path lists (e.g. Flash's per-elephant max-flow
        paths).  ``shares`` (aligned with ``paths.paths``) replaces the
        greedy largest-first allocation with caller-computed per-path
        amounts (waterfilling); the caller is responsible for checking joint
        capacity first, exactly like the scalar mixin.
        """
        store = self.network.balance_store
        values = store.values
        rec = obs.RECORDER
        if rec.enabled and rec.payment_begin(payment):
            rec.payment_event(payment, "atomic_attempt", now, paths=len(paths))

        allocations: List[Tuple[Tuple[int, ...], float]] = []
        if shares is not None:
            # Caller-computed split: keep the given path order, skip
            # zero-share paths, and resolve hops without a capacity filter
            # (locks enforce capacity, as the scalar reference does).
            for i, path in enumerate(paths.paths):
                share = float(shares[i])
                if share <= _EPS:
                    continue
                slots = paths.row_slots(i)
                if -1 in slots:
                    # The scalar lock walk would raise on the missing channel;
                    # callers allocate zero shares to dead paths, so reaching
                    # this is a contract violation, not a routing failure.
                    raise KeyError(f"no channel along path {path!r}")
                allocations.append((slots, share))
            if not allocations:
                return self._fail(payment, now, FailureReason.INSUFFICIENT_CAPACITY, capacity=0.0)
        else:
            usable: List[Tuple[Tuple[int, ...], float]] = []
            for i in range(len(paths.paths)):
                capacity = paths.capacity(i)
                if capacity > 0:
                    usable.append((paths.row_slots(i), capacity))

            total_capacity = sum(item[1] for item in usable)
            if not usable or total_capacity + _EPS < payment.value:
                return self._fail(
                    payment, now, FailureReason.INSUFFICIENT_CAPACITY,
                    capacity=round(total_capacity, 9),
                )

            # Allocate greedily by capacity, largest first (stable, like list.sort).
            usable.sort(key=lambda item: item[1], reverse=True)
            remaining = payment.value
            for slots, capacity in usable:
                if remaining <= _EPS:
                    break
                share = min(capacity, remaining)
                allocations.append((slots, share))
                remaining -= share
            if remaining > _EPS:
                return self._fail(
                    payment, now, FailureReason.INSUFFICIENT_CAPACITY,
                    unallocated=round(remaining, 9),
                )

        # Lock phase: sequential subtraction in scalar order; paths may share
        # channels (landmark routes), so a later lock can still fail.
        applied: List[Tuple[int, float]] = []
        failed = False
        for slots, share in allocations:
            for slot in slots:
                balance = values[slot]
                if balance + _EPS < share:
                    failed = True
                    break
                balance -= share
                values[slot] = 0.0 if balance < 0 else balance
                applied.append((slot, share))
            if failed:
                break
        if failed:
            for slot, amount in applied:
                values[slot] += amount
            if applied:
                store.version += 1
            return self._fail(payment, now, FailureReason.LOCK_CONTENTION, released=len(applied))

        # Settle phase: funds arrive on the receiving side of every hop, in
        # lock-creation order (the scalar settle loop's order).
        for slot, amount in applied:
            values[slot ^ 1] += amount
        store.version += 1

        longest = max(len(slots) for slots, _ in allocations)
        completion_time = now + self.hop_delay * longest
        payment.complete(completion_time, sum(len(slots) for slots, _ in allocations))
        if rec.enabled:
            rec.payment_event(
                payment, "atomic_settle", now,
                paths=len(allocations), complete_at=round(completion_time, 9),
            )
        return True

    @staticmethod
    def _fail(payment: Payment, now: float, reason: FailureReason, **fields: object) -> bool:
        """Fail the payment, trace why, and return ``False`` for the caller.

        Starts the payment's trace if nothing has yet (waterfilling rejects
        before it reaches :meth:`execute`).
        """
        payment.fail(reason)
        rec = obs.RECORDER
        if rec.enabled and rec.payment_begin(payment):
            rec.payment_event(payment, "atomic_fail", now, reason=reason.value, **fields)
        return False
