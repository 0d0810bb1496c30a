"""Scalar execution of the comparison schemes.

:class:`ScalarExecutor` is the per-hop
:class:`~repro.topology.channel.PaymentChannel` lock/settle walk the
:class:`~repro.baselines.batch.AtomicBatchExecutor` replays on arrays; the
scheme classes below put it under each atomic baseline, with paths
recomputed per payment (or kept in a plain dict) instead of the executor's
per-pair catalogs.  :class:`SpiderScheme` and :class:`SplicerScheme` swap in
the scalar :class:`~repro.reference.routing.RateRouter`.

``tests/baselines/test_baseline_backend_equivalence.py`` pins every
success/failure decision, routed amount, final balance and per-payment
outcome (status, completion time, delivered value, hops) against production.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines import (
    a2l,
    flash,
    landmark,
    shortest_path,
    speedymurmurs,
    spider,
    splicer_scheme,
    waterfilling,
)
from repro.obs import core as obs
from repro.reference.routing import RateRouter
from repro.reference.topology import path_capacity
from repro.routing.transaction import HOP_DELAY, FailureReason, Payment
from repro.topology.channel import InsufficientFundsError
from repro.topology.network import PCNetwork
from repro.topology.pathcsr import hop_slots

NodeId = Hashable
Path = Tuple[NodeId, ...]


class _PerPaymentEntry:
    """Catalog-entry stand-in: the paths, with capacities read off the channels."""

    def __init__(self, network: PCNetwork, paths: Sequence[Sequence[NodeId]]) -> None:
        self.network = network
        self.paths = [tuple(path) for path in paths if len(path) >= 2]

    def capacity(self, row: int) -> float:
        """Live bottleneck capacity of ``paths[row]``."""
        return path_capacity(self.network, self.paths[row])

    def row_slots(self, row: int) -> Tuple[int, ...]:
        """Store slots of ``paths[row]``'s hops, walked afresh."""
        return tuple(hop_slots(self.network, self.paths[row]))


class ScalarExecutor:
    """The executor's interface over the channel objects themselves.

    Drop-in for :class:`~repro.baselines.batch.AtomicBatchExecutor`: paths
    recomputed for every payment instead of catalogued (Flash's pinned mouse
    pools live in a plain dict), and :meth:`execute` is the per-hop
    lock/settle walk through the channel objects.
    """

    def __init__(self, network: PCNetwork, hop_delay: float) -> None:
        self.network = network
        self.hop_delay = hop_delay
        self.catalog = self  # ``resolve`` / ``clear`` live here
        self._pinned: Dict[Tuple[NodeId, NodeId], _PerPaymentEntry] = {}

    def clear(self) -> None:
        """Forget the pinned pools."""
        self._pinned.clear()

    def resolve(self, pair, compute, pinned=False, query=None):
        """``(entry, computed)``; only pinned entries are ever reused (``query`` is ignored)."""
        if pinned and pair in self._pinned:
            return self._pinned[pair], False
        entry = _PerPaymentEntry(self.network, compute())
        if pinned:
            self._pinned[pair] = entry
        return entry, True

    def execute(
        self,
        payment: Payment,
        paths,
        now: float,
        shares: Optional[Sequence[float]] = None,
    ) -> bool:
        """Attempt to deliver ``payment`` across ``paths.paths``, all-or-nothing.

        ``paths`` is an entry of :meth:`resolve` or a production
        :class:`~repro.topology.pathcsr.PathCSR`; only its node lists are read.
        """
        network = self.network
        rec = obs.RECORDER
        if rec.enabled and rec.payment_begin(payment):
            rec.payment_event(payment, "atomic_attempt", now, paths=len(paths.paths))

        def fail(reason: FailureReason, **fields: object) -> bool:
            payment.fail(reason)
            if rec.enabled:
                rec.payment_event(payment, "atomic_fail", now, reason=reason.value, **fields)
            return False

        allocations: List[Tuple[Path, float]] = []
        if shares is not None:
            for raw_path, share in zip(paths.paths, shares):
                path = tuple(raw_path)
                if len(path) >= 2 and share > 1e-9:
                    allocations.append((path, float(share)))
            if not allocations:
                return fail(FailureReason.INSUFFICIENT_CAPACITY, capacity=0.0)
        else:
            usable: List[Tuple[Path, float]] = []
            for raw_path in paths.paths:
                path = tuple(raw_path)
                if len(path) < 2:
                    continue
                capacity = path_capacity(network, path)
                if capacity > 0:
                    usable.append((path, capacity))
            total_capacity = sum(capacity for _, capacity in usable)
            if not usable or total_capacity + 1e-9 < payment.value:
                return fail(
                    FailureReason.INSUFFICIENT_CAPACITY, capacity=round(total_capacity, 9)
                )

            # Allocate greedily by capacity, largest first, to minimize split count.
            usable.sort(key=lambda item: item[1], reverse=True)
            remaining = payment.value
            for path, capacity in usable:
                if remaining <= 1e-9:
                    break
                share = min(capacity, remaining)
                allocations.append((path, share))
                remaining -= share
            if remaining > 1e-9:
                return fail(
                    FailureReason.INSUFFICIENT_CAPACITY, unallocated=round(remaining, 9)
                )

        locks: List[Tuple[object, int]] = []
        try:
            for path, share in allocations:
                for sender, receiver in zip(path, path[1:]):
                    channel = network.channel(sender, receiver)
                    locks.append((channel, channel.lock(sender, share, now=now)))
        except InsufficientFundsError:
            for channel, lock_id in locks:
                channel.release(lock_id)
            return fail(FailureReason.LOCK_CONTENTION, released=len(locks))

        for channel, lock_id in locks:
            channel.settle(lock_id)

        longest = max(len(path) - 1 for path, _ in allocations)
        completion_time = now + self.hop_delay * longest
        payment.split(min_tu=payment.value, max_tu=payment.value)
        unit = payment.units[0]
        unit.path = allocations[0][0]
        payment.record_unit_delivery(unit, completion_time)
        payment.hops_used += sum(len(path) - 1 for path, _ in allocations[1:])
        if rec.enabled:
            rec.payment_event(
                payment, "atomic_settle", now,
                paths=len(allocations), complete_at=round(completion_time, 9),
            )
        return True


class ScalarAtomicMixin:
    """Runs an atomic scheme on a :class:`ScalarExecutor`."""

    def prepare(self, network: PCNetwork, rng: Optional[np.random.Generator] = None) -> None:
        """Prepare as production does, then swap the array executor out."""
        super().prepare(network, rng)
        self._executor = ScalarExecutor(network, HOP_DELAY)


class ShortestPathScheme(ScalarAtomicMixin, shortest_path.ShortestPathScheme):
    """Single shortest path, recomputed and walked per payment."""


class LandmarkScheme(ScalarAtomicMixin, landmark.LandmarkScheme):
    """Landmark paths, recomputed and walked per payment."""


class FlashScheme(ScalarAtomicMixin, flash.FlashScheme):
    """Flash with its mouse-path pools in a plain never-invalidated dict."""


class SpeedyMurmursScheme(ScalarAtomicMixin, speedymurmurs.SpeedyMurmursScheme):
    """Greedy embedding walks, recomputed and walked per payment."""


class WaterfillingScheme(ScalarAtomicMixin, waterfilling.WaterfillingScheme):
    """Waterfilling over per-payment paths and live channel capacities."""


class A2LScheme(ScalarAtomicMixin, a2l.A2LScheme):
    """A2L's hub legs settled by the per-hop walk."""


class SpiderScheme(spider.SpiderScheme):
    """Spider over the scalar router."""

    def prepare(self, network: PCNetwork, rng: Optional[np.random.Generator] = None) -> None:
        """Prepare as production does, then swap in the scalar router."""
        super().prepare(network, rng)
        self.router = RateRouter(network, self.router_config)


class SplicerScheme(splicer_scheme.SplicerScheme):
    """Splicer with the scalar router behind its smooth nodes."""

    def prepare(self, network: PCNetwork, rng: Optional[np.random.Generator] = None) -> None:
        """Prepare as production does, then swap in the scalar router."""
        super().prepare(network, rng)
        self.router = RateRouter(network, self.config.router)
