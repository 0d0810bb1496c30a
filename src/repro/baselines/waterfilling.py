"""Waterfilling: residual-capacity-balanced multi-path routing.

The classic balance-aware source-routing baseline (Spider's eponymous
heuristic, also in the segflow exemplar): the sender probes up to ``k``
edge-disjoint shortest paths and splits the payment so the paths'
*residual* bottleneck capacities equalize -- funds are poured onto the
currently-widest path until its headroom levels with the next one,
instead of filling paths to capacity greedily.  The split itself is still
attempted atomically (all-or-nothing, HTLC-style): the scheme overrides
:meth:`~repro.baselines.base.AtomicRoutingMixin._execute` to check joint
capacity and pass its split to the shared executor's ``shares`` hook.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.baselines.base import AtomicRoutingMixin, NodeId, RoutingScheme, SourceComputationModel
from repro.baselines.batch import AtomicBatchExecutor, CatalogEntry
from repro.routing.paths import edge_disjoint_shortest_paths
from repro.routing.transaction import FailureReason, Payment
from repro.topology.channel import EPS


def waterfill_shares(capacities: Sequence[float], value: float) -> List[float]:
    """Split ``value`` across paths so residual capacities equalize.

    Lowers a single water level over the capacity profile: paths above the
    level carry ``capacity - level``, paths below carry nothing.  Pure
    scalar arithmetic in a deterministic order, so bit-identical capacities
    give bit-identical splits.  When the
    joint capacity cannot cover ``value`` every path is filled completely
    (callers reject that case up front).
    """
    if not capacities:
        return []
    order = sorted(range(len(capacities)), key=lambda i: (-capacities[i], i))
    n = len(order)
    level = float(capacities[order[0]])
    k = 1
    remaining = float(value)
    while remaining > 0.0 and level > 0.0:
        next_level = float(capacities[order[k]]) if k < n else 0.0
        drop = (level - next_level) * k
        if drop >= remaining:
            level -= remaining / k
            remaining = 0.0
        else:
            remaining -= drop
            level = next_level
            if k < n:
                k += 1
    shares = [0.0] * len(capacities)
    for i, capacity in enumerate(capacities):
        if capacity > level:
            shares[i] = float(capacity) - level
    # Absorb float drift into the widest path so the shares sum to ``value``
    # exactly (clamped to its capacity, which tolerates at most EPS slack).
    drift = float(value) - sum(shares)
    if drift != 0.0:
        widest = order[0]
        shares[widest] = min(float(capacities[widest]), max(shares[widest] + drift, 0.0))
    return shares


class WaterfillingScheme(AtomicRoutingMixin, RoutingScheme):
    """Atomic multi-path routing with waterfilling splits."""

    name = "waterfilling"

    #: Edge-disjoint shortest paths a payment is split across.
    paths_per_payment: int = 4
    computation = SourceComputationModel()

    def _paths(self, sender: NodeId, recipient: NodeId, value: float) -> CatalogEntry:
        """Edge-disjoint shortest paths, as the pair's catalog entry."""
        network = self._require_network()
        k = self.paths_per_payment
        entry, _computed = self._executor.catalog.resolve(
            (sender, recipient),
            lambda: edge_disjoint_shortest_paths(network, sender, recipient, k),
            query=("eds", k),
        )
        # One balance probe per hop per candidate path.
        self.control_messages += sum(len(path) - 1 for path in entry.paths)
        return entry

    def _execute(self, payment: Payment, paths: CatalogEntry, now: float) -> bool:
        """Fail unless the paths jointly carry the value, else lock the waterfilled split."""
        capacities = [paths.capacity(i) for i in range(len(paths.paths))]
        total = sum(capacities)
        if total + EPS < payment.value:
            return AtomicBatchExecutor._fail(
                payment, now, FailureReason.INSUFFICIENT_CAPACITY, capacity=round(total, 9)
            )
        shares = waterfill_shares(capacities, payment.value)
        return self._executor.execute(payment, paths, now, shares=shares)
