"""Plain single-path shortest-path source routing.

The simplest baseline: the sender computes one shortest path and attempts an
atomic transfer on it.  It is also the "without smooth nodes" configuration
used by the placement-effectiveness experiment (figure 9(e)/(f)), where each
sender bears the path-computation cost itself.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.base import (
    AtomicRoutingMixin,
    RoutingScheme,
    SchemeStepReport,
    SourceComputationModel,
)
from repro.routing.paths import k_shortest_paths
from repro.routing.transaction import FailureReason, Payment
from repro.simulator.workload import TransactionRequest


class ShortestPathScheme(AtomicRoutingMixin, RoutingScheme):
    """Single shortest-path atomic source routing."""

    name = "shortest-path"

    def __init__(
        self,
        timeout: float = 3.0,
        computation: Optional[SourceComputationModel] = None,
    ) -> None:
        super().__init__()
        self.timeout = timeout
        self.computation = computation or SourceComputationModel()
        self._report = SchemeStepReport()

    def submit(self, request: TransactionRequest, now: float) -> Payment:
        network = self._require_network()
        payment = Payment.create(
            sender=request.sender,
            recipient=request.recipient,
            value=request.value,
            created_at=now,
            timeout=self.timeout,
        )
        # One shortest path per pair, recomputed only when topology moves.
        entry, _computed = self._executor.catalog.resolve(
            (request.sender, request.recipient),
            lambda: k_shortest_paths(network, request.sender, request.recipient, 1),
        )
        paths = entry.paths
        self.control_messages += 1  # the sender probes its one path
        if not paths:
            payment.fail(FailureReason.NO_PATH)
            self._report.failed.append(payment)
            return payment
        if self.execute_atomic(payment, entry, now):
            self._report.completed.append(payment)
        else:
            self._report.failed.append(payment)
        return payment

    def extra_delay(self, payment: Payment) -> float:
        return self.computation.delay_for(self._require_network().node_count())
