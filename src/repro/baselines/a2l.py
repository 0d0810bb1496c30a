"""A2L-style single payment channel hub (S&P'21).

A2L is the state-of-the-art single-hub PCH: every payment goes
sender -> hub -> recipient in one hop on each side, with an anonymous atomic
lock protocol providing unlinkability.  Its strengths are privacy and
simplicity; the scalability costs the paper measures are:

* a *single* hub mediates every payment, so its channels' liquidity and its
  processing rate bound the whole network,
* the cryptographic puzzle-promise protocol adds per-payment processing
  time, so under load payments queue at the hub and miss their deadline,
* there is no multi-path splitting, so payments larger than the bottleneck
  channel fail outright.

On the evaluation topology (a general PCN rather than a pre-built star) the
hub is the best-connected node and the sender/recipient legs use shortest
paths to and from it, which is the natural embedding of the star working
model of figure 2(a).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

import numpy as np

from repro.baselines.base import AtomicRoutingMixin, RoutingScheme, SchemeStepReport
from repro.routing.paths import k_shortest_paths
from repro.routing.transaction import FailureReason, Payment
from repro.simulator.workload import TransactionRequest
from repro.topology.network import PCNetwork
from repro.topology.pathcsr import PathCSR


class A2LScheme(AtomicRoutingMixin, RoutingScheme):
    """Single-hub PCH with per-payment cryptographic processing overhead."""

    name = "a2l"

    #: Seconds of puzzle-promise processing before a payment can route.
    crypto_delay: float = 0.05
    #: Payments the hub processes per second.
    hub_capacity_per_second: float = 40.0

    def __init__(self) -> None:
        super().__init__()
        self.hub: Optional[object] = None
        self._queue: Deque[Payment] = deque()
        self._processing_backlog = 0.0

    def prepare(self, network: PCNetwork, rng: Optional[np.random.Generator] = None) -> None:
        super().prepare(network, rng)
        self.hub = max(network.nodes(), key=lambda node: network.degree(node))
        self._queue = deque()
        self._processing_backlog = 0.0

    # ------------------------------------------------------------------ #
    # scheme interface
    # ------------------------------------------------------------------ #
    def submit(self, request: TransactionRequest, now: float) -> Payment:
        payment = self._payment(request)
        # Puzzle-promise setup costs two round trips with the hub.
        self.control_messages += 4
        self._queue.append(payment)
        return payment

    def step(self, now: float, dt: float) -> SchemeStepReport:
        network = self._require_network()
        report = super().step(now, dt)

        # The hub can process a bounded number of payments per second.
        budget = self.hub_capacity_per_second * dt + self._processing_backlog
        while self._queue and budget >= 1.0:
            payment = self._queue.popleft()
            budget -= 1.0
            if now > payment.deadline:
                payment.fail(FailureReason.TIMEOUT)
                report.failed.append(payment)
                continue
            if self._route_via_hub(network, payment, now):
                report.completed.append(payment)
            else:
                report.failed.append(payment)
        self._processing_backlog = min(budget, self.hub_capacity_per_second)

        # Anything still queued past its deadline fails.
        still_queued: Deque[Payment] = deque()
        for payment in self._queue:
            if now > payment.deadline:
                payment.fail(FailureReason.TIMEOUT)
                report.failed.append(payment)
            else:
                still_queued.append(payment)
        self._queue = still_queued
        return report

    def _route_via_hub(self, network: PCNetwork, payment: Payment, now: float) -> bool:
        """Route sender -> hub -> recipient atomically on shortest legs."""
        if self.hub in (payment.sender, payment.recipient):
            legs = k_shortest_paths(network, payment.sender, payment.recipient, 1)
            path = legs[0] if legs else None
        else:
            to_hub = k_shortest_paths(network, payment.sender, self.hub, 1)
            from_hub = k_shortest_paths(network, self.hub, payment.recipient, 1)
            if not to_hub or not from_hub:
                path = None
            else:
                path = list(to_hub[0]) + list(from_hub[0][1:])
        if path is None or len(path) < 2:
            payment.fail(FailureReason.NO_PATH)
            return False
        return self._execute(payment, PathCSR(network, [path]), now)

    def extra_delay(self, request: TransactionRequest) -> float:
        return self.crypto_delay
