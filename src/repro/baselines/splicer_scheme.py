"""Splicer wrapped in the comparison-scheme interface.

The scheme wires a full :class:`~repro.core.splicer.SplicerSystem` (candidate
election, placement optimization, client attachment, the encrypted payment
workflow, and the rate-based routing protocol) behind the same
``prepare`` / ``submit`` / ``step`` interface the baselines implement, so the
experiment runner can replay identical workloads over all of them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.base import RoutingScheme, SchemeStepReport
from repro.core.config import SplicerConfig
from repro.core.splicer import SplicerSystem
from repro.routing.transaction import Payment
from repro.simulator.workload import TransactionRequest
from repro.topology.network import PCNetwork


class SplicerScheme(RoutingScheme):
    """This paper's system: placed PCHs plus rate-based deadlock-free routing."""

    name = "splicer"

    def __init__(self, config: Optional[SplicerConfig] = None) -> None:
        super().__init__()
        self.config = config or SplicerConfig()
        self.system: Optional[SplicerSystem] = None

    def prepare(self, network: PCNetwork, rng: Optional[np.random.Generator] = None) -> None:
        super().prepare(network, rng)
        self.system = SplicerSystem(network, self.config)
        self.system.setup()

    def submit(self, request: TransactionRequest, now: float) -> Payment:
        if self.system is None:
            raise RuntimeError("splicer: prepare() must be called before submit()")
        sender = request.sender
        if sender not in self.system.clients:
            # Hubs themselves (or unplaced candidates) can also send payments;
            # route them through the engine directly without the client workflow.
            payment = Payment.create(
                sender=sender,
                recipient=request.recipient,
                value=request.value,
                created_at=request.arrival_time,
                timeout=self.config.payment_timeout,
            )
            self.system.router.submit(payment, now)
            return payment
        session, decision = self.system.submit_payment(
            sender, request.recipient, request.value, now=now, created_at=request.arrival_time
        )
        return decision.payment

    def step(self, now: float, dt: float) -> SchemeStepReport:
        if self.system is None:
            raise RuntimeError("splicer: prepare() must be called before step()")
        self._route_waiting(now)
        router_report = self.system.step(now, dt)
        self.control_messages = self._total_control_messages()
        return SchemeStepReport(
            completed=list(router_report.completed_payments),
            failed=list(router_report.failed_payments),
            fees_paid=router_report.fees_paid,
        )

    def extra_delay(self, request: TransactionRequest) -> float:
        if self.system is None or request.sender not in self.system.clients:
            return 0.0
        return self.system.management_delay(request.sender)

    # ------------------------------------------------------------------ #
    # overhead accounting
    # ------------------------------------------------------------------ #
    def _total_control_messages(self) -> float:
        assert self.system is not None
        management = sum(
            node.stats.management_messages + node.stats.acks_forwarded
            for node in self.system.smooth_nodes.values()
        )
        sync = self.system.epoch_clock.total_sync_messages()
        probes = self.system.router.total_probe_messages
        return float(management + sync + probes)

    @property
    def placement_plan(self):
        """The placement decided during :meth:`prepare` (None before that)."""
        return self.system.placement_plan if self.system is not None else None
