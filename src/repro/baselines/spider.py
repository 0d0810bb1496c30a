"""Spider-style multi-path packetized source routing (NSDI'20).

Spider splits payments into packet-like transaction units, routes them on a
set of edge-disjoint shortest paths, and adjusts per-path rates from
congestion signals at intermediate routers.  It is the closest competitor to
Splicer in the paper; the differences this reproduction models are exactly
the ones the paper attributes the gap to:

* the *sender* computes and refreshes paths, so every payment pays a
  source-computation delay that grows with network size (and eats into the
  3-second deadline),
* paths are edge-disjoint shortest rather than widest, which underutilizes
  the heavy-tailed channel capacities,
* rate control reacts to congestion (capacity price) but lacks Splicer's
  proactive imbalance pricing, so circulating imbalances drain channels
  more easily.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from repro.baselines.base import RoutingScheme, SchemeStepReport, SourceComputationModel
from repro.routing.router import RateRouter, RouterConfig
from repro.routing.transaction import Payment
from repro.simulator.workload import TransactionRequest
from repro.topology.network import PCNetwork


#: Spider's default router parameters (k = 4 edge-disjoint shortest paths,
#: congestion pricing only).
SPIDER_ROUTER_CONFIG = RouterConfig(
    path_type="eds",
    path_count=4,
    scheduler="lifo",
    imbalance_pricing_enabled=False,
)


class SpiderScheme(RoutingScheme):
    """Spider: packetized multi-path source routing with congestion pricing."""

    name = "spider"

    def __init__(
        self,
        router_config: Optional[RouterConfig] = None,
        timeout: float = 3.0,
        computation: Optional[SourceComputationModel] = None,
    ) -> None:
        super().__init__()
        self.router_config = router_config or replace(SPIDER_ROUTER_CONFIG)
        self.timeout = timeout
        self.computation = computation or SourceComputationModel(base_delay=0.05)
        self.router: Optional[RateRouter] = None

    def prepare(self, network: PCNetwork, rng: Optional[np.random.Generator] = None) -> None:
        super().prepare(network, rng)
        self.router = RateRouter(network, self.router_config)

    def submit(self, request: TransactionRequest, now: float) -> Payment:
        payment = Payment.create(
            sender=request.sender,
            recipient=request.recipient,
            value=request.value,
            created_at=request.arrival_time,
            timeout=self.timeout,
        )
        self.router.submit(payment, now)
        return payment

    def step(self, now: float, dt: float) -> SchemeStepReport:
        if self.router is None:
            raise RuntimeError("spider: prepare() must be called before step()")
        self._route_waiting(now)
        router_report = self.router.step(now, dt)
        self.control_messages = self.router.total_probe_messages
        return SchemeStepReport(
            router_report.completed_payments, router_report.failed_payments, router_report.fees_paid
        )
