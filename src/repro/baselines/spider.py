"""Spider-style multi-path packetized source routing (NSDI'20).

Spider splits payments into packet-like transaction units.  It is the
closest competitor to Splicer in the paper, and this reproduction runs it on
the same rate router with three differences:

* paths are edge-disjoint shortest (EDS, k = 4) rather than widest, so they
  ignore the heavy-tailed channel capacities,
* per-path rates follow the capacity price only: imbalance pricing is off,
* the *sender* computes and refreshes paths, so every payment first waits a
  source-computation delay that grows with network size (and eats into the
  3-second deadline).
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
#: capacity price only).
SPIDER_ROUTER_CONFIG = RouterConfig(
    path_type="eds",
    path_count=4,
    imbalance_pricing_enabled=False,
)


class SpiderScheme(RoutingScheme):
    """Spider: packetized multi-path source routing with capacity pricing."""

    name = "spider"
    computation = SourceComputationModel(base_delay=0.05)

    def __init__(self, router_config: Optional[RouterConfig] = None) -> None:
        super().__init__()
        self.router_config = router_config or replace(SPIDER_ROUTER_CONFIG)
        self.router: Optional[RateRouter] = None

    def prepare(self, network: PCNetwork, rng: Optional[np.random.Generator] = None) -> None:
        super().prepare(network, rng)
        self.router = RateRouter(network, self.router_config)

    def submit(self, request: TransactionRequest, now: float) -> Payment:
        payment = self._payment(request)
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
