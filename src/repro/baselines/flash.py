"""Flash-style dynamic routing (CoNEXT'19).

Flash distinguishes *elephant* payments (above a value threshold) from
*mice*:

* elephants get a modified max-flow computation that finds up to four
  high-capacity paths and splits the payment across them,
* mice are sent atomically on one path chosen at random from a small set of
  precomputed shortest paths (to keep probing overhead low).

Both kinds execute atomically (all-or-nothing), there is no rate control or
balance management, and the sender performs all path computation -- the
paper's two reasons Flash trails the rate-based schemes on imbalanced
workloads.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.baselines.base import (
    AtomicRoutingMixin,
    RoutingScheme,
    SchemeStepReport,
    SourceComputationModel,
)
from repro.routing.paths import edge_disjoint_widest_paths, k_shortest_paths
from repro.routing.transaction import FailureReason, Payment
from repro.simulator.workload import TransactionRequest
from repro.topology.network import PCNetwork
from repro.topology.pathcsr import PathCSR


class FlashScheme(AtomicRoutingMixin, RoutingScheme):
    """Flash: max-flow style routing for elephants, random paths for mice."""

    name = "flash"

    def __init__(
        self,
        elephant_threshold: float = 80.0,
        elephant_paths: int = 4,
        mouse_path_pool: int = 4,
        timeout: float = 3.0,
        computation: Optional[SourceComputationModel] = None,
        seed: Optional[int] = 0,
    ) -> None:
        super().__init__()
        if elephant_threshold <= 0:
            raise ValueError("elephant_threshold must be positive")
        self.elephant_threshold = elephant_threshold
        self.elephant_paths = elephant_paths
        self.mouse_path_pool = mouse_path_pool
        self.timeout = timeout
        self.computation = computation or SourceComputationModel(base_delay=0.04)
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._report = SchemeStepReport()

    def prepare(self, network: PCNetwork, rng: Optional[np.random.Generator] = None) -> None:
        super().prepare(network, rng)
        self._rng = rng if rng is not None else np.random.default_rng(self.seed)

    # ------------------------------------------------------------------ #
    # path selection
    # ------------------------------------------------------------------ #
    def _paths_for_mouse(self, sender: object, recipient: object) -> List[List[object]]:
        """Precomputed shortest-path pool for small payments (cached per pair).

        The pool is cached forever (Flash never refreshes mouse paths), as a
        *pinned* catalog entry so its channel rows still track the live
        topology.  Control messages are counted once, when the pool is first
        computed.
        """
        network = self._require_network()
        entry, computed = self._executor.catalog.resolve(
            (sender, recipient),
            lambda: k_shortest_paths(network, sender, recipient, self.mouse_path_pool),
            pinned=True,
        )
        if computed:
            self.control_messages += len(entry.paths)
        return entry.paths

    def _paths_for_elephant(self, sender: object, recipient: object) -> List[List[object]]:
        """Max-flow style high-capacity paths for large payments."""
        network = self._require_network()
        paths = edge_disjoint_widest_paths(network, sender, recipient, self.elephant_paths)
        # Flash probes every candidate path before committing the payment.
        self.control_messages += sum(max(len(path) - 1, 0) for path in paths)
        return paths

    # ------------------------------------------------------------------ #
    # scheme interface
    # ------------------------------------------------------------------ #
    def submit(self, request: TransactionRequest, now: float) -> Payment:
        network = self._require_network()
        payment = Payment.create(
            sender=request.sender,
            recipient=request.recipient,
            value=request.value,
            created_at=now,
            timeout=self.timeout,
        )
        if request.value >= self.elephant_threshold:
            paths = self._paths_for_elephant(request.sender, request.recipient)
        else:
            pool = self._paths_for_mouse(request.sender, request.recipient)
            paths = [pool[int(self._rng.integers(len(pool)))]] if pool else []
        if not paths:
            payment.fail(FailureReason.NO_PATH)
            self._report.failed.append(payment)
            return payment
        if self.execute_atomic(payment, PathCSR(network, paths), now):
            self._report.completed.append(payment)
        else:
            self._report.failed.append(payment)
        return payment

    def extra_delay(self, payment: Payment) -> float:
        base = self.computation.delay_for(self._require_network().node_count())
        # Elephants pay the full max-flow computation; mice use cached paths.
        if payment.value >= self.elephant_threshold:
            return base
        return base * 0.25
