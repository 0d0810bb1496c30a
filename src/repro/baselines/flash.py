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

from typing import Optional

import numpy as np

from repro.baselines.base import AtomicRoutingMixin, NodeId, RoutingScheme, SourceComputationModel
from repro.routing.paths import edge_disjoint_widest_paths, k_shortest_paths
from repro.simulator.workload import TransactionRequest
from repro.topology.network import PCNetwork
from repro.topology.pathcsr import PathCSR


class FlashScheme(AtomicRoutingMixin, RoutingScheme):
    """Flash: max-flow style routing for elephants, random paths for mice."""

    name = "flash"

    #: Payments of at least this value are elephants.
    elephant_threshold: float = 80.0
    #: Max-flow style paths an elephant is split across.
    elephant_paths: int = 4
    #: Shortest paths in a pair's mouse pool.
    mouse_path_pool: int = 4
    computation = SourceComputationModel(base_delay=0.04)

    def prepare(self, network: PCNetwork, rng: Optional[np.random.Generator] = None) -> None:
        """Bind the network; mouse paths are drawn from ``rng`` (seed 0 without one)."""
        super().prepare(network, rng)
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def _paths(self, sender: NodeId, recipient: NodeId, value: float) -> PathCSR:
        """Max-flow style paths for an elephant, one random pool path for a mouse.

        The mouse pool is a few shortest paths, cached forever (Flash never
        refreshes mouse paths) as a *pinned* catalog entry so its channel
        rows still track the live topology; the chosen path travels with the
        pool's row of store slots.  Its control messages are counted once,
        when the pool is first computed.
        """
        network = self._require_network()
        if value >= self.elephant_threshold:
            paths = edge_disjoint_widest_paths(network, sender, recipient, self.elephant_paths)
            # Flash probes every candidate path before committing the payment.
            self.control_messages += sum(max(len(path) - 1, 0) for path in paths)
            return PathCSR(network, paths)
        pool = self.mouse_path_pool
        entry, computed = self._executor.catalog.resolve(
            (sender, recipient),
            lambda: k_shortest_paths(network, sender, recipient, pool),
            pinned=True,
            query=("ksp", pool),
        )
        if computed:
            self.control_messages += len(entry.paths)
        if not entry.paths:
            return PathCSR(network)
        row = int(self._rng.integers(len(entry.paths)))
        return PathCSR(network, [entry.paths[row]], [entry.row_slots(row)])

    def extra_delay(self, request: TransactionRequest) -> float:
        base = super().extra_delay(request)
        # Elephants pay the full max-flow computation; mice use cached paths.
        if request.value >= self.elephant_threshold:
            return base
        return base * 0.25
