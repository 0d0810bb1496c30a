"""Landmark routing.

Several earlier PCN schemes (Flare, SilentWhispers, SpeedyMurmurs) route
payments through a small set of well-connected *landmark* nodes: the sender
computes its shortest path to each landmark and the landmark extends it to
the recipient.  Payments execute atomically over up to ``k`` distinct
landmark paths with capacity-proportional splitting, and there is no rate or
balance control.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.baselines.base import AtomicRoutingMixin, NodeId, RoutingScheme, SourceComputationModel
from repro.baselines.batch import CatalogEntry
from repro.routing.paths import landmark_paths
from repro.topology.network import PCNetwork


class LandmarkScheme(AtomicRoutingMixin, RoutingScheme):
    """Landmark routing with up to ``k`` landmark-anchored paths per payment."""

    name = "landmark"

    #: Best-connected nodes serving as landmarks.
    landmark_count: int = 5
    #: Landmark paths a payment is attempted on.
    paths_per_payment: int = 4
    computation = SourceComputationModel(base_delay=0.03)

    def __init__(self) -> None:
        super().__init__()
        self.landmarks: List[object] = []

    def prepare(self, network: PCNetwork, rng: Optional[np.random.Generator] = None) -> None:
        super().prepare(network, rng)
        # Landmarks are the best-connected nodes, as in prior landmark schemes.
        ranked = sorted(network.nodes(), key=lambda node: network.degree(node), reverse=True)
        self.landmarks = ranked[: self.landmark_count]

    def _paths(self, sender: NodeId, recipient: NodeId, value: float) -> CatalogEntry:
        """Candidate landmark paths, as the pair's catalog entry.

        Landmark paths depend only on the topology, so they are resolved
        once per (pair, topology version) instead of recomputing two
        shortest paths per landmark for every payment.
        """
        network = self._require_network()
        k, landmarks = self.paths_per_payment, self.landmarks
        entry, _computed = self._executor.catalog.resolve(
            (sender, recipient),
            lambda: landmark_paths(network, sender, recipient, k, landmarks),
            query=("landmark", k, tuple(landmarks)),
        )
        self.control_messages += sum(max(len(path) - 1, 0) for path in entry.paths)
        return entry
