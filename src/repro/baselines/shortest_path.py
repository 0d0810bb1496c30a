"""Plain single-path shortest-path source routing.

The simplest baseline: the sender computes one shortest path and attempts an
atomic transfer on it.  It is also the "without smooth nodes" configuration
used by the placement-effectiveness experiment (figure 9(e)/(f)), where each
sender bears the path-computation cost itself.
"""

from __future__ import annotations

from repro.baselines.base import AtomicRoutingMixin, NodeId, RoutingScheme, SourceComputationModel
from repro.baselines.batch import CatalogEntry
from repro.routing.paths import k_shortest_paths


class ShortestPathScheme(AtomicRoutingMixin, RoutingScheme):
    """Single shortest-path atomic source routing."""

    name = "shortest-path"
    computation = SourceComputationModel()

    def _paths(self, sender: NodeId, recipient: NodeId, value: float) -> CatalogEntry:
        network = self._require_network()
        # One shortest path per pair, recomputed only when topology moves.
        entry, _computed = self._executor.catalog.resolve(
            (sender, recipient),
            lambda: k_shortest_paths(network, sender, recipient, 1),
            query=("ksp", 1),
        )
        self.control_messages += 1  # the sender probes its one path
        return entry
