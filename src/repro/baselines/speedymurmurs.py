"""SpeedyMurmurs: embedding-based routing with churn-reactive coordinates.

SpeedyMurmurs (Roos et al., NDSS'18) assigns every node a coordinate in a
set of landmark-rooted spanning trees and forwards a payment greedily to
the neighbor whose coordinate is closest to the recipient's, so routing
needs no global per-payment path computation -- only local embedding
distance comparisons.  Following the reference simulator, each landmark's
BFS embedding is built in two phases: the first adopts nodes only over
*bidirectionally funded* channels (both directions can forward), the
second sweeps the assigned frontier again admitting unidirectional ones;
children are numbered in deterministic adjacency order, so the embedding
is a pure function of the topology and the per-channel funding
classification.

What makes this scheme the hardest exercise of the dynamics hooks is that
the embedding *reacts to link changes*: channel closes, opens and
jamming-induced funding flips repair the affected landmark trees inside
:meth:`SpeedyMurmursScheme.on_network_change`.  Repair is
landmark-selective -- a landmark rebuilds only when the change can alter
its canonical tree (any newly traversable link, or a retired/defunded
tree edge) -- and repaired state is always identical to a from-scratch
rebuild, an invariant pinned by
``tests/baselines/test_speedymurmurs_repair.py``.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.baselines.base import AtomicRoutingMixin, NodeId, Path, RoutingScheme
from repro.baselines.batch import CatalogEntry
from repro.topology.channel import EPS
from repro.topology.network import PCNetwork

#: A landmark tree coordinate: the child indices along the root-to-node path.
Coordinate = Tuple[int, ...]
EdgeKey = Tuple[NodeId, NodeId]


class SpeedyMurmursScheme(AtomicRoutingMixin, RoutingScheme):
    """Greedy embedding routing over landmark-rooted spanning trees."""

    name = "speedymurmurs"

    #: Landmark-rooted spanning trees a payment is walked through.
    landmark_count: int = 3

    def __init__(self) -> None:
        super().__init__()
        self.landmarks: List[NodeId] = []
        self._rank: Dict[NodeId, int] = {}
        self._link_state: Dict[EdgeKey, bool] = {}
        self._coords: List[Dict[NodeId, Coordinate]] = []
        self._parents: List[Dict[NodeId, NodeId]] = []
        self._tree_edges: List[Set[EdgeKey]] = []
        self._embedding_version = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def prepare(self, network: PCNetwork, rng: Optional[np.random.Generator] = None) -> None:
        super().prepare(network, rng)
        self._rank = {}
        self._register_ranks()
        ranked = sorted(
            network.nodes(), key=lambda node: (-network.degree(node), self._rank[node])
        )
        self.landmarks = ranked[: self.landmark_count]
        self._link_state = self._classify_links()
        self._coords = []
        self._parents = []
        self._tree_edges = []
        for root in self.landmarks:
            coords, parents, edges = self._build_tree(root)
            self._coords.append(coords)
            self._parents.append(parents)
            self._tree_edges.append(edges)
            # Every assigned node announces its coordinate to its neighbors.
            self.control_messages += len(coords)
        self._embedding_version = 0

    # ------------------------------------------------------------------ #
    # embedding construction
    # ------------------------------------------------------------------ #
    def _register_ranks(self) -> None:
        """Stable deterministic node order (insertion order of the network)."""
        for node in self._require_network().nodes():
            if node not in self._rank:
                self._rank[node] = len(self._rank)

    def _edge_key(self, u: NodeId, v: NodeId) -> EdgeKey:
        return (u, v) if self._rank[u] <= self._rank[v] else (v, u)

    def _classify_links(self) -> Dict[EdgeKey, bool]:
        """Each live channel's funding classification (bidirectional or not)."""
        state: Dict[EdgeKey, bool] = {}
        for channel in self._require_network().channels():
            u, v = channel.endpoints
            bidirectional = channel.balance(u) > EPS and channel.balance(v) > EPS
            state[self._edge_key(u, v)] = bidirectional
        return state

    def _build_tree(
        self, root: NodeId
    ) -> Tuple[Dict[NodeId, Coordinate], Dict[NodeId, NodeId], Set[EdgeKey]]:
        """The canonical two-phase BFS embedding rooted at ``root``.

        Phase one adopts children only over bidirectionally funded channels;
        phase two re-seeds the queue with every assigned node (in rank
        order) and admits unidirectional channels, so weakly funded regions
        still get coordinates.  Child numbering continues across phases,
        matching the reference implementation.
        """
        network = self._require_network()
        rank = self._rank
        coords: Dict[NodeId, Coordinate] = {root: ()}
        parents: Dict[NodeId, NodeId] = {}
        tree_edges: Set[EdgeKey] = set()
        child_count: Dict[NodeId, int] = {}
        queue = deque([root])
        bidirectional_only = True
        while True:
            while queue:
                node = queue.popleft()
                base = coords[node]
                for neighbor in sorted(network.neighbors(node), key=rank.__getitem__):
                    if neighbor in coords:
                        continue
                    key = self._edge_key(node, neighbor)
                    if bidirectional_only and not self._link_state.get(key, False):
                        continue
                    index = child_count.get(node, 0) + 1
                    child_count[node] = index
                    coords[neighbor] = base + (index,)
                    parents[neighbor] = node
                    tree_edges.add(key)
                    queue.append(neighbor)
            if not bidirectional_only:
                break
            bidirectional_only = False
            queue.extend(sorted(coords, key=rank.__getitem__))
        return coords, parents, tree_edges

    # ------------------------------------------------------------------ #
    # dynamics reaction: incremental coordinate repair
    # ------------------------------------------------------------------ #
    def on_network_change(self) -> None:
        super().on_network_change()
        if self.network is not None and self._coords:
            self._repair_embedding()

    def _repair_embedding(self) -> None:
        """Re-embed exactly the landmark trees the link changes can affect.

        A landmark's canonical BFS is provably unchanged when the diff
        contains no newly traversable link (opened channel or a
        unidirectional one refunded to bidirectional) and every retired or
        defunded link is a non-tree edge of that landmark: non-tree links
        are only ever probed-and-skipped, so dropping them replays the
        identical adoption sequence.  Everything else rebuilds that tree
        from scratch, which keeps repaired state bit-identical to a full
        rebuild (the invariant the repair tests pin).
        """
        self._register_ranks()
        new_state = self._classify_links()
        old_state = self._link_state
        if new_state == old_state:
            return
        self._link_state = new_state
        gained = [
            key
            for key, bidirectional in new_state.items()
            if key not in old_state or (bidirectional and not old_state[key])
        ]
        lost = [
            key
            for key, was_bidirectional in old_state.items()
            if key not in new_state or (was_bidirectional and not new_state[key])
        ]
        rebuilt = 0
        for i, root in enumerate(self.landmarks):
            tree = self._tree_edges[i]
            if not gained and not any(key in tree for key in lost):
                continue
            coords, parents, edges = self._build_tree(root)
            self._coords[i] = coords
            self._parents[i] = parents
            self._tree_edges[i] = edges
            self.control_messages += len(coords)
            rebuilt += 1
        if rebuilt:
            self._embedding_version += 1
            # Cached greedy paths key on the topology version, which a pure
            # funding flip (jamming) does not bump.
            self._executor.catalog.clear()

    # ------------------------------------------------------------------ #
    # greedy embedding routing
    # ------------------------------------------------------------------ #
    @staticmethod
    def _distance(a: Coordinate, b: Coordinate) -> int:
        """Tree distance between two coordinates (hops via the common prefix)."""
        shared = 0
        for x, y in zip(a, b):
            if x != y:
                break
            shared += 1
        return len(a) + len(b) - 2 * shared

    def _greedy_path(self, tree_index: int, sender: NodeId, recipient: NodeId) -> Optional[Path]:
        """Walk hop by hop to the neighbor closest to the recipient.

        Every hop must strictly decrease the embedding distance, which both
        terminates the walk and keeps it loop-free; ties break toward the
        lowest-ranked neighbor so the walk is deterministic.
        """
        coords = self._coords[tree_index]
        target = coords.get(recipient)
        origin = coords.get(sender)
        if target is None or origin is None:
            return None
        network = self._require_network()
        rank = self._rank
        path: List[NodeId] = [sender]
        current = sender
        current_distance = self._distance(origin, target)
        while current != recipient:
            best: Optional[NodeId] = None
            best_distance = current_distance
            for neighbor in sorted(network.neighbors(current), key=rank.__getitem__):
                coord = coords.get(neighbor)
                if coord is None:
                    continue
                distance = self._distance(coord, target)
                if distance < best_distance:
                    best_distance = distance
                    best = neighbor
            if best is None:
                return None
            path.append(best)
            current = best
            current_distance = best_distance
        return tuple(path)

    def _candidate_paths(self, sender: NodeId, recipient: NodeId) -> List[Path]:
        """One greedy walk per landmark tree, deduplicated in tree order."""
        paths: List[Path] = []
        seen: Set[Path] = set()
        for tree_index in range(len(self.landmarks)):
            path = self._greedy_path(tree_index, sender, recipient)
            if path is not None and len(path) >= 2 and path not in seen:
                seen.add(path)
                paths.append(path)
        return paths

    def _paths(self, sender: NodeId, recipient: NodeId, value: float) -> CatalogEntry:
        # Greedy walks are embedding-pure, so they cache per pair until
        # either the topology version moves or a repair clears the catalog;
        # no persistent store (the embedding is not topology-only state).
        entry, _computed = self._executor.catalog.resolve(
            (sender, recipient), lambda: self._candidate_paths(sender, recipient)
        )
        # One forwarding probe per hop per landmark path.
        self.control_messages += sum(len(path) - 1 for path in entry.paths)
        return entry

    # SpeedyMurmurs' decisions are local per hop; unlike the source-routing
    # baselines there is no per-payment whole-topology computation, so the
    # scheme adds no extra source-side delay (its figure-8 selling point).
