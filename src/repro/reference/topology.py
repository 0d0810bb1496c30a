"""networkx hop helpers and Table-II path selectors.

The scalar counterparts of :mod:`repro.topology.csr` and
:mod:`repro.routing.paths`: every query walks :func:`nx_mirror`, the
networkx export of a :class:`~repro.topology.network.PCNetwork` that only
this oracle builds (production code never sees a networkx view of a
network).  Its node and adjacency order equal the CSR mirror's, so path
lists match the production kernels exactly (order and tie-breaks included;
pinned by ``tests/topology/test_csr_equivalence.py``).
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.routing.paths import _HEURISTIC_CANDIDATE_POOL, _join_landmark_legs
from repro.topology.csr import NodeNotFound, NoPath
from repro.topology.network import PCNetwork

NodeId = Hashable
Path = List[NodeId]

#: What the networkx walks below raise where the production kernels raise
#: their own classes (an unknown EDW source surfaces from ``Graph.neighbors``
#: as a plain ``NetworkXError``): the differential suite compares through it.
ORACLE_EXCEPTIONS = {
    NoPath: nx.NetworkXNoPath,
    NodeNotFound: (nx.NodeNotFound, nx.NetworkXError),
}

#: network -> (``(topology_version, node_count)`` it was built at, mirror).
#: Weak keys: a mirror lives exactly as long as the network it exports.
_MIRRORS: "weakref.WeakKeyDictionary[PCNetwork, Tuple[Tuple[int, int], nx.Graph]]" = (
    weakref.WeakKeyDictionary()
)


def nx_mirror(network: PCNetwork) -> nx.Graph:
    """The networkx export of ``network`` (channels on the ``channel`` edge attr).

    Reproduces node order *and* per-node adjacency order exactly -- the rows
    of the private networkx adjacency are written in the network's own
    order rather than re-derived from an edge list -- so the networkx walks
    below tie-break identically to the CSR kernels.  Cached per
    ``topology_version`` (and node count: adding an isolated node does not
    move the version).
    """
    stamp = (network.topology_version, network.node_count())
    cached = _MIRRORS.get(network)
    if cached is not None and cached[0] == stamp:
        return cached[1]
    mirror = nx.Graph()
    mirror.add_nodes_from(network.adj)
    rows = mirror._adj
    data_of: Dict[int, Dict[str, object]] = {}
    for node, neighbors in network.adj.items():
        row = rows[node]
        for neighbor, channel in neighbors.items():
            row[neighbor] = data_of.setdefault(id(channel), {"channel": channel})
    _MIRRORS[network] = (stamp, mirror)
    return mirror


def hop_count(network: PCNetwork, source: NodeId, target: NodeId) -> int:
    """Hops on a shortest path; raises ``nx.NetworkXNoPath`` when disconnected."""
    if source == target:
        return 0
    return nx.shortest_path_length(nx_mirror(network), source, target)


def hop_counts_from(network: PCNetwork, source: NodeId) -> Dict[NodeId, int]:
    """Hop count from ``source`` to every reachable node."""
    return dict(nx.single_source_shortest_path_length(nx_mirror(network), source))


def all_pairs_hop_counts(network: PCNetwork) -> Dict[NodeId, Dict[NodeId, int]]:
    """Hop-count matrix for the whole network (BFS from every node)."""
    return dict(nx.all_pairs_shortest_path_length(nx_mirror(network)))


def shortest_path(network: PCNetwork, source: NodeId, target: NodeId) -> Path:
    """One shortest (fewest-hops) path between two nodes."""
    return nx.shortest_path(nx_mirror(network), source, target)


def k_shortest_paths(network: PCNetwork, source: NodeId, target: NodeId, k: int) -> List[Path]:
    """Up to ``k`` loop-free shortest paths by hop count (the KSP column)."""
    if k <= 0 or source == target:
        return []
    paths: List[Path] = []
    try:
        for path in nx.shortest_simple_paths(nx_mirror(network), source, target):
            paths.append(list(path))
            if len(paths) >= k:
                break
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return []
    return paths


def path_capacity(network: PCNetwork, path: Sequence[NodeId]) -> float:
    """Bottleneck spendable funds along a directed path, walked hop by hop.

    A path with a missing hop (e.g. a channel closed by network dynamics
    after the path was cached) has capacity 0.0 rather than raising, so
    routing layers holding stale paths simply skip them.  The oracle of
    :class:`repro.topology.pathcsr.PathCSR`'s bottleneck reads.
    """
    if len(path) < 2:
        return 0.0
    bottleneck = float("inf")
    for sender, receiver in zip(path, path[1:]):
        neighbors = network.adj.get(sender)
        channel = neighbors.get(receiver) if neighbors is not None else None
        if channel is None:
            return 0.0
        bottleneck = min(bottleneck, channel.balance(sender))
    return bottleneck


def heuristic_widest_paths(
    network: PCNetwork, source: NodeId, target: NodeId, k: int
) -> List[Path]:
    """The ``k`` shortest-pool candidates with the highest bottleneck funds."""
    if k <= 0 or source == target:
        return []
    pool = k_shortest_paths(network, source, target, max(k, _HEURISTIC_CANDIDATE_POOL))
    ranked = sorted(pool, key=lambda path: path_capacity(network, path), reverse=True)
    return ranked[:k]


def _widest_path(
    graph: nx.Graph,
    network: PCNetwork,
    source: NodeId,
    target: NodeId,
    excluded_edges: Set[frozenset],
) -> Optional[Path]:
    """Maximum-bottleneck path over directional spendable balances.

    A Dijkstra variant where the path metric is the minimum directional
    balance along the path and we maximize that minimum.  Edges in
    ``excluded_edges`` are skipped (used to enforce edge-disjointness).
    """
    best_width: Dict[NodeId, float] = {source: float("inf")}
    previous: Dict[NodeId, NodeId] = {}
    counter = itertools.count()
    heap: List[Tuple[float, int, NodeId]] = [(-float("inf"), next(counter), source)]
    visited: Set[NodeId] = set()
    while heap:
        negative_width, _, node = heapq.heappop(heap)
        width = -negative_width
        if node in visited:
            continue
        visited.add(node)
        if node == target:
            break
        for neighbor in graph.neighbors(node):
            edge_key = frozenset((node, neighbor))
            if edge_key in excluded_edges or neighbor in visited:
                continue
            available = network.channel(node, neighbor).balance(node)
            if available <= 0:
                continue
            new_width = min(width, available)
            if new_width > best_width.get(neighbor, 0.0):
                best_width[neighbor] = new_width
                previous[neighbor] = node
                heapq.heappush(heap, (-new_width, next(counter), neighbor))
    if target not in best_width or target not in previous and target != source:
        return None
    path: Path = [target]
    while path[-1] != source:
        path.append(previous[path[-1]])
    path.reverse()
    return path


def edge_disjoint_widest_paths(
    network: PCNetwork, source: NodeId, target: NodeId, k: int
) -> List[Path]:
    """Up to ``k`` edge-disjoint widest paths (the EDW column, Splicer's default)."""
    if k <= 0 or source == target:
        return []
    graph = nx_mirror(network)
    excluded: Set[frozenset] = set()
    paths: List[Path] = []
    for _ in range(k):
        path = _widest_path(graph, network, source, target, excluded)
        if path is None or len(path) < 2:
            break
        paths.append(path)
        for a, b in zip(path, path[1:]):
            excluded.add(frozenset((a, b)))
    return paths


def edge_disjoint_shortest_paths(
    network: PCNetwork, source: NodeId, target: NodeId, k: int
) -> List[Path]:
    """Up to ``k`` edge-disjoint shortest (fewest hops) paths (the EDS column)."""
    if k <= 0 or source == target:
        return []
    working = nx.Graph(nx_mirror(network).edges())
    paths: List[Path] = []
    for _ in range(k):
        try:
            path = nx.shortest_path(working, source, target)
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            break
        if len(path) < 2:
            break
        paths.append(list(path))
        working.remove_edges_from(list(zip(path, path[1:])))
    return paths


def landmark_paths(
    network: PCNetwork,
    source: NodeId,
    target: NodeId,
    k: int,
    landmarks: Sequence[NodeId],
) -> List[Path]:
    """Paths through landmark nodes: two networkx shortest legs per landmark."""

    def leg(a: NodeId, b: NodeId) -> Path:
        # The shared joiner skips a landmark on production's exception classes.
        try:
            return shortest_path(network, a, b)
        except ORACLE_EXCEPTIONS[NoPath] as error:
            raise NoPath(str(error)) from error
        except ORACLE_EXCEPTIONS[NodeNotFound] as error:
            raise NodeNotFound(str(error)) from error

    return _join_landmark_legs(leg, source, target, k, landmarks)


#: The scalar selectors under the Table-II names of ``PATH_SELECTORS``.
PATH_SELECTORS = {
    "ksp": k_shortest_paths,
    "heuristic": heuristic_widest_paths,
    "edw": edge_disjoint_widest_paths,
    "eds": edge_disjoint_shortest_paths,
}
