"""PCN topology generators.

The paper's evaluation builds channel graphs with ROLL on top of the
Watts-Strogatz small-world model and funds them from a heavy-tailed channel
size distribution.  This module provides that generator plus the other
topologies used throughout the library and its tests:

* :func:`watts_strogatz_pcn` -- the evaluation topology (small- and large-scale).
* :func:`scale_free_pcn` -- Barabasi-Albert graph, a common PCN approximation.
* :func:`random_pcn` -- Erdos-Renyi graph (connected), for fuzz testing.
* :func:`grid_pcn` -- 2-D grid, useful for hand-checkable placement tests.
* :func:`star_pcn` / :func:`multi_star_pcn` -- the PCH topologies of figure 2.

Only the scale-free, random and grid generators import networkx (inside the
function, so no other process loads it).
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.topology.channel import NodeId
from repro.topology.datasets import ChannelSizeDistribution
from repro.topology.network import ROLE_CANDIDATE, ROLE_CLIENT, ROLE_HUB, PCNetwork, reachable


def _resolve_rng(rng: Optional[np.random.Generator], seed: Optional[int]) -> np.random.Generator:
    if rng is not None:
        return rng
    return np.random.default_rng(seed)


#: Node -> neighbors, insertion-ordered: ``PCNetwork.adj`` / ``nx.Graph.adj`` shape.
Adjacency = Mapping[NodeId, Mapping[NodeId, object]]


def _edges(adjacency: Adjacency) -> Iterator[Tuple[NodeId, NodeId]]:
    """Every undirected edge once, at its first endpoint in node order.

    The enumeration order of ``networkx.Graph.edges``, which is the order
    channels are funded (and hence opened) in.
    """
    seen = set()
    for node, neighbors in adjacency.items():
        for neighbor in neighbors:
            if neighbor not in seen:
                yield node, neighbor
        seen.add(node)


def _fund_network(
    network: PCNetwork,
    adjacency: Adjacency,
    rng: np.random.Generator,
    channel_sizes: Optional[ChannelSizeDistribution],
    uniform_size: float,
    base_fee: float,
    fee_rate: float,
) -> None:
    """Open one channel per topology edge, funded per direction."""
    for node_a, node_b in _edges(adjacency):
        if channel_sizes is not None:
            size = float(channel_sizes.sample(rng))
        else:
            size = uniform_size
        per_side = size / 2.0
        network.add_channel(node_a, node_b, per_side, per_side, base_fee, fee_rate)


def _ensure_connected(graph, rng: np.random.Generator):
    """Join disconnected components of an ``nx.Graph`` with random bridging edges."""
    import networkx as nx

    components = [list(c) for c in nx.connected_components(graph)]
    while len(components) > 1:
        a = components[0][int(rng.integers(len(components[0])))]
        b = components[1][int(rng.integers(len(components[1])))]
        graph.add_edge(a, b)
        components = [list(c) for c in nx.connected_components(graph)]
    return graph


def _select_candidates(
    adjacency: Adjacency,
    candidate_fraction: float,
    rng: np.random.Generator,
) -> List[NodeId]:
    """Pick hub candidates: the best-connected nodes, as the voting step would.

    The paper's multiwinner voting prefers "excellent" nodes (more
    connections, more funds); we approximate the outcome by taking the
    highest-degree nodes with random tie-breaking.
    """
    count = max(1, int(round(candidate_fraction * len(adjacency))))
    jitter = {node: rng.random() for node in adjacency}
    ranked = sorted(adjacency, key=lambda n: (-len(adjacency[n]), jitter[n]))
    return ranked[:count]


def _build_pcn(
    adjacency: Adjacency,
    rng: np.random.Generator,
    channel_sizes: Optional[ChannelSizeDistribution],
    uniform_channel_size: float,
    candidate_fraction: float,
    base_fee: float,
    fee_rate: float,
) -> PCNetwork:
    candidates = set(_select_candidates(adjacency, candidate_fraction, rng)) if candidate_fraction > 0 else set()
    network = PCNetwork()
    for node in adjacency:
        role = ROLE_CANDIDATE if node in candidates else ROLE_CLIENT
        network.add_node(node, role=role)
    _fund_network(network, adjacency, rng, channel_sizes, uniform_channel_size, base_fee, fee_rate)
    return network


def _connected_watts_strogatz(
    node_count: int, k: int, p: float, seed: int
) -> Dict[int, Dict[int, None]]:
    """Adjacency of a connected Watts-Strogatz graph over nodes ``0..n-1``.

    Draw for draw what ``networkx.connected_watts_strogatz_graph`` (3.x) does
    for ``k < n`` -- one ``random.Random(seed)`` across all tries, one
    ``random()`` per lattice edge, ``choice(nodes)`` per candidate endpoint,
    a rewired edge moved to the end of both rows -- so node, edge and
    adjacency order are its (``tests/topology/test_generators.py``).  The
    consumption order is this repository's contract from here on; it is
    spelled out in ``docs/architecture.md``.
    """
    rng = random.Random(seed)
    nodes = list(range(node_count))
    rings = [nodes[j:] + nodes[:j] for j in range(1, k // 2 + 1)]
    for _ in range(200):
        adjacency: Dict[int, Dict[int, None]] = {node: {} for node in nodes}
        for targets in rings:
            for u, v in zip(nodes, targets):
                adjacency[u][v] = adjacency[v][u] = None
        for targets in rings:
            for u, v in zip(nodes, targets):
                if rng.random() < p:
                    row = adjacency[u]
                    w = rng.choice(nodes)
                    while w == u or w in row:
                        w = rng.choice(nodes)
                        if len(row) >= node_count - 1:
                            break  # u is adjacent to everyone: keep u-v
                    else:
                        del row[v], adjacency[v][u]
                        row[w] = adjacency[w][u] = None
        if len(reachable(adjacency, 0)) == node_count:
            return adjacency
    raise ValueError(
        f"no connected Watts-Strogatz graph (n={node_count}, k={k}, p={p}) in 200 tries"
    )


def watts_strogatz_pcn(
    node_count: int,
    nearest_neighbors: int = 8,
    rewire_probability: float = 0.25,
    channel_sizes: Optional[ChannelSizeDistribution] = None,
    uniform_channel_size: float = 100.0,
    candidate_fraction: float = 0.15,
    base_fee: float = 0.0,
    fee_rate: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = 0,
) -> PCNetwork:
    """The paper's evaluation topology: a funded Watts-Strogatz small world.

    Args:
        node_count: Number of PCN nodes (paper: 100 small-scale, 3000 large-scale).
        nearest_neighbors: Ring degree ``k`` of the Watts-Strogatz model.
        rewire_probability: Rewiring probability ``p``.
        channel_sizes: Heavy-tailed size sampler; if ``None``, channels get
            ``uniform_channel_size`` tokens in total.
        uniform_channel_size: Fallback channel size when no sampler is given.
        candidate_fraction: Fraction of (highest-degree) nodes marked as hub
            candidates.
        base_fee: Flat forwarding fee on every channel.
        fee_rate: Proportional forwarding fee on every channel.
        rng: Random generator (takes precedence over ``seed``).
        seed: Seed for a fresh generator when ``rng`` is not supplied.
    """
    if node_count < 3:
        raise ValueError("a PCN needs at least 3 nodes")
    rng = _resolve_rng(rng, seed)
    k = min(nearest_neighbors, node_count - 1)
    if k % 2 == 1:
        k -= 1
    k = max(k, 2)
    adjacency = _connected_watts_strogatz(
        node_count, k, rewire_probability, seed=int(rng.integers(2**31 - 1))
    )
    return _build_pcn(
        adjacency, rng, channel_sizes, uniform_channel_size, candidate_fraction, base_fee, fee_rate
    )


def scale_free_pcn(
    node_count: int,
    attachment: int = 3,
    channel_sizes: Optional[ChannelSizeDistribution] = None,
    uniform_channel_size: float = 100.0,
    candidate_fraction: float = 0.15,
    base_fee: float = 0.0,
    fee_rate: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = 0,
) -> PCNetwork:
    """A Barabasi-Albert scale-free PCN (ROLL generates scale-free graphs)."""
    if node_count < 3:
        raise ValueError("a PCN needs at least 3 nodes")
    import networkx as nx

    rng = _resolve_rng(rng, seed)
    m = max(1, min(attachment, node_count - 1))
    graph = nx.barabasi_albert_graph(node_count, m, seed=int(rng.integers(2**31 - 1)))
    return _build_pcn(
        graph.adj, rng, channel_sizes, uniform_channel_size, candidate_fraction, base_fee, fee_rate
    )


def random_pcn(
    node_count: int,
    edge_probability: Optional[float] = None,
    channel_sizes: Optional[ChannelSizeDistribution] = None,
    uniform_channel_size: float = 100.0,
    candidate_fraction: float = 0.15,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = 0,
) -> PCNetwork:
    """A connected Erdos-Renyi PCN, used mainly for fuzz and property tests."""
    if node_count < 3:
        raise ValueError("a PCN needs at least 3 nodes")
    import networkx as nx

    rng = _resolve_rng(rng, seed)
    if edge_probability is None:
        edge_probability = min(1.0, 2.0 * math.log(node_count) / node_count)
    graph = nx.gnp_random_graph(node_count, edge_probability, seed=int(rng.integers(2**31 - 1)))
    graph = _ensure_connected(graph, rng)
    return _build_pcn(graph.adj, rng, channel_sizes, uniform_channel_size, candidate_fraction, 0.0, 0.0)


def grid_pcn(
    rows: int,
    cols: int,
    channel_size: float = 100.0,
    candidate_fraction: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = 0,
) -> PCNetwork:
    """A 2-D grid PCN with uniform channels; node ids are ``(row, col)`` tuples."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    import networkx as nx

    rng = _resolve_rng(rng, seed)
    graph = nx.grid_2d_graph(rows, cols)
    return _build_pcn(graph.adj, rng, None, channel_size, candidate_fraction, 0.0, 0.0)


def star_pcn(
    client_count: int,
    hub_id: NodeId = "hub",
    hub_channel_size: float = 1000.0,
    client_channel_size: float = 100.0,
) -> PCNetwork:
    """The single-PCH star topology of figure 2(a).

    Every client opens one channel with the central hub; this is the A2L /
    TumbleBit working model.
    """
    if client_count < 1:
        raise ValueError("a star needs at least one client")
    network = PCNetwork()
    network.add_node(hub_id, role=ROLE_HUB)
    for index in range(client_count):
        client = f"client-{index}"
        network.add_node(client, role=ROLE_CLIENT)
        network.add_channel(client, hub_id, client_channel_size, hub_channel_size)
    return network


def multi_star_pcn(
    hub_count: int,
    clients_per_hub: int,
    hub_channel_size: float = 2000.0,
    client_channel_size: float = 100.0,
    hub_mesh: bool = True,
) -> PCNetwork:
    """The multi-star topology of figure 2(b): clients spread over several PCHs.

    Args:
        hub_count: Number of smooth nodes.
        clients_per_hub: Clients directly connected to each smooth node.
        hub_channel_size: Per-direction funds of every hub-to-hub channel.
        client_channel_size: Per-direction funds of every client-to-hub channel.
        hub_mesh: Whether hubs form a full mesh (otherwise a ring).
    """
    if hub_count < 1:
        raise ValueError("need at least one hub")
    if clients_per_hub < 1:
        raise ValueError("need at least one client per hub")
    network = PCNetwork()
    hubs = [f"hub-{i}" for i in range(hub_count)]
    for hub in hubs:
        network.add_node(hub, role=ROLE_HUB)
    if hub_count > 1:
        if hub_mesh:
            pairs = [(hubs[i], hubs[j]) for i in range(hub_count) for j in range(i + 1, hub_count)]
        else:
            pairs = [(hubs[i], hubs[(i + 1) % hub_count]) for i in range(hub_count)]
        for hub_a, hub_b in pairs:
            network.add_channel(hub_a, hub_b, hub_channel_size, hub_channel_size)
    for hub_index, hub in enumerate(hubs):
        for client_index in range(clients_per_hub):
            client = f"client-{hub_index}-{client_index}"
            network.add_node(client, role=ROLE_CLIENT)
            network.add_channel(client, hub, client_channel_size, hub_channel_size)
    return network


def assign_roles_from_placement(network: PCNetwork, hubs: Iterable[NodeId]) -> None:
    """Mark the given nodes as hubs and demote all other candidates.

    Helper used after solving the placement problem to reflect the placement
    decision in the topology's node roles.
    """
    hub_set = set(hubs)
    for node in network.nodes():
        current = network.role(node)
        if node in hub_set:
            network.set_role(node, ROLE_HUB)
        elif current == ROLE_HUB:
            network.set_role(node, ROLE_CANDIDATE)
