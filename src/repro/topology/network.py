"""The payment channel network graph container.

:class:`PCNetwork` stores nodes (with a *role*: ``"client"``,
``"candidate"`` or ``"hub"``) and funded channels in plain insertion-ordered
dict-of-dicts adjacency -- the same structure networkx uses internally, so
neighbor iteration order (and therefore every path tie-break downstream) is
identical to the historical networkx-backed implementation.  The container
itself never touches networkx: a :class:`networkx.Graph` view of a network
is an export only the scalar oracle builds
(:func:`repro.reference.topology.nx_mirror`), and production code cannot
import that package -- so a 100k-node run structurally never pays for
networkx structures.

The path/distance helpers run on :mod:`repro.topology.csr`, which mirrors
the adjacency into CSR arrays (rebuilt lazily whenever ``topology_version``
moves) for array-backed path search that reproduces networkx's results,
tie-breaks included.  Only the widest-path level drain loads scipy, on its
first call; every other query -- the batched distance sweep of
:meth:`PCNetwork.hop_count_rows` and what rides on it included -- runs
without it.
"""

from __future__ import annotations

from array import array
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.topology.channel import BalanceStore, ChannelError, NodeId, PaymentChannel

if TYPE_CHECKING:  # imported lazily to keep module import light
    from repro.topology.csr import GraphArrays

ROLE_CLIENT = "client"
ROLE_CANDIDATE = "candidate"
ROLE_HUB = "hub"
_VALID_ROLES = (ROLE_CLIENT, ROLE_CANDIDATE, ROLE_HUB)


def reachable(adjacency: Mapping[NodeId, Iterable[NodeId]], start: NodeId) -> Set[NodeId]:
    """The nodes joined to ``start`` in a node -> neighbors adjacency."""
    seen = {start}
    stack = [start]
    while stack:
        for neighbor in adjacency[stack.pop()]:
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return seen


class NetworkSnapshot:
    """Every channel's spendable balances and fees at one instant, as arrays.

    Laid out like the :class:`~repro.topology.channel.BalanceStore` it was
    copied from: entries ``2 * i`` and ``2 * i + 1`` of ``endpoints`` /
    ``balances`` / ``fees`` are channel ``i``'s ``(node_a, node_b)``, its two
    side balances and its ``(base_fee, fee_rate)``.  Two snapshots are equal
    when they describe the same channels with the same numbers, whatever the
    slot order.

    Attributes:
        topology_version: The network's ``topology_version`` at capture;
            while the network is still at it, its store has this very
            layout and :meth:`PCNetwork.restore` is one slice assignment.
    """

    __slots__ = ("endpoints", "balances", "fees", "topology_version", "_store")

    def __init__(self, network: "PCNetwork") -> None:
        store = network.balance_store
        self.endpoints: List[NodeId] = []
        self.fees = array("d")
        for channel in store.channels:
            self.endpoints += channel.endpoints
            self.fees.extend((channel.base_fee, channel.fee_rate))
        self.balances = array("d", store.values)
        self.topology_version = network.topology_version
        self._store = store

    def __len__(self) -> int:
        return len(self.endpoints) // 2

    def pairs(self) -> Iterator[Tuple[NodeId, NodeId]]:
        """The ``(node_a, node_b)`` endpoint pair of each channel, in slot order."""
        endpoints = iter(self.endpoints)
        return zip(endpoints, endpoints)

    def as_dict(self) -> Dict[Tuple[NodeId, NodeId], Tuple[float, float, float, float]]:
        """``(node_a, node_b) -> (balance_a, balance_b, base_fee, fee_rate)``."""
        numbers = zip(self.balances[0::2], self.balances[1::2], self.fees[0::2], self.fees[1::2])
        return dict(zip(self.pairs(), numbers))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NetworkSnapshot):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    __hash__ = None


class PCNetwork:
    """A payment channel network: nodes, roles and funded channels.

    The container is deliberately independent of any routing scheme; routing
    and placement code read liquidity and topology through this API and only
    mutate state through channel operations.
    """

    def __init__(self) -> None:
        #: Node -> attribute dict (``role`` plus free-form attrs), insertion order.
        self._node_attrs: Dict[NodeId, Dict[str, object]] = {}
        #: Node -> (neighbor -> channel), both layers insertion-ordered --
        #: exactly the dict-of-dicts shape networkx keeps, so adjacency
        #: iteration order matches the historical nx-backed container.
        self._adj: Dict[NodeId, Dict[NodeId, PaymentChannel]] = {}
        #: Every channel's spendable balances in one flat buffer (the
        #: channels are views onto it), plus the channels in slot order.
        self.balance_store = BalanceStore()
        #: Bumped on every channel addition/removal.  Fast-path layers (path
        #: catalogs, the CSR mirror) key their caches on this counter so
        #: topology dynamics invalidate them without explicit wiring.
        self.topology_version = 0
        self._graph_arrays: Optional["GraphArrays"] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_node(self, node: NodeId, role: str = ROLE_CLIENT, **attrs: object) -> None:
        """Add a node with a role (client, candidate or hub)."""
        if role not in _VALID_ROLES:
            raise ValueError(f"unknown role {role!r}; expected one of {_VALID_ROLES}")
        existing = self._node_attrs.get(node)
        if existing is None:
            self._node_attrs[node] = {"role": role, **attrs}
            self._adj[node] = {}
        else:  # networkx semantics: re-adding updates attributes in place
            existing["role"] = role
            existing.update(attrs)

    def add_channel(
        self,
        node_a: NodeId,
        node_b: NodeId,
        balance_a: float,
        balance_b: Optional[float] = None,
        base_fee: float = 0.0,
        fee_rate: float = 0.0,
    ) -> PaymentChannel:
        """Open a channel between two existing nodes and return it.

        Args:
            node_a: First endpoint (must already be in the network).
            node_b: Second endpoint (must already be in the network).
            balance_a: Funds deposited on ``node_a``'s side.
            balance_b: Funds deposited on ``node_b``'s side; defaults to
                ``balance_a`` (symmetric funding, as in the paper's setup).
            base_fee: Flat forwarding fee.
            fee_rate: Proportional forwarding fee.
        """
        for node in (node_a, node_b):
            if node not in self._node_attrs:
                raise KeyError(f"node {node!r} is not part of the network")
        if node_b in self._adj[node_a]:
            raise ValueError(f"channel {node_a!r}-{node_b!r} already exists")
        if balance_b is None:
            balance_b = balance_a
        channel = PaymentChannel(node_a, node_b, balance_a, balance_b, base_fee, fee_rate)
        self.balance_store.adopt(channel)
        self._adj[node_a][node_b] = channel
        self._adj[node_b][node_a] = channel
        self.topology_version += 1
        return channel

    def remove_channel(self, node_a: NodeId, node_b: NodeId) -> Dict[NodeId, float]:
        """Close and remove the channel between two nodes, returning the settlement."""
        channel = self.channel(node_a, node_b)
        settlement = channel.close()
        self.balance_store.release(channel)
        del self._adj[node_a][node_b]
        del self._adj[node_b][node_a]
        self.topology_version += 1
        return settlement

    def set_role(self, node: NodeId, role: str) -> None:
        """Change a node's role (e.g. promote a candidate to a hub)."""
        if role not in _VALID_ROLES:
            raise ValueError(f"unknown role {role!r}; expected one of {_VALID_ROLES}")
        if node not in self._node_attrs:
            raise KeyError(f"node {node!r} is not part of the network")
        self._node_attrs[node]["role"] = role

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def adj(self) -> Mapping[NodeId, Mapping[NodeId, PaymentChannel]]:
        """Read-only view of the adjacency: node -> (neighbor -> channel).

        Iteration order is node/channel insertion order (the same order the
        historical networkx container exposed); callers must not mutate the
        returned mappings.
        """
        return self._adj

    def nodes(self, role: Optional[str] = None) -> List[NodeId]:
        """All nodes, optionally filtered by role."""
        if role is None:
            return list(self._node_attrs)
        return [n for n, data in self._node_attrs.items() if data.get("role") == role]

    def clients(self) -> List[NodeId]:
        """Nodes with the client role."""
        return self.nodes(ROLE_CLIENT)

    def candidates(self) -> List[NodeId]:
        """Nodes eligible to be placed as smooth nodes (candidates and hubs)."""
        return [
            n
            for n, data in self._node_attrs.items()
            if data.get("role") in (ROLE_CANDIDATE, ROLE_HUB)
        ]

    def hubs(self) -> List[NodeId]:
        """Nodes currently acting as smooth nodes (PCHs)."""
        return self.nodes(ROLE_HUB)

    def role(self, node: NodeId) -> str:
        """The role of ``node``."""
        return self._node_attrs[node]["role"]

    def node_attrs(self, node: NodeId) -> Dict[str, object]:
        """The attribute dict of ``node`` (role plus free-form attrs)."""
        return self._node_attrs[node]

    def has_node(self, node: NodeId) -> bool:
        """Whether the node exists."""
        return node in self._node_attrs

    def has_channel(self, node_a: NodeId, node_b: NodeId) -> bool:
        """Whether a channel exists between two nodes."""
        neighbors = self._adj.get(node_a)
        return neighbors is not None and node_b in neighbors

    def channel(self, node_a: NodeId, node_b: NodeId) -> PaymentChannel:
        """The channel object between two adjacent nodes."""
        try:
            return self._adj[node_a][node_b]
        except KeyError:
            raise KeyError(f"no channel between {node_a!r} and {node_b!r}") from None

    def channels(self) -> Iterator[PaymentChannel]:
        """Iterate over every channel, in networkx ``edges()`` enumeration order."""
        seen: set = set()
        for node, neighbors in self._adj.items():
            for neighbor, channel in neighbors.items():
                if neighbor not in seen:
                    yield channel
            seen.add(node)

    def neighbors(self, node: NodeId) -> List[NodeId]:
        """Direct channel partners of ``node``."""
        return list(self._adj[node])

    def degree(self, node: NodeId) -> int:
        """Number of channels attached to ``node``."""
        return len(self._adj[node])

    def node_count(self) -> int:
        """Number of nodes in the network."""
        return len(self._node_attrs)

    def channel_count(self) -> int:
        """Number of channels in the network."""
        return len(self.balance_store.channels)

    def is_connected(self) -> bool:
        """Whether the channel graph is a single connected component."""
        total = len(self._node_attrs)
        if total == 0:
            return True
        return len(reachable(self._adj, next(iter(self._adj)))) == total

    def total_funds(self) -> float:
        """Total collateral committed to all channels."""
        return sum(channel.capacity for channel in self.channels())

    def available(self, sender: NodeId, receiver: NodeId) -> float:
        """Spendable funds in the ``sender -> receiver`` direction of their channel."""
        return self.channel(sender, receiver).balance(sender)

    # ------------------------------------------------------------------ #
    # path / distance helpers
    # ------------------------------------------------------------------ #
    def graph_arrays(self) -> "GraphArrays":
        """The CSR mirror of the current topology version.

        Rebuilt lazily whenever ``topology_version`` moves, following the
        repo-wide invalidation convention; balance freshness is the mirror's
        own concern (see :meth:`GraphArrays.refresh_balances`).
        """
        from repro.topology.csr import GraphArrays

        cached = self._graph_arrays
        if cached is None or cached.version != self.topology_version:
            cached = GraphArrays(self)
            self._graph_arrays = cached
        return cached

    def topology_fingerprint(self) -> str:
        """Stable hash of the node order and per-node adjacency order."""
        from repro.topology.csr import topology_fingerprint

        return topology_fingerprint(self)

    def hop_count(self, source: NodeId, target: NodeId) -> int:
        """Number of hops on the shortest path from ``source`` to ``target``.

        Raises :class:`repro.topology.NoPath` if the nodes are disconnected
        (:class:`repro.topology.NodeNotFound` if either is unknown).
        """
        if source == target:
            return 0
        return self.graph_arrays().hop_count(source, target)

    def hop_counts_from(self, source: NodeId) -> Dict[NodeId, int]:
        """Hop count from ``source`` to every reachable node."""
        return self.graph_arrays().hop_counts_from(source)

    def all_pairs_hop_counts(self) -> Dict[NodeId, Dict[NodeId, int]]:
        """Hop-count matrix for the whole network (one batched BFS sweep)."""
        from repro.topology.path_store import hop_dicts_from_rows

        node_order, matrix = self.hop_count_rows(self.nodes())
        return hop_dicts_from_rows(node_order, node_order, matrix)

    def hop_count_rows(self, sources: Sequence[NodeId]):
        """Batched hop counts: ``(node order, distances array)`` for ``sources``.

        Bit-parallel numpy BFS sweeps, 64 sources to a ``uint64`` word
        (:meth:`repro.topology.csr.AdjacencyCSR.distances_from`); row ``i``
        holds the hop counts from ``sources[i]`` to every node in the
        returned node order, ``inf`` where unreachable.  Runs on a throwaway
        bare adjacency CSR, never on the routing mirror of
        :meth:`graph_arrays`.
        """
        from repro.topology.csr import AdjacencyCSR

        graph = AdjacencyCSR(self)
        return graph.node_ids, graph.distances_from(graph.rows_of(sources))

    def shortest_path(self, source: NodeId, target: NodeId) -> List[NodeId]:
        """One shortest (fewest-hops) path between two nodes (``NoPath`` if none)."""
        return self.graph_arrays().shortest_path(source, target)

    def shortest_paths(self, source: NodeId, target: NodeId, k: int) -> List[List[NodeId]]:
        """Up to ``k`` loop-free shortest paths by hop count (``NoPath`` if none)."""
        return self.graph_arrays().k_shortest_paths(source, target, k)

    # ------------------------------------------------------------------ #
    # snapshot / restore
    # ------------------------------------------------------------------ #
    def snapshot(self) -> NetworkSnapshot:
        """Capture every channel's balances so the topology can be replayed."""
        if self.balance_store.open_locks:
            raise ChannelError("cannot snapshot a network with in-flight locks")
        return NetworkSnapshot(self)

    def restore(self, snapshot: NetworkSnapshot) -> None:
        """Restore the channel balances captured by :meth:`snapshot`.

        One slice assignment while the network is at the snapshot's
        ``topology_version`` (no channel was added or removed since, so the
        store still has the snapshot's layout); a per-pair walk otherwise.
        Refused with ``ChannelError`` while locks are in flight, and with
        ``ValueError`` -- before anything is written -- when the snapshot
        holds a negative or non-finite balance or its endpoint pairs are not
        exactly this network's channels.
        """
        store = self.balance_store
        if store.open_locks:
            raise ChannelError("cannot restore a network with in-flight locks")
        balances = snapshot.balances
        if snapshot._store is not store or snapshot.topology_version != self.topology_version:
            balances = self._in_store_order(snapshot)
        store.overwrite(balances)

    def _in_store_order(self, snapshot: NetworkSnapshot) -> "array[float]":
        """A snapshot's balances permuted to this network's current slots."""
        mismatch = ValueError("snapshot endpoint pairs do not match the network's channels")
        if len(snapshot) != self.channel_count():
            raise mismatch
        balances = array("d", bytes(8 * len(snapshot.balances)))
        for position, (node_a, node_b) in enumerate(snapshot.pairs()):
            channel = self._adj.get(node_a, {}).get(node_b)
            if channel is None:
                raise mismatch
            index, swapped = channel.store_index, channel.node_a != node_a
            balances[index + swapped] = snapshot.balances[2 * position]
            balances[index + 1 - swapped] = snapshot.balances[2 * position + 1]
        return balances

    def release_all_locks(self) -> int:
        """Release every outstanding lock in the network (aborting in-flight payments).

        Used by the experiment harness before restoring a snapshot so that a
        scheme that still had units in flight does not poison the next run.
        Returns the number of locks released.
        """
        released = self.balance_store.open_locks
        if released:
            for channel in self.balance_store.channels:
                for lock in channel.locks():
                    channel.release(lock.lock_id)
        return released

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PCNetwork(nodes={self.node_count()}, channels={self.channel_count()}, "
            f"hubs={len(self.hubs())})"
        )
