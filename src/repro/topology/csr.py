"""Array-backed graph kernels: the topology layer's path and distance queries.

The topology queries behind every path selector -- BFS hop counts,
(bidirectional) shortest paths, Yen's k-shortest enumeration and the
widest-path Dijkstra -- are networkx walks over dict-of-dicts structures in
the scalar reference (:mod:`repro.reference.topology`).  At paper scale
such walks would dominate the setup phase of the comparison pipelines: each
worker process derives a per-pair path catalog before routing a single
payment.  This module mirrors the channel graph into dense CSR structures
once per ``topology_version`` and implements the queries on top:

* :class:`AdjacencyCSR` -- the one flattening of the adjacency and the
  batched hop probe over it; the placement cost blocks use it bare,
* :class:`GraphArrays` -- that CSR plus per-node neighbor/slot
  lists in the exact networkx adjacency order (which is what makes
  tie-breaks reproducible), a per-directed-edge spendable-balance vector
  refreshed from the channel objects on demand (a list for element-wise
  reads plus an ndarray mirror for whole-vector filters, with one writer),
* batched distance queries -- ``hop_counts_from`` / ``all_pairs`` /
  multi-source probes run as single C-level ``scipy.sparse.csgraph``
  sweeps instead of per-source Python BFS,
* faithful ports of the exact algorithms networkx runs for the scalar
  reference: the bidirectional BFS of ``nx.shortest_path`` (with the
  ignore-node/ignore-edge filters of ``shortest_simple_paths``), Yen's
  algorithm with the same ``PathBuffer`` tie-breaking, and this repo's
  widest-path Dijkstra (``repro.reference.topology._widest_path``) with the
  same heap-counter ordering.  Path enumeration is order-sensitive (the next
  expansion depends on the previous tie-break), so these kernels run as
  tight loops over dense int rows, precomputed adjacency lists and the
  flat balance vector -- no per-hop channel-object or edge-dict lookups.
  The widest-path search additionally hands its one big *width level* (the
  giant component of "hops at least this wide", where the heap degenerates
  into a FIFO queue) to a single ``csgraph.breadth_first_order`` call that
  visits the same rows in the same order from the same predecessors.
* a per-process memo of the hop-count answers -- ``shortest_path``,
  ``k_shortest_paths`` and ``edge_disjoint_shortest_paths`` read no balance,
  so their answer is a function of the adjacency order and the arguments
  alone.  It holds one topology, keyed by :attr:`GraphArrays.digest`; the
  shards of a sweep over one snapshot rebuild the same topology again and
  again, and each worker answers a repeated question once.  The widest-path
  search and the heuristic ranking read balances and are never memoised.
  The same memo keeps the atomic baselines' catalog rows (a pair's paths
  plus their store slots, :meth:`GraphArrays.catalog_rows`) per store
  layout, once a second catalog of the process asks for them;
  :func:`clear_path_memo` empties all of it.

Every port reproduces the scalar tie-breaks *by construction* (same
neighbor iteration order, same heap keys, same first-meet detection), so
path lists are identical to the reference's -- enforced by
``tests/topology/test_csr_equivalence.py``.

scipy is imported by the three kernels that call it and nowhere else: the
batched distance sweep (:meth:`AdjacencyCSR.distances_from`, whose
unit-weight matrix is built on its first call) and the widest-path level
drain (:meth:`GraphArrays._drain_level` and its buffers).  The hop-count
BFS, Yen, the edge-disjoint kernels and the catalog rows run on numpy and
Python lists alone, so a run that never sweeps distances or drains a level
never maps scipy (``tests/test_package.py`` runs the atomic baselines with
it blocked).
"""

from __future__ import annotations

import hashlib
import itertools
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

NodeId = Hashable


class NoPath(Exception):
    """No path joins the two nodes (what ``networkx.NetworkXNoPath`` is to the oracle).

    Also control flow: Yen's spur loop raises and catches one per dead-end
    spur, so it stays a plain local class.
    """


class NodeNotFound(Exception):
    """A queried node is not in the graph (``networkx.NodeNotFound`` in the oracle)."""


#: "No predecessor" sentinel of the dense predecessor lists.
_ROOT = -1

#: "Not reached" in the predecessor array of ``csgraph.breadth_first_order``.
_BFS_UNREACHED = -9999

#: The widest-path search finishes a width level in one C-level BFS instead
#: of one heap pop per row once the level has popped more than this many rows
#: (a level that large is almost always the giant component of "hops at least
#: this wide") ...
_DRAIN_LEVEL_POPS = 64
#: ... while at least this many rows are still unvisited.  A drain costs a
#: fixed ~0.3 ms of whole-graph array passes whatever it discovers -- what
#: the heap loop spends on a few hundred rows.  Both constants sit on the
#: flat part of the measured break-even (``python -m repro perf``,
#: ``path-generation/*``; see ``docs/architecture.md``).
_DRAIN_MIN_UNVISITED = 256

#: The hop-count path answers of one topology, shared by every mirror of it
#: in this process: ``{digest: {query: answer}}`` with at most one digest
#: (a mirror with another digest drops the old one).  A query is
#: ``(kernel, source, target[, k])``; an answer is a tuple of node ids or a
#: tuple of such paths.  A query that raises is not kept.  The same dict
#: holds the catalog rows of :meth:`GraphArrays.catalog_rows` under
#: ``("rows", store layout, catalog query)`` keys.
_PATH_MEMO: Dict[bytes, Dict[tuple, object]] = {}


def clear_path_memo() -> None:
    """Empty the process's path memo: kernel answers, catalog rows and reuse records.

    A timing or test that counts kernel work across networks built from one
    topology starts here, or it measures dict hits.
    """
    _PATH_MEMO.clear()


#: Adjacency structure of the path kernels: per-node neighbor rows plus the
#: pre-joined ``(neighbor, slot)`` tuple lists, both in networkx adjacency
#: order (the unfiltered BFS iterates the former, filtered loops the latter).
Adjacency = Tuple[List[List[int]], List[List[Tuple[int, int]]]]


def topology_fingerprint(network) -> str:
    """A short stable hash of the channel graph's node and *adjacency* order.

    The order-identity check of the shared-memory and data-loader tests:
    two networks with the same fingerprint produce identical
    topology-dependent path catalogs (KSP, EDS, landmark legs), whatever
    process built them.  The hash covers the per-node neighbor order, not
    just the edge set, because path tie-breaks follow adjacency iteration
    order: closing and reopening a channel leaves the edge set intact but
    moves the edge to the back of both endpoints' adjacency, which can flip
    equal-length path choices.  Balances stay out of the hash.  The path
    memo keys on the same contract (:attr:`GraphArrays.digest`, hashed from
    the mirror's arrays instead of the adjacency dicts).
    """
    adj = network.adj
    parts = []
    for node in adj:
        parts.append(repr(node))
        parts.append("\x1f".join(repr(neighbor) for neighbor in adj[node]))
    material = "\x1e".join(parts)
    return hashlib.sha256(material.encode()).hexdigest()[:16]


class AdjacencyCSR:
    """The bare adjacency of one topology version: node rows plus CSR arrays.

    The one flattening of the adjacency, and all the batched hop probe needs
    (:meth:`PCNetwork.hop_count_rows`, the placement cost blocks): a
    throwaway of a few flat arrays, where the :class:`GraphArrays` routing
    mirror adds per-node Python lists, the slot map and the balance vector
    on top.  Row ``r`` is ``node_ids[r]``; its neighbor rows, in networkx
    adjacency order, are ``indices[indptr[r]:indptr[r + 1]]``, and a
    directed hop's *slot* is its position in ``indices``.
    """

    def __init__(self, network) -> None:
        adj = network.adj
        self.node_ids: List[NodeId] = list(adj)
        self.node_row: Dict[NodeId, int] = {
            node: row for row, node in enumerate(self.node_ids)
        }
        n = len(self.node_ids)
        self.indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum([len(adj[node]) for node in self.node_ids], out=self.indptr[1:])
        self.slot_count = int(self.indptr[-1])
        self.indices = np.fromiter(
            (self.node_row[neighbor] for node in self.node_ids for neighbor in adj[node]),
            dtype=np.intp,
            count=self.slot_count,
        )
        #: Unit-weight sparse matrix of :meth:`distances_from`, built on first use.
        self._unit_weights: Optional[sparse.csr_matrix] = None

    @property
    def node_count(self) -> int:
        """Number of node rows."""
        return len(self.node_ids)

    def row_of(self, node: NodeId) -> int:
        """Dense row of a node; raises :class:`NodeNotFound` for an unknown one.

        The selectors catch ``(NoPath, NodeNotFound)``, so an unknown node
        (a stale external pair list, a removed landmark) degrades to "no
        paths" exactly as it does on the scalar reference.
        """
        row = self.node_row.get(node)
        if row is None:
            raise NodeNotFound(f"node {node!r} is not in the graph")
        return row

    def rows_of(self, nodes: Sequence[NodeId]) -> np.ndarray:
        """Dense rows of a node sequence (:class:`NodeNotFound` on unknown nodes)."""
        return np.asarray([self.row_of(node) for node in nodes], dtype=np.intp)

    def to_nodes(self, rows: Sequence[int]) -> List[NodeId]:
        """Node ids of a row sequence."""
        node_ids = self.node_ids
        return [node_ids[row] for row in rows]

    def distances_from(self, rows: Sequence[int]) -> np.ndarray:
        """Hop-count rows from the given sources; ``inf`` marks unreachable.

        One C-level call whatever the source count -- this is the batched
        BFS the placement cost probe and ``all_pairs_hop_counts`` ride on.
        """
        rows = list(rows)
        n = self.node_count
        if n == 0:
            return np.zeros((len(rows), 0))
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra

        if self._unit_weights is None:
            self._unit_weights = csr_matrix(
                (np.ones(self.slot_count), self.indices, self.indptr), shape=(n, n)
            )
        result = dijkstra(self._unit_weights, directed=True, unweighted=True, indices=rows)
        return np.atleast_2d(result)


class GraphArrays(AdjacencyCSR):
    """Dense mirror of one topology version of a :class:`PCNetwork`.

    Built lazily by :meth:`PCNetwork.graph_arrays` and discarded whenever
    ``topology_version`` moves (the PR-3 invalidation convention), so the
    adjacency structure is always current.  Directional spendable balances
    are *not* topology-keyed: :meth:`refresh_balances` re-reads every
    channel and is called by any query that prices liquidity (the
    widest-path and heuristic selectors do so on entry, mirroring the
    scalar code's live reads).
    """

    def __init__(self, network) -> None:
        super().__init__(network)
        self.network = network
        self.version = network.topology_version
        n = self.node_count

        #: Per-node neighbor rows, networkx adjacency order.  A directed hop's
        #: *slot* is its position in the flattened adjacency -- the shared key
        #: of the balance vector, the exclusion masks of the disjoint-path
        #: selectors and the path resolution maps.  ``pairs`` pre-joins
        #: neighbor and slot (one ``(neighbor, slot)`` tuple list per node)
        #: for the hot loops.
        flat, bounds = self.indices.tolist(), self.indptr.tolist()
        self.adjacency: List[List[int]] = [flat[bounds[row] : bounds[row + 1]] for row in range(n)]
        self.pairs: List[List[Tuple[int, int]]] = [
            list(zip(neighbors, range(bounds[row], bounds[row + 1])))
            for row, neighbors in enumerate(self.adjacency)
        ]
        self.slot_of: Dict[Tuple[int, int], int] = {
            (row, neighbor): slot
            for row, pairs in enumerate(self.pairs)
            for neighbor, slot in pairs
        }

        #: Spendable balance of the directed hop at each slot, refreshed from
        #: the channel objects by :meth:`refresh_balances`.  Two
        #: representations of one vector: a flat Python list (the heap loop
        #: of the widest-path kernel reads it element-wise millions of times,
        #: where unboxed-float list access beats ndarray item access) and an
        #: ndarray mirror (the level drain of the same kernel filters whole
        #: hop sets against a width).  :meth:`_write_balances` is the only
        #: writer of either.
        self.balance: List[float] = [0.0] * self.slot_count
        self.balance_array = np.zeros(self.slot_count)
        self._balance_version = -1
        #: Where each slot's balance sits in the network's balance store:
        #: the whole vector is ``store[_balance_gather]``.
        gather = [0] * self.slot_count
        for position, channel in enumerate(network.balance_store.channels):
            row_a, row_b = self.node_row[channel.node_a], self.node_row[channel.node_b]
            gather[self.slot_of[(row_a, row_b)]] = 2 * position
            gather[self.slot_of[(row_b, row_a)]] = 2 * position + 1
        self._balance_gather = np.asarray(gather, dtype=np.intp)

        # The oracle's EDS working graph (``nx.Graph(mirror.edges())``) orders
        # each node's neighbors by edge-*insertion* order of the rebuilt
        # graph, which differs from the primary adjacency; built on demand.
        self._working: Optional[Tuple[Adjacency, Dict[Tuple[int, int], int]]] = None

        #: Buffers of the widest-path level drain (see :meth:`_level_buffers`).
        self._level: Optional[Tuple[sparse.csr_matrix, np.ndarray, np.ndarray]] = None
        self._digest: Optional[bytes] = None
        self._store_layout: Optional[bytes] = None

        # Stamped BFS scratch, reused across every bidirectional search on
        # this mirror: an entry is valid only when its stamp matches the
        # current search's, so no per-call clearing or allocation is needed.
        self._pred_val: List[int] = [0] * n
        self._pred_stamp: List[int] = [0] * n
        self._succ_val: List[int] = [0] * n
        self._succ_stamp: List[int] = [0] * n
        self._bfs_stamp = 0
        #: Stands in for an absent edge filter when only a node filter is
        #: given, so the filtered loops never test for ``None`` per edge.
        self._zero_edge_mask = bytearray(max(self.slot_count, 1))

    # ------------------------------------------------------------------ #
    # synchronization
    # ------------------------------------------------------------------ #
    def refresh_balances(self) -> None:
        """Re-read every directed hop's spendable balance: one gather.

        Gated on the network's :attr:`BalanceStore.version`: when no channel
        of *this* network mutated a balance since the last refresh, the O(E)
        re-read is skipped -- which is what lets back-to-back selector calls
        on a quiescent network amortize one synchronization.
        """
        store = self.network.balance_store
        if store.version == self._balance_version:
            return
        self._write_balances(None, store.as_array()[self._balance_gather])
        self._balance_version = store.version

    def _write_balances(
        self, slots: Optional[Sequence[int]], values: Sequence[float]
    ) -> None:
        """The only writer of the balance vector: list and mirror move together.

        ``slots=None`` replaces the whole vector (``values``: a float64
        array in slot order), otherwise ``values[i]`` goes to ``slots[i]``.
        """
        if slots is None:
            self.balance[:] = values.tolist()
            self.balance_array[:] = values
        else:
            balance = self.balance
            for slot, value in zip(slots, values):
                balance[slot] = value
            self.balance_array[slots] = values

    # ------------------------------------------------------------------ #
    # the path memo: hop-count answers and catalog rows
    # ------------------------------------------------------------------ #
    @property
    def digest(self) -> bytes:
        """Content key of the topology: node order, ``indptr`` and ``indices``.

        Two mirrors with one digest answer every hop-count path query alike
        (the :func:`topology_fingerprint` contract, hashed from the arrays
        this mirror already holds, which is ~10x cheaper).  Computed on the
        first memoised query.
        """
        if self._digest is None:
            digest = hashlib.blake2b(repr(self.node_ids).encode(), digest_size=16)
            digest.update(self.indptr.tobytes())
            digest.update(self.indices.tobytes())
            self._digest = digest.digest()
        return self._digest

    @property
    def store_layout(self) -> bytes:
        """Content key of where each directed hop sits in the balance store.

        A hash of ``_balance_gather``.  The digest alone does not fix a hop's
        store slot -- slots follow channel insertion order, so ``a-b, c-d``
        and ``c-d, a-b`` share a digest but not a layout -- while digest and
        layout together do.
        """
        if self._store_layout is None:
            layout = hashlib.blake2b(self._balance_gather.tobytes(), digest_size=16)
            self._store_layout = layout.digest()
        return self._store_layout

    def _topology_memo(self) -> Dict[tuple, object]:
        """This topology's dict in the process's path memo."""
        memo = _PATH_MEMO.get(self.digest)
        if memo is None:
            # Dropped first: one topology per process.
            _PATH_MEMO.clear()
            memo = _PATH_MEMO[self.digest] = {}
        return memo

    def _memoised(self, query: tuple, compute: Callable[[], object]) -> object:
        """The answer to ``query`` from the process's path memo, or ``compute()``'s.

        Answers are immutable tuples; the public kernels hand out fresh lists
        built from them.  A ``NoPath`` / ``NodeNotFound`` propagates and is
        recomputed on a repeat.
        """
        memo = self._topology_memo()
        answer = memo.get(query)
        if answer is None:
            answer = memo[query] = compute()
        return answer

    def catalog_rows(self, query: tuple) -> Optional[Dict[tuple, tuple]]:
        """The shared ``{pair: (paths, slots)}`` rows of ``query`` on this layout.

        ``query`` names what a catalog computes per pair (e.g. ``("ksp",
        1)``), so a pair's filtered paths and their store slots are a
        function of digest, layout, query and pair.  The first call for a
        (layout, query) only records it and returns ``None``: rows are kept
        only once a second caller -- the next catalog of the same scheme on
        this topology -- asks again, and every later call returns that one
        dict.  A run that resolves each query once keeps no rows.
        """
        memo = self._topology_memo()
        key = ("rows", self.store_layout, query)
        if key not in memo:
            memo[key] = None
            return None
        rows = memo[key]
        if rows is None:
            rows = memo[key] = {}
        return rows

    # ------------------------------------------------------------------ #
    # distance queries
    # ------------------------------------------------------------------ #
    def hop_count(self, source: NodeId, target: NodeId) -> int:
        """Hops on a shortest path; raises :class:`NoPath` when disconnected."""
        rows = self._bidirectional_path_rows(self.row_of(source), self.row_of(target))
        return len(rows) - 1

    def hop_counts_from(self, source: NodeId) -> Dict[NodeId, int]:
        """Hop count to every reachable node (same mapping as the scalar BFS)."""
        distances = self.distances_from([self.row_of(source)])[0]
        reachable = np.nonzero(np.isfinite(distances))[0]
        node_ids = self.node_ids
        return {node_ids[row]: int(distances[row]) for row in reachable}

    # ------------------------------------------------------------------ #
    # bidirectional BFS (port of networkx's `_bidirectional_pred_succ`)
    # ------------------------------------------------------------------ #
    def _bidirectional_path_rows(
        self,
        source: int,
        target: int,
        ignore_nodes: Optional[bytearray] = None,
        ignore_edges: Optional[bytearray] = None,
        adjacency: Optional[Adjacency] = None,
    ) -> List[int]:
        """One shortest path as a row list (the ``nx.shortest_path`` port).

        A line-for-line port of networkx's ``_bidirectional_pred_succ`` over
        dense rows: the same fringe alternation rule, the same adjacency
        iteration order, the same first-meet return -- which is what pins
        every downstream tie-break.  Predecessor/successor state lives in
        stamped scratch lists reused across calls (no per-call allocation,
        no hashing), and the node/edge filters of the Yen spur searches are
        flat bytearray masks indexed by row and directed-edge slot.
        Raises :class:`NoPath` when the pair is disconnected.
        """
        if source == target:
            return [source]
        if ignore_nodes is not None and (ignore_nodes[source] or ignore_nodes[target]):
            raise NoPath(f"No path between row {source} and row {target}.")
        adj, pair_lists = adjacency if adjacency is not None else (self.adjacency, self.pairs)
        if ignore_nodes is not None and ignore_edges is None:
            ignore_edges = self._zero_edge_mask
        pred_val, pred_stamp = self._pred_val, self._pred_stamp
        succ_val, succ_stamp = self._succ_val, self._succ_stamp
        self._bfs_stamp += 1
        stamp = self._bfs_stamp
        pred_val[source] = _ROOT
        pred_stamp[source] = stamp
        succ_val[target] = _ROOT
        succ_stamp[target] = stamp
        forward = [source]
        reverse = [target]
        meet = -1
        while forward and reverse and meet < 0:
            if len(forward) <= len(reverse):
                this_level, forward = forward, []
                fringe, mine_val, mine_stamp, other_stamp = (
                    forward, pred_val, pred_stamp, succ_stamp,
                )
            else:
                this_level, reverse = reverse, []
                fringe, mine_val, mine_stamp, other_stamp = (
                    reverse, succ_val, succ_stamp, pred_stamp,
                )
            if ignore_edges is None:
                for v in this_level:
                    for w in adj[v]:
                        if mine_stamp[w] != stamp:
                            fringe.append(w)
                            mine_stamp[w] = stamp
                            mine_val[w] = v
                        if other_stamp[w] == stamp:
                            meet = w
                            break
                    if meet >= 0:
                        break
            elif ignore_nodes is None:
                for v in this_level:
                    for w, slot in pair_lists[v]:
                        if ignore_edges[slot]:
                            continue
                        if mine_stamp[w] != stamp:
                            fringe.append(w)
                            mine_stamp[w] = stamp
                            mine_val[w] = v
                        if other_stamp[w] == stamp:
                            meet = w
                            break
                    if meet >= 0:
                        break
            else:
                for v in this_level:
                    for w, slot in pair_lists[v]:
                        if ignore_edges[slot] or ignore_nodes[w]:
                            continue
                        if mine_stamp[w] != stamp:
                            fringe.append(w)
                            mine_stamp[w] = stamp
                            mine_val[w] = v
                        if other_stamp[w] == stamp:
                            meet = w
                            break
                    if meet >= 0:
                        break
        if meet < 0:
            raise NoPath(f"No path between row {source} and row {target}.")
        path: List[int] = []
        row = meet
        while row != _ROOT:
            path.append(row)
            row = pred_val[row]
        path.reverse()
        row = succ_val[meet]
        while row != _ROOT:
            path.append(row)
            row = succ_val[row]
        return path

    def shortest_path(self, source: NodeId, target: NodeId) -> List[NodeId]:
        """One shortest path between two nodes (identical to the scalar's); memoised."""
        return list(
            self._memoised(
                ("shortest", source, target),
                lambda: tuple(
                    self.to_nodes(
                        self._bidirectional_path_rows(self.row_of(source), self.row_of(target))
                    )
                ),
            )
        )

    # ------------------------------------------------------------------ #
    # Yen's algorithm (port of networkx's `shortest_simple_paths`)
    # ------------------------------------------------------------------ #
    def k_shortest_paths(self, source: NodeId, target: NodeId, k: int) -> List[List[NodeId]]:
        """Up to ``k`` loop-free shortest paths, in networkx's exact order; memoised.

        Raises :class:`NoPath` when the pair is disconnected (like the
        first pull on the scalar generator).
        """
        if k <= 0:
            return []
        paths = self._memoised(
            ("ksp", source, target, k),
            lambda: tuple(
                tuple(self.to_nodes(rows)) for rows in self._k_shortest_rows(source, target, k)
            ),
        )
        return [list(path) for path in paths]

    def _k_shortest_rows(self, source: NodeId, target: NodeId, k: int) -> List[List[int]]:
        """Yen's enumeration over rows.

        The ``PathBuffer`` tie-break -- a ``(cost, push counter)`` heap with
        whole-path deduplication -- is replicated verbatim.
        """
        source_row = self.row_of(source)
        target_row = self.row_of(target)
        slot_of = self.slot_of
        results: List[List[int]] = []
        list_a: List[List[int]] = []
        heap: List[Tuple[int, int, List[int]]] = []
        queued: Set[Tuple[int, ...]] = set()
        counter = itertools.count()
        prev_path: Optional[List[int]] = None

        def push(cost: int, path: List[int]) -> None:
            key = tuple(path)
            if key not in queued:
                heappush(heap, (cost, next(counter), path))
                queued.add(key)

        while True:
            if not prev_path:
                path = self._bidirectional_path_rows(source_row, target_row)
                push(len(path), path)
            else:
                ignore_nodes = bytearray(self.node_count)
                ignore_edges = bytearray(self.slot_count)
                # Paths sharing the current root are found by *incremental*
                # prefix filtering: ``listed[:i] == prev_path[:i]`` holds iff
                # it held at ``i - 1`` and the ``i - 1``-th nodes agree, so
                # each round narrows the previous round's matches instead of
                # re-comparing whole slices (all listed paths share
                # ``prev_path[0]``, the source).
                matching = list_a
                for i in range(1, len(prev_path)):
                    anchor = prev_path[i - 1]
                    matching = [
                        listed for listed in matching
                        if len(listed) > i and listed[i - 1] == anchor
                    ]
                    for listed in matching:
                        ignore_edges[slot_of[(listed[i - 1], listed[i])]] = 1
                        ignore_edges[slot_of[(listed[i], listed[i - 1])]] = 1
                    try:
                        spur = self._bidirectional_path_rows(
                            prev_path[i - 1], target_row, ignore_nodes, ignore_edges
                        )
                        push(i + len(spur), prev_path[: i - 1] + spur)
                    except NoPath:
                        pass
                    ignore_nodes[prev_path[i - 1]] = 1
            if heap:
                _, _, path = heappop(heap)
                queued.remove(tuple(path))
                results.append(path)
                list_a.append(path)
                prev_path = path
                if len(results) >= k:
                    break
            else:
                break
        return results

    # ------------------------------------------------------------------ #
    # widest paths (port of `repro.reference.topology._widest_path`)
    # ------------------------------------------------------------------ #
    def _widest_path_rows(self, source: int, target: int) -> Optional[List[int]]:
        """Maximum-bottleneck path over the balance vector, scalar tie-breaks.

        The heap keys ``(-width, counter)`` replicate the scalar
        implementation's push order (consecutive counters per improved
        neighbor, adjacency order), so equal-width ties pop in the same
        sequence; reading directional liquidity is one flat-list index
        instead of an edge-dict walk and a channel method call per hop.

        The search proceeds in *width levels*: all entries of one width pop
        before any narrower one, in push order, and every entry they push is
        no wider -- so inside a level the heap is a FIFO queue and the level
        is a breadth-first search over the hops at least that wide.  Small
        levels run through the heap; once a level has popped more than
        ``_DRAIN_LEVEL_POPS`` rows, :meth:`_drain_level` finishes it in one
        C-level BFS with the same visiting order and predecessors.

        Scalar checks that are provably redundant are elided or tightened,
        shrinking the inner loop to its relaxation core:

        * *excluded edges* -- the caller zeroes excluded slots in the
          balance vector instead (restoring them afterwards); a zero-width
          hop fails the strict improvement test exactly like the scalar's
          explicit exclusion/`available <= 0` skips,
        * *visited neighbors* -- non-stale pop widths are non-increasing,
          so a visited neighbor's settled width is always >= any later
          ``new_width`` and the improvement test fails on its own,
        * *the target's floor* -- an entry no wider than the target's best
          width so far would be pushed after the target's own entry of that
          width, so it cannot pop before the target does and end the search;
          it is never pushed.

        The search also *stops early*, on this lemma: let the target hold
        width ``f >= 0``.  A later relaxation from row ``x`` offers it
        ``min(width(x), balance[x->t]) <= balance[x->t]`` and the
        improvement test is strict, so once no **unvisited** in-neighbor
        ``x`` of the target has ``balance[x->t] > f``, ``previous[target]``
        is final (for ``f = 0``: the target stays unreached).  Its chain
        runs over visited rows, whose pointers never change, so the result
        is decided.  The condition can only become true when an in-neighbor
        of the target is visited, so it is tested after such a pop (a
        ``bytearray`` guard; at most ``degree(target)`` reads) and after a
        level drain, which visits rows in bulk.
        """
        pair_lists, balance = self.pairs, self.balance
        push, pop = heappush, heappop
        n = self.node_count
        # best_width / previous as dense lists: 0.0 doubles as the scalar
        # dict's missing-key default (assigned widths are strictly positive),
        # _ROOT as "no predecessor".
        best_width = [0.0] * n
        best_width[source] = float("inf")
        previous = [_ROOT] * n
        # Heap entries are (-width, counter): the counter is the scalar
        # reference's push counter (so equal-width ties pop in push order)
        # and doubles as the index into the push-order node list.
        pushed_node = [source]
        heap: List[Tuple[float, int]] = [(-float("inf"), 0)]
        visited = bytearray(n)
        # The hops *into* the target (the graph is symmetric: its neighbors
        # are its in-neighbors) for the early-exit test, and their guard.
        in_hops = [(x, self.slot_of[(x, target)]) for x in self.adjacency[target]]
        enters_target = bytearray(n)
        for x, _ in in_hops:
            enters_target[x] = 1
        level = 0.0  # negated width of the level being popped
        level_pops = 0
        drain_after = _DRAIN_LEVEL_POPS
        while heap:
            negative_width, counter = pop(heap)
            node = pushed_node[counter]
            if visited[node]:
                continue
            visited[node] = 1
            if node == target:
                break
            width = -negative_width
            for w, slot in pair_lists[node]:
                available = balance[slot]
                new_width = available if available < width else width
                if new_width > best_width[w] and new_width > best_width[target]:
                    best_width[w] = new_width
                    previous[w] = node
                    push(heap, (-new_width, len(pushed_node)))
                    pushed_node.append(w)
            if enters_target[node]:
                floor = best_width[target]
                for x, slot in in_hops:
                    if not visited[x] and balance[slot] > floor:
                        break
                else:
                    break  # previous[target] is final: the search is decided
            if negative_width != level:
                level, level_pops = negative_width, 0
            level_pops += 1
            if level_pops > drain_after:
                if n - visited.count(1) < _DRAIN_MIN_UNVISITED:
                    # Unvisited rows only get fewer: no later drain pays.
                    drain_after = n
                elif self._drain_level(
                    width, target, heap, pushed_node, visited, best_width, previous, in_hops
                ):
                    break
        if best_width[target] <= 0.0 or previous[target] == _ROOT and target != source:
            return None
        path = [target]
        while path[-1] != source:
            path.append(previous[path[-1]])
        path.reverse()
        return path

    def _drain_level(
        self,
        width: float,
        target: int,
        heap: List[Tuple[float, int]],
        pushed_node: List[int],
        visited: bytearray,
        best_width: List[float],
        previous: List[int],
        in_hops: List[Tuple[int, int]],
    ) -> bool:
        """Finish the width level the search is popping, in one C-level BFS.

        Replaces the remaining heap pops of the level (see
        :meth:`_widest_path_rows`) and leaves the search state as they would
        have, up to entries that can never pop un-stale: the level's rows
        visited at ``width`` with the predecessor that first reached them,
        and the heap holding, in the same relative order, the narrower
        entries those rows would have pushed.  Returns ``True`` when the
        search is decided (the target's predecessor chain is then final):
        the target is in the level, or -- the early-exit lemma of
        :meth:`_widest_path_rows`, over ``in_hops``, the ``(row, slot)`` hops
        into the target -- no row still unvisited after the drain can improve
        on what the target holds once the drained rows have relaxed it.

        The BFS runs from a virtual super-source whose out-hops are the
        level's pending entries in pop order, over the adjacency with every
        hop that is narrower than ``width`` or enters a visited row
        redirected to a dead-end sink; scipy walks the stored adjacency
        order, so rows are discovered in the order and from the row the heap
        loop would have popped and relaxed them.

        Entries the drained rows would have pushed for rows *inside* the
        level are stale by the time they pop, as are the level's own entries
        still on the heap; neither is touched.  A row left outside is reached
        from drained rows over narrower hops only, and of those relaxations
        just the widest -- the earliest among equals, in (rank of the drained
        row in BFS order, adjacency position) order -- can pop before the
        row is visited and names its predecessor; it is pushed, under the
        loop's own strict-improvement and floor tests.
        """
        from scipy.sparse.csgraph import breadth_first_order

        negative_width = -width
        pending = [
            pushed_node[counter]
            for _, counter in sorted(entry for entry in heap if entry[0] == negative_width)
            if not visited[pushed_node[counter]]
        ]
        if not pending:
            return False

        n, hop_count = self.node_count, self.slot_count
        super_source, sink = n, n + 1
        balance, indices = self.balance_array, self.indices
        visited_rows = np.frombuffer(visited, dtype=np.uint8)  # a writable view
        level_graph, sink_offset, slot_row = self._level_buffers()
        level_hops = level_graph.indices[:hop_count]
        wide = balance >= width
        wide &= visited_rows.take(indices) == 0
        np.multiply(wide, sink_offset, out=level_hops)
        level_hops += sink
        level_graph.indices[hop_count : hop_count + len(pending)] = pending
        level_graph.indptr[super_source + 1 :] = hop_count + len(pending)
        order, predecessor = breadth_first_order(
            level_graph, super_source, directed=True, return_predecessors=True
        )

        if predecessor[target] != _BFS_UNREACHED:
            best_width[target] = width
            row = target
            while predecessor[row] != super_source:
                via = int(predecessor[row])
                previous[row] = via
                row = via
            return True

        drained = order[1:]
        drained = drained[drained != sink]
        visited_rows[drained] = 1
        rank = np.full(n, -1, dtype=np.intp)
        rank[drained] = np.arange(len(drained))

        # The target's own relaxation from the drained rows -- the widest
        # hop, from the earliest drained row among equals, under the strict
        # test: what the push phase below would record for it -- against the
        # widest hop into it from a row the drain left unvisited.
        floor, via, via_rank, open_width = best_width[target], previous[target], -1, 0.0
        hop_width = self.balance
        for x, slot in in_hops:
            offered, x_rank = hop_width[slot], rank[x]
            if x_rank >= 0:
                if offered > floor or offered == floor and x_rank < via_rank:
                    floor, via, via_rank = offered, x, x_rank
            elif not visited[x] and offered > open_width:
                open_width = offered
        if open_width <= floor:
            best_width[target], previous[target] = floor, via
            # Drained rows on the chain take their BFS predecessor; the chain
            # leaves them at a pending row or at one visited before the
            # drain, and those pointers are set.
            row = via
            while row != _ROOT and predecessor[row] not in (_BFS_UNREACHED, super_source):
                previous[row] = int(predecessor[row])
                row = previous[row]
            return True

        for row, via in zip(drained.tolist(), predecessor[drained].tolist()):
            best_width[row] = width
            if via != super_source:
                previous[row] = via

        # Hops from drained rows into the rows left outside, above the floor.
        hop = np.flatnonzero(visited_rows.take(indices) == 0)
        sender_rank = rank[slot_row[hop]]
        keep = (sender_rank >= 0) & (balance[hop] > best_width[target])
        hop, sender_rank = hop[keep], sender_rank[keep]
        receiver, hop_width = indices[hop], balance[hop]
        relaxed_at = sender_rank * hop_count + hop
        # Per receiver the widest, earliest among equals; then relaxation order.
        widest = np.lexsort((relaxed_at, -hop_width, receiver))
        grouped = receiver[widest]
        first_of_receiver = np.ones(len(widest), dtype=bool)
        first_of_receiver[1:] = grouped[1:] != grouped[:-1]
        widest = widest[first_of_receiver]
        widest = widest[np.argsort(relaxed_at[widest])]
        for w, node, new_width in zip(
            receiver[widest].tolist(),
            slot_row[hop[widest]].tolist(),
            hop_width[widest].tolist(),
        ):
            if new_width > best_width[w] and new_width > best_width[target]:
                best_width[w] = new_width
                previous[w] = node
                heappush(heap, (-new_width, len(pushed_node)))
                pushed_node.append(w)
        return False

    def _level_buffers(self) -> Tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
        """Private buffers of :meth:`_drain_level`, built on first use.

        * the BFS graph: the mirror's rows, then the virtual super-source,
          then the sink; its ``indptr`` is the mirror's plus those two rows,
          its ``indices`` are rewritten by every drain (the mirror's own
          adjacency stays intact for every other query),
        * ``indices - sink``, so that ``keep * offset + sink`` redirects the
          hops a drain filters out without a branch,
        * the sending row of the hop at each slot (``indices`` holds the
          receiving row).
        """
        if self._level is None:
            from scipy.sparse import csr_matrix

            n, hop_count = self.node_count, self.slot_count
            capacity = hop_count + n  # every hop, plus at most n pending rows
            indptr = np.empty(n + 3, dtype=np.int32)
            indptr[: n + 1] = self.indptr
            indptr[n + 1 :] = capacity  # the constructor trims to indptr[-1]
            self._level = (
                csr_matrix(
                    (np.ones(capacity), np.zeros(capacity, dtype=np.int32), indptr),
                    shape=(n + 2, n + 2),
                ),
                (self.indices - (n + 1)).astype(np.int32),
                np.repeat(np.arange(n), np.diff(self.indptr)),
            )
        return self._level

    def edge_disjoint_widest_paths(
        self, source: NodeId, target: NodeId, k: int
    ) -> List[List[NodeId]]:
        """Up to ``k`` edge-disjoint widest paths (the EDW selector's kernel)."""
        self.refresh_balances()
        # Mirror the scalar reference's unknown-node shape: an unknown
        # source raises (graph.neighbors does), an unknown target is simply
        # never reached by the search.
        source_row = self.row_of(source)
        target_row = self.node_row.get(target)
        if target_row is None:
            return []
        slot_of = self.slot_of
        balance = self.balance
        # Edge-disjointness is enforced by zeroing used slots in the balance
        # vector (see _widest_path_rows); originals are restored on exit so
        # the shared vector stays authoritative for other queries.
        zeroed: List[int] = []
        originals: List[float] = []
        paths: List[List[NodeId]] = []
        try:
            for _ in range(k):
                rows = self._widest_path_rows(source_row, target_row)
                if rows is None or len(rows) < 2:
                    break
                paths.append(self.to_nodes(rows))
                used = [
                    slot
                    for a, b in zip(rows, rows[1:])
                    for slot in (slot_of[(a, b)], slot_of[(b, a)])
                ]
                zeroed += used
                originals += [balance[slot] for slot in used]
                self._write_balances(used, [0.0] * len(used))
        finally:
            self._write_balances(zeroed, originals)
        return paths

    # ------------------------------------------------------------------ #
    # edge-disjoint shortest paths (port of the EDS selector's working graph)
    # ------------------------------------------------------------------ #
    def _working_adjacency(self) -> Tuple[Adjacency, Dict[Tuple[int, int], int]]:
        """Adjacency of the oracle's ``nx.Graph(mirror.edges())``, in its order.

        The scalar EDS selector rebuilds the graph from the edge iterator,
        which re-orders each node's neighbors by edge-insertion order of the
        rebuilt graph; replicating that order is what keeps the BFS
        tie-breaks identical.  Nodes without channels are absent from the
        rebuilt graph -- callers treat them as unreachable.
        """
        if self._working is not None:
            return self._working
        n = self.node_count
        lists: List[List[int]] = [[] for _ in range(n)]
        emitted = [False] * n
        for row in range(n):
            for neighbor in self.adjacency[row]:
                if not emitted[neighbor]:
                    lists[row].append(neighbor)
                    lists[neighbor].append(row)
            emitted[row] = True
        pair_lists: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        slot_of: Dict[Tuple[int, int], int] = {}
        next_slot = 0
        for row, neighbors in enumerate(lists):
            for neighbor in neighbors:
                slot_of[(row, neighbor)] = next_slot
                pair_lists[row].append((neighbor, next_slot))
                next_slot += 1
        self._working = ((lists, pair_lists), slot_of)
        return self._working

    def edge_disjoint_shortest_paths(
        self, source: NodeId, target: NodeId, k: int
    ) -> List[List[NodeId]]:
        """Up to ``k`` edge-disjoint shortest paths (the EDS selector's kernel); memoised."""
        paths = self._memoised(
            ("eds", source, target, k),
            lambda: tuple(
                tuple(self.to_nodes(rows))
                for rows in self._edge_disjoint_shortest_rows(source, target, k)
            ),
        )
        return [list(path) for path in paths]

    def _edge_disjoint_shortest_rows(
        self, source: NodeId, target: NodeId, k: int
    ) -> List[List[int]]:
        """Successive shortest paths over the working graph, hops removed as used."""
        adjacency, slot_of = self._working_adjacency()
        source_row = self.node_row.get(source)
        target_row = self.node_row.get(target)
        # Unknown and channel-less nodes do not exist in the scalar working
        # graph (NodeNotFound there, caught into a loop exit either way).
        if source_row is None or target_row is None:
            return []
        if not adjacency[0][source_row] or not adjacency[0][target_row]:
            return []
        removed = bytearray(self.slot_count)
        paths: List[List[int]] = []
        for _ in range(k):
            try:
                rows = self._bidirectional_path_rows(
                    source_row, target_row, ignore_edges=removed, adjacency=adjacency
                )
            except NoPath:
                break
            if len(rows) < 2:
                break
            paths.append(rows)
            for a, b in zip(rows, rows[1:]):
                removed[slot_of[(a, b)]] = 1
                removed[slot_of[(b, a)]] = 1
        return paths
