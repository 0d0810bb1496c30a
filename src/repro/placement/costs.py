"""Cost model for the PCH placement problem.

The paper defines three edge-wise cost parameters, all probed from the
network during the previous long period:

* ``zeta[m][n]``   -- management cost of assigning client ``m`` to smooth
  node ``n`` (paper setting: ``0.02 * hops(m, n)``),
* ``delta[n][l]``  -- per-client synchronization cost between smooth nodes
  ``n`` and ``l`` (paper setting: ``0.01 * hops(n, l)``),
* ``epsilon[n][l]`` -- constant synchronization cost between smooth nodes
  (paper setting: ``0.05 * hops(n, l)``).

:class:`PlacementCostModel` holds them as dense :class:`CostArrays` (built
straight from the batched hop probe, never through per-cell dicts) and
exposes the balance cost ``C_B = C_M + omega * C_S`` of equations (3)-(5).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.topology.network import PCNetwork

NodeId = Hashable

#: Paper's coefficient for the management cost per hop (section V-A).
PAPER_ZETA_PER_HOP = 0.02
#: Paper's coefficient for the per-client synchronization cost per hop.
PAPER_DELTA_PER_HOP = 0.01
#: Paper's coefficient for the constant synchronization cost per hop.
PAPER_EPSILON_PER_HOP = 0.05

#: Bytes of float64 scratch one chunk of cost-block probe rows, one probe
#: gather of score rows, or one chunk of the probe's open clients may use:
#: at paper scale (Z, M, N) = (240, 2760, 3000) that is 43 probe rows or 47
#: score rows, and a hub set of more than 47 takes the bounded fold.
#: Measured at paper scale on a 2-core Xeon (4 MiB L2): one all-hub probe
#: takes 0.49-0.56 ms bounded, against 1.27-1.50 ms for the fold over
#: 47-row blocks it replaced (1.04-1.20 ms in a quieter sitting, 2.3 ms
#: unblocked); a 17- to 47-hub probe takes 0.15 ms as one gather and
#: 0.26-0.37 ms bounded.  ``cost_model_from_network`` takes 98-105 ms at any
#: budget from 0.5 to 4 MiB, while its traced peak grows from 1.5 to 1.7,
#: 1.9 and 2.4 (Z, M) blocks at 0.5, 1, 1.5 and 4 MiB.
_SCRATCH_BYTES = 1 << 20

#: ``B = R`` of the probe kernel's bounded fold: it folds the ``B`` hubs with
#: the smallest synchronization parts, then each client's ``R`` nearest
#: candidates (:attr:`CostArrays.nearest_candidates`), before it settles a
#: client.  Measured at paper scale on a 2-core Xeon, replaying the probes
#: of more than 47 hubs of one deterministic solve at omega 0.02, 0.05 and
#: 0.5, best of three sittings: 0.41 / 0.41 / 0.31 ms at (B, R) = (16, 16),
#: 0.38 / 0.45 / 0.32 at (8, 16), 0.42 / 0.43 / 0.37 at (8, 24), 0.44 /
#: 0.59 / 0.34 at (4, 8), 0.44 / 0.48 / 0.41 at (32, 16) and 0.46 / 0.54 /
#: 0.41 at (16, 24), against 0.81-0.88 ms for the all-rows fold.
BOUND_ROWS = 16


def scratch_rows(row_length: int) -> int:
    """How many float64 rows of ``row_length`` fit the scratch budget (at least one)."""
    return max(1, _SCRATCH_BYTES // (8 * max(row_length, 1)))


def sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float sum of ``values`` in row-major order.

    ``np.cumsum`` accumulates sequentially, so this is the nested-dict
    ``total += x`` loop of :mod:`repro.reference.placement` bit for bit
    (``ndarray.sum`` is pairwise and is not).
    """
    flat = np.ravel(values)
    return float(np.cumsum(flat)[-1]) if flat.size else 0.0


@dataclass(frozen=True)
class CostArrays:
    """The index-mapped dense cost matrices -- the cost model's representation.

    Clients and candidates are addressed by row index instead of node id.
    Indices follow the model's ordering, so ``argmin`` tie-breaks reproduce
    the scalar reference's first-in-candidate-order behaviour exactly.  The
    matrices are frozen (``writeable=False``): a cost model is immutable.

    Attributes:
        clients: Client ids in index order (row ``i`` of ``zeta``).
        candidates: Candidate ids in index order (column/row order of all
            three matrices).
        zeta: ``(M, Z)`` management-cost matrix.
        delta: ``(Z, Z)`` per-client synchronization-cost matrix.
        epsilon: ``(Z, Z)`` constant synchronization-cost matrix.
        client_index: ``client id -> zeta row``.
        candidate_index: ``candidate id -> matrix row/column``.
        zeta_t: C-contiguous ``(Z, M)`` transpose of ``zeta``: the probe
            kernel gathers one contiguous row per hub.  No copy when ``zeta``
            is already the transpose of such a block, as
            :func:`cost_model_from_network` builds it.
    """

    clients: Sequence[NodeId]
    candidates: Sequence[NodeId]
    zeta: np.ndarray
    delta: np.ndarray
    epsilon: np.ndarray
    client_index: Mapping[NodeId, int] = field(init=False, repr=False, compare=False)
    candidate_index: Mapping[NodeId, int] = field(init=False, repr=False, compare=False)
    zeta_t: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        shape = (len(self.clients), len(self.candidates))
        if not self.candidates:
            raise ValueError("the placement problem needs at least one candidate")
        shapes = (self.zeta.shape, self.delta.shape, self.epsilon.shape)
        if shapes != (shape, shape[1:] * 2, shape[1:] * 2):
            raise ValueError(f"cost matrices {shapes} do not fit {shape} clients x candidates")
        derive = object.__setattr__
        derive(self, "client_index", {client: i for i, client in enumerate(self.clients)})
        derive(self, "candidate_index", {cand: j for j, cand in enumerate(self.candidates)})
        derive(self, "zeta_t", np.ascontiguousarray(self.zeta.T))
        for matrix in (self.zeta, self.delta, self.epsilon, self.zeta_t):
            matrix.flags.writeable = False

    @property
    def client_count(self) -> int:
        """Number of clients (rows of ``zeta``)."""
        return int(self.zeta.shape[0])

    @property
    def candidate_count(self) -> int:
        """Number of candidates (rows of ``delta``/``epsilon``)."""
        return int(self.delta.shape[0])

    def candidate_rows(self, hubs: Iterable[NodeId]) -> np.ndarray:
        """Matrix rows of ``hubs``, sorted into candidate order.

        Candidate order is the scalar reference's iteration order everywhere
        (assignment tie-breaks, synchronization-part accumulation), so every
        vectorized kernel consumes hub index arrays produced here.
        """
        rows = sorted(self.candidate_index[hub] for hub in hubs)
        return np.asarray(rows, dtype=np.intp)

    @cached_property
    def nearest_candidates(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, zeta, beyond)``: every client's :data:`BOUND_ROWS` nearest candidates.

        Column ``m`` of the ``(R, M)`` ``int32`` ``rows`` and ``float64``
        ``zeta`` holds client ``m``'s ``R = min(BOUND_ROWS, Z)`` smallest
        ``zeta`` values and their candidate rows; ``beyond[m]`` is its
        ``(R + 1)``-th smallest value (``+inf`` when ``Z <= R``), a lower
        bound on ``zeta[m][n]`` for every candidate ``n`` not in ``rows``.
        The ``(R, M)`` layout lets the probe reduce over axis 0.  Built on
        first use, in client chunks within the scratch budget, and shared by
        every problem of the cost model (:meth:`PlacementProblem.with_omega`
        keeps the arrays).  A stable sort makes tied columns deterministic;
        any ``R`` smallest values and the next one would bound as well.
        """
        count, clients = self.zeta_t.shape
        kept = min(BOUND_ROWS, count)
        rows = np.empty((kept, clients), dtype=np.int32)
        values = np.empty((kept, clients))
        beyond = np.full(clients, np.inf)
        width = scratch_rows(count)
        for start in range(0, clients, width):
            block = self.zeta_t[:, start : start + width]
            order = np.argsort(block, axis=0, kind="stable")[: kept + 1]
            stop = start + block.shape[1]
            rows[:, start:stop] = order[:kept]
            values[:, start:stop] = np.take_along_axis(block, order[:kept], axis=0)
            if count > kept:
                beyond[start:stop] = np.take_along_axis(block, order[kept:], axis=0)[0]
        for table in (rows, values, beyond):
            table.flags.writeable = False
        return rows, values, beyond

    def synchronization(self, hub_rows: Sequence[int], loads: np.ndarray) -> float:
        """``C_S`` of equation (4) for placed rows and their client counts.

        Every ordered pair of placed hubs ``(n, l)`` contributes
        ``delta[n][l] * loads[n] + epsilon[n][l]``, summed row-major.
        """
        pairs = np.ix_(hub_rows, hub_rows)
        return sequential_sum(self.delta[pairs] * loads[:, None] + self.epsilon[pairs])

    def off_diagonal_delta(self) -> np.ndarray:
        """The ``delta[n][l]``, ``n != l`` entries in row-major order."""
        return self.delta[~np.eye(self.candidate_count, dtype=bool)]


def _dense(name: str, kind: str, matrix, rows: Sequence, columns: Sequence) -> np.ndarray:
    """A matrix as a dense array; a nested dict's missing entry names its row."""
    if isinstance(matrix, np.ndarray):
        return matrix
    dense = np.empty((len(rows), len(columns)))
    for i, row in enumerate(rows):
        try:
            dense[i] = [matrix[row][column] for column in columns]
        except KeyError:
            raise ValueError(f"{name} is missing entries for {kind} {row!r}") from None
    return dense


class PlacementCostModel:
    """Cost matrices of the placement problem (equations 3-5).

    :class:`CostArrays` is the representation: every evaluation below and
    every scalable solver reads the arrays, in the accumulation order of the
    nested-dict arithmetic they replaced.  ``zeta`` / ``delta`` / ``epsilon``
    are read-only nested-dict *views*, materialised on first access; only the
    exact small-scale solvers and :mod:`repro.reference.placement` touch them.
    The constructor takes each matrix dense (``(M, Z)`` / ``(Z, Z)``, shape
    checked) or as a nested dict (every entry must be present).

    Attributes:
        clients: Ordered client node ids (``V_CLI``).
        candidates: Ordered candidate smooth-node ids (``V_SNC``).
        zeta: ``zeta[m][n]`` management cost for client ``m``, candidate ``n``.
        delta: ``delta[n][l]`` per-client synchronization cost between candidates.
        epsilon: ``epsilon[n][l]`` constant synchronization cost between candidates.
    """

    def __init__(
        self, clients: Sequence[NodeId], candidates: Sequence[NodeId], zeta, delta, epsilon
    ) -> None:
        self.clients: List[NodeId] = list(clients)
        self.candidates: List[NodeId] = list(candidates)
        self._arrays = CostArrays(
            tuple(clients),
            tuple(candidates),
            _dense("zeta", "client", zeta, self.clients, self.candidates),
            _dense("delta", "candidate", delta, self.candidates, self.candidates),
            _dense("epsilon", "candidate", epsilon, self.candidates, self.candidates),
        )
        self._views: Dict[str, Mapping[NodeId, Mapping[NodeId, float]]] = {}

    def as_arrays(self) -> CostArrays:
        """The dense index-mapped matrices."""
        return self._arrays

    def _view(self, name: str) -> Mapping[NodeId, Mapping[NodeId, float]]:
        """The read-only nested-dict view of one matrix, built on first use."""
        view = self._views.get(name)
        if view is None:
            rows = self.clients if name == "zeta" else self.candidates
            view = self._views[name] = MappingProxyType(
                {
                    row: MappingProxyType(dict(zip(self.candidates, values)))
                    for row, values in zip(rows, getattr(self._arrays, name).tolist())
                }
            )
        return view

    zeta = property(lambda self: self._view("zeta"))
    delta = property(lambda self: self._view("delta"))
    epsilon = property(lambda self: self._view("epsilon"))

    # ------------------------------------------------------------------ #
    # cost evaluation (equations 3-5)
    # ------------------------------------------------------------------ #
    def management_cost(self, assignment: Mapping[NodeId, NodeId]) -> float:
        """``C_M(y)``: total client-to-hub management cost for an assignment."""
        arrays = self._arrays
        rows = [arrays.client_index[client] for client in assignment]
        columns = [arrays.candidate_index[hub] for hub in assignment.values()]
        return sequential_sum(arrays.zeta[rows, columns])

    def synchronization_cost(
        self,
        hubs: Iterable[NodeId],
        assignment: Mapping[NodeId, NodeId],
    ) -> float:
        """``C_S(x, y)``: total hub-to-hub synchronization cost (equation 4)."""
        arrays = self._arrays
        hub_list = list(hubs)
        loads = Counter(assignment.values())
        clients_per_hub = np.array([loads[hub] for hub in hub_list], dtype=float)
        rows = [arrays.candidate_index[hub] for hub in hub_list]
        return arrays.synchronization(rows, clients_per_hub)

    def balance_cost(
        self,
        hubs: Iterable[NodeId],
        assignment: Mapping[NodeId, NodeId],
        omega: float,
    ) -> float:
        """``C_B = C_M + omega * C_S`` (equation 5)."""
        return self.management_cost(assignment) + omega * self.synchronization_cost(hubs, assignment)

    def has_uniform_delta(self, tolerance: float = 1e-9) -> bool:
        """Whether all off-diagonal delta entries are equal (Lemma 2's condition)."""
        values = self._arrays.off_diagonal_delta()
        return not values.size or float(values.max() - values.min()) <= tolerance


def cost_model_from_network(
    network: PCNetwork,
    clients: Optional[Sequence[NodeId]] = None,
    candidates: Optional[Sequence[NodeId]] = None,
    zeta_per_hop: float = PAPER_ZETA_PER_HOP,
    delta_per_hop: float = PAPER_DELTA_PER_HOP,
    epsilon_per_hop: float = PAPER_EPSILON_PER_HOP,
    uniform_delta: bool = False,
    hops=None,
) -> PlacementCostModel:
    """Probe hop-count based costs from a PCN, as the candidates do in the paper.

    The one network -> cost-model builder: each cost is the elementwise
    ``coefficient * hops`` product of the paper's setting over the probe's
    hop matrix, with unreachable or unknown pairs charged
    ``max(node count, 2)`` hops and a zero candidate-to-itself distance.
    The hop counts land chunk by chunk in the ``(Z, M)`` block that becomes
    ``zeta_t`` and are scaled there, so set-up holds one dense block plus
    one chunk of probe rows, never the whole ``(Z, N)`` probe.

    Args:
        network: The PCN to probe.
        clients: Client set; defaults to the network's client-role nodes.
        candidates: Candidate set; defaults to the network's candidate/hub nodes.
        zeta_per_hop: Management cost per communication hop.
        delta_per_hop: Per-client synchronization cost per hop.
        epsilon_per_hop: Constant synchronization cost per hop.
        uniform_delta: Replace the hop-based delta with its mean value, which
            makes the objective provably supermodular (Lemma 2's uniform-cost
            case) -- used by the large-scale approximation experiments.
        hops: A pre-made probe covering every candidate: per-candidate
            reachable-only hop-count dicts (the oracle's BFS probe).  ``None``
            probes the network with bit-parallel BFS sweeps over its bare
            adjacency CSR
            (:meth:`repro.topology.csr.AdjacencyCSR.distances_from`), one
            chunk of candidates per sweep.
    """
    client_list = list(clients) if clients is not None else network.clients()
    candidate_list = list(candidates) if candidates is not None else network.candidates()
    if not candidate_list:
        raise ValueError("the network has no candidate smooth nodes")

    node_order, probe = _hop_probe(network, client_list, candidate_list, hops)
    fallback_hops = float(max(network.node_count(), 2))
    zeta_t, between = _hop_blocks(node_order, probe, client_list, candidate_list, fallback_hops)
    np.fill_diagonal(between, 0.0)
    zeta_t *= zeta_per_hop
    delta = delta_per_hop * between
    between *= epsilon_per_hop
    model = PlacementCostModel(client_list, candidate_list, zeta_t.T, delta, between)
    return uniformize_delta(model) if uniform_delta else model


def _hop_probe(network: PCNetwork, clients: List[NodeId], candidates: List[NodeId], hops):
    """``(node order, probe)`` of one ``hops`` form of :func:`cost_model_from_network`.

    ``probe(start, stop)`` returns the hop rows of ``candidates[start:stop]``
    over the node order (``inf`` where unreachable), so the caller holds one
    chunk of rows at a time.  An unknown candidate raises here, before any
    block is allocated.
    """
    if hops is None:
        from repro.topology.csr import AdjacencyCSR

        graph = AdjacencyCSR(network)
        source_rows = graph.rows_of(candidates)
        return graph.node_ids, lambda start, stop: graph.distances_from(source_rows[start:stop])
    # Densify only the columns the blocks read.
    node_order = clients + candidates
    sources = [hops[candidate] for candidate in candidates]
    return node_order, lambda start, stop: np.array(
        [[row.get(node, np.inf) for node in node_order] for row in sources[start:stop]],
        dtype=float,
    )


def _hop_blocks(
    node_order: Sequence[NodeId],
    probe,
    clients: Sequence[NodeId],
    candidates: Sequence[NodeId],
    fallback_hops: float,
):
    """The ``(Z, M)`` candidate-to-client and ``(Z, Z)`` between-candidate hop blocks.

    Candidates are probed one :func:`scratch_rows` chunk at a time and each
    chunk's columns are gathered straight into the preallocated blocks; a
    non-finite hop count -- unreachable, or a node the probe never saw --
    becomes ``fallback_hops``.  Every cell is the probe's exact integer or
    the fallback, so the chunk size cannot change a bit.
    """
    column = {node: j for j, node in enumerate(node_order)}
    blocks = []
    for nodes in (clients, candidates):
        picks = np.asarray([column.get(node, -1) for node in nodes], dtype=np.intp)
        blocks.append((np.empty((len(candidates), len(nodes))), picks, picks >= 0))
    chunk = scratch_rows(len(node_order))
    for start in range(0, len(candidates), chunk):
        rows = probe(start, start + chunk)
        for block, picks, seen in blocks:
            out = block[start : start + len(rows)]
            # ``clip`` sends an unseen node's -1 to column 0; ``seen`` overwrites it.
            np.take(rows, picks, axis=1, out=out, mode="clip")
            np.copyto(out, fallback_hops, where=~(np.isfinite(out) & seen))
    return blocks[0][0], blocks[1][0]


def uniformize_delta(model: PlacementCostModel) -> PlacementCostModel:
    """Replace off-diagonal delta entries by their mean (Lemma 2's uniform case)."""
    arrays = model.as_arrays()
    off_diagonal = arrays.off_diagonal_delta()
    mean_delta = sequential_sum(off_diagonal) / off_diagonal.size if off_diagonal.size else 0.0
    delta = np.full_like(arrays.delta, mean_delta)
    np.fill_diagonal(delta, 0.0)
    return PlacementCostModel(arrays.clients, arrays.candidates, arrays.zeta, delta, arrays.epsilon)
